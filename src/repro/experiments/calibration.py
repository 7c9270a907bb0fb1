"""Calibration constants: where every simulator parameter comes from.

The reproduction's rule is *calibrate once, reuse everywhere*: each
constant below is fit against exactly one published measurement (its
"provenance") and then held fixed across all experiments, so every other
table/figure is a genuine model output.

+--------------------------------+---------------------------+------------------------------------------+
| constant                       | value                     | provenance                               |
+--------------------------------+---------------------------+------------------------------------------+
| DRAM initiation latency        | 313 ns                    | Table 5, 8-table row intercept           |
| AXI stream rate                | 32 bit @ 190 MHz          | Table 5, 8-table row slope (~5.3 ns/elem)|
| on-chip latency fraction       | 1/3                       | section 3.2.2 (stated)                   |
| MAC lanes per PE               | 10 (fixed16) / 5 (fixed32)| Table 2 FPGA throughput                  |
| clock frequency                | 120 / 135-140 MHz         | Table 6 (measured timing closure)        |
| stage overhead cycles          | 64                        | Table 2 single-item latency              |
| PE resource costs              | see repro.fpga.resources  | appendix HLS estimates + Table 6 totals  |
| CPU t_op (operator call)       | 1.49 us                   | Table 4, B=1 embedding latency           |
| CPU ops_per_table              | 37                        | section 1 (stated)                       |
| CPU t_lookup                   | 98 ns                     | Table 4, B=2048 embedding slope          |
| CPU batch assembly             | 25 us x sqrt(B)           | Table 4 mid-batch curvature              |
| CPU peak GEMM rate             | 589 GFLOP/s               | derived from E5-2686 v4 spec             |
| CPU GEMM efficiency curve      | 0.5 (B+1.5)/(B+160)       | Table 2 MLP residuals (two-point fit)    |
| Facebook baseline embedding    | ~24 us/item               | Table 5 speedup x latency invariant      |
+--------------------------------+---------------------------+------------------------------------------+

This module re-exports the default objects so experiments construct their
simulators from one place.
"""

from __future__ import annotations

from repro.fpga.accelerator import FpgaConfig
from repro.memory.spec import MemorySystemSpec, u280_memory_system
from repro.memory.timing import MemoryTimingModel, default_timing_model

#: Batch size the paper selects for the CPU baseline comparisons ("larger
#: batch sizes can break inference latency constraints").
BASELINE_BATCH = 2048


def default_memory() -> MemorySystemSpec:
    return u280_memory_system()


def default_timing() -> MemoryTimingModel:
    return default_timing_model(default_memory().axi)


def fpga_config(precision: str) -> FpgaConfig:
    return FpgaConfig(precision=precision)
