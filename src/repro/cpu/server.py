"""CPU server specification for the baseline engine.

The paper's baseline is an AWS instance with an Intel Xeon E5-2686 v4
(16 vCPU = 8 physical cores with AVX2 FMA) and 128 GB of DDR4 over 8
channels, running TensorFlow Serving (section 5.1).  The derived peak
GEMM rate below feeds the mechanistic cost model in
``repro.cpu.costmodel``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CpuServerSpec:
    """Hardware parameters of the baseline server."""

    name: str = "aws-xeon-e5-2686v4"
    vcpus: int = 16
    physical_cores: int = 8
    clock_ghz: float = 2.3
    memory_channels: int = 8
    #: fp32 lanes per FMA unit (AVX2 = 256-bit = 8 floats).
    simd_lanes: int = 8
    #: FMA units per core on Broadwell.
    fma_units: int = 2
    dram_bytes: int = 128 * 1024**3

    @property
    def peak_gflops(self) -> float:
        """Peak fp32 GFLOP/s: cores x FMA units x lanes x 2 ops x clock.

        8 x 2 x 8 x 2 x 2.3 GHz = 589 GFLOP/s for the default spec.
        """
        return (
            self.physical_cores
            * self.fma_units
            * self.simd_lanes
            * 2
            * self.clock_ghz
        )
