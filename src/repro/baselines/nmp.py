"""Near-memory-processing baseline (TensorDIMM / RecNMP class).

Kwon et al. (2019) and Ke et al. (2020) attack the same bottleneck as
MicroRec by redesigning DRAM: rank-level parallelism plus near-memory
gather/reduce units accelerate the embedding layer by roughly the
DIMM-level parallelism factor, with memory-side caching adding more for
skewed traffic.  Crucially, everything *around* the lookups — the
framework's operator overhead, the batched MLP, the batching latency —
is untouched, which is why MicroRec still wins end to end and why the
paper notes such DRAM "would take years to put in production".

:class:`NmpCostModel` *is* the CPU cost model
(:class:`~repro.cpu.costmodel.CpuCostModel`), built once with NMP-scaled
constants: the per-lookup memory cost divided by the DIMM-level
acceleration factor and the per-operator overhead scaled by the share
the NMP units leave on the host.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.cpu.costmodel import CpuCostModel, CpuCostParams
from repro.cpu.server import CpuServerSpec


@dataclass(frozen=True)
class NmpSpec:
    """A near-memory-processing DIMM configuration."""

    name: str = "recnmp-class"
    #: Speedup of the raw random-access stream from rank-level parallelism
    #: plus near-memory gather (TensorDIMM reports ~4x per DIMM group;
    #: RecNMP adds memory-side caching).
    lookup_speedup: float = 4.0
    #: Fraction of the CPU's per-batch operator overhead that remains (the
    #: NMP proposals offload the gather/reduce ops themselves).
    op_overhead_fraction: float = 0.6

    def __post_init__(self) -> None:
        if self.lookup_speedup < 1.0:
            raise ValueError("lookup_speedup must be >= 1")
        if not 0 <= self.op_overhead_fraction <= 1:
            raise ValueError("op_overhead_fraction must be in [0, 1]")


@dataclass(frozen=True)
class NmpCostModel(CpuCostModel):
    """CPU server with NMP DIMMs: accelerated embedding, unchanged MLP.

    Constructed from ``model``, ``nmp`` and the host's ``cpu_params``;
    ``params`` (what the inherited CPU formulas read) is derived from
    them, and ``server`` is the stock CPU server.
    """

    server: CpuServerSpec = field(init=False, default_factory=CpuServerSpec)
    params: CpuCostParams = field(init=False, default_factory=CpuCostParams)
    nmp: NmpSpec = field(default_factory=NmpSpec)
    cpu_params: CpuCostParams = field(default_factory=CpuCostParams)

    def __post_init__(self) -> None:
        params = replace(
            self.cpu_params,
            t_lookup_ns=self.cpu_params.t_lookup_ns / self.nmp.lookup_speedup,
            t_op_us=self.cpu_params.t_op_us * self.nmp.op_overhead_fraction,
        )
        object.__setattr__(self, "params", params)
