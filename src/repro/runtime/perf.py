"""Backend-agnostic performance estimates.

Every engine in the repository quotes performance in its own dialect:
:class:`~repro.fpga.accelerator.FpgaPerformance` speaks single-item latency
and pipeline initiation interval, while the CPU, GPU, and near-memory cost
models speak batch latency curves through one interface,
:class:`CostModel`.  :class:`PerfEstimate` normalises all of them into one
record — latency, sustained throughput, compute rate, serving operating
point, and node cost — so the serving and fleet-planning layers (and any
future backend) compare engines without knowing what is underneath.  It
has two constructors, :meth:`PerfEstimate.from_fpga_performance` for the
pipeline and :meth:`PerfEstimate.from_cost_model` for every cost model;
both pass the raw numbers through untransformed, so the estimate matches
the underlying model bit-for-bit.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Protocol

from repro.fpga.accelerator import FpgaPerformance


class CostModel(Protocol):
    """A batched analytical cost model: its figures at one batch size.

    :class:`~repro.cpu.costmodel.CpuCostModel`,
    :class:`~repro.baselines.gpu.GpuCostModel` and
    :class:`~repro.baselines.nmp.NmpCostModel` implement it;
    ``bottleneck`` names the phase or component limiting the batch.
    """

    def end_to_end_latency_ms(self, batch: int, /) -> float: ...

    def throughput_items_per_s(self, batch: int, /) -> float: ...

    def throughput_gops(self, batch: int, /) -> float: ...

    def bottleneck(self, batch: int, /) -> str: ...


@dataclass(frozen=True)
class MemoryPerfEstimate:
    """Tiered-memory view of a deployment's embedding lookups.

    Attached to :class:`PerfEstimate` when a
    :class:`~repro.memory.tiers.TierHierarchy` is bound to the serving
    surface (``attach_tiers``): the warm steady-state hit rate and the
    hit-rate-weighted effective lookup latency across the tiers.
    """

    #: Cache-policy registry name driving the hot tiers.
    policy: str
    #: Warm steady-state fraction of lookups served by the hot tier.
    hit_rate: float
    #: Hit-rate-weighted blend of the tier access latencies (ns/lookup).
    effective_lookup_ns: float
    #: The hot (fastest) tier's access latency — the all-hit floor.
    hot_lookup_ns: float
    #: Embedding lookups issued per query.
    lookups_per_query: int
    tiers: tuple[str, ...]
    tier_fractions: tuple[float, ...]
    tier_access_ns: tuple[float, ...]


@dataclass(frozen=True)
class PerfEstimate:
    """Normalised performance summary of one deployed engine (one node).

    ``serving_batch`` is the operating point at which throughput, serving
    latency, and cost are quoted: 1 for pipelined engines that process
    items one by one, the paper's baseline batch for batched engines.
    """

    backend: str
    precision: str
    #: End-to-end latency of a single isolated query (microseconds).
    latency_us: float
    #: Per-query latency at the serving operating point (milliseconds) —
    #: what a fleet sized from this estimate promises each query.
    serving_latency_ms: float
    #: Sustained item spacing at capacity (nanoseconds): the pipeline
    #: initiation interval, or the amortised per-item time of a batch.
    ii_ns: float
    throughput_items_per_s: float
    throughput_gops: float
    serving_batch: int
    usd_per_hour: float
    #: The stage or phase limiting throughput (e.g. an MLP GEMM stage for
    #: the FPGA pipeline, ``"embedding"``/``"mlp"`` for the CPU engine).
    bottleneck: str
    #: Tiered-memory lookup summary when a tier hierarchy is attached to
    #: the serving surface; ``None`` (and omitted from :meth:`as_dict`)
    #: for flat all-in-HBM deployments, keeping their output unchanged.
    memory: MemoryPerfEstimate | None = None

    def __post_init__(self) -> None:
        if self.latency_us <= 0 or self.throughput_items_per_s <= 0:
            raise ValueError(
                f"{self.backend}: latency and throughput must be positive"
            )
        if self.serving_batch <= 0:
            raise ValueError(
                f"{self.backend}: serving_batch must be positive"
            )

    @property
    def usd_per_million_queries(self) -> float:
        """Node cost amortised at full sustained throughput."""
        return (
            self.usd_per_hour / 3600.0 / self.throughput_items_per_s * 1e6
        )

    def as_dict(self) -> dict[str, object]:
        """JSON-serialisable summary (CLI ``--json`` output)."""
        out: dict[str, object] = asdict(self)
        if self.memory is None:
            del out["memory"]
        out["usd_per_million_queries"] = self.usd_per_million_queries
        return out

    # -- normalising constructors ------------------------------------------

    @classmethod
    def from_fpga_performance(
        cls,
        perf: FpgaPerformance,
        usd_per_hour: float,
        backend: str = "fpga",
        precision: str | None = None,
    ) -> "PerfEstimate":
        """Normalise an accelerator pipeline report.

        Pipelined engines serve items one by one, so the serving operating
        point is batch 1 and the serving latency equals the single-item
        latency.
        """
        return cls(
            backend=backend,
            precision=precision or perf.precision,
            latency_us=perf.single_item_latency_us,
            serving_latency_ms=perf.single_item_latency_us / 1e3,
            ii_ns=perf.ii_ns,
            throughput_items_per_s=perf.throughput_items_per_s,
            throughput_gops=perf.throughput_gops,
            serving_batch=1,
            usd_per_hour=usd_per_hour,
            bottleneck=perf.bottleneck_stage,
        )

    @classmethod
    def from_cost_model(
        cls,
        cost: CostModel,
        serving_batch: int,
        usd_per_hour: float,
        backend: str,
        precision: str = "fp32",
    ) -> "PerfEstimate":
        """Normalise a batched analytical cost model at one operating batch.

        Every figure is the raw cost model's number, untransformed —
        sessions and fleet plans therefore agree bit-for-bit with the
        baseline study the model came from.
        """
        throughput = cost.throughput_items_per_s(serving_batch)
        return cls(
            backend=backend,
            precision=precision,
            latency_us=cost.end_to_end_latency_ms(1) * 1e3,
            serving_latency_ms=cost.end_to_end_latency_ms(serving_batch),
            ii_ns=1e9 / throughput,
            throughput_items_per_s=throughput,
            throughput_gops=cost.throughput_gops(serving_batch),
            serving_batch=serving_batch,
            usd_per_hour=usd_per_hour,
            bottleneck=cost.bottleneck(serving_batch),
        )
