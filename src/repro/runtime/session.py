"""Deployed-engine sessions: one facade over every backend.

A :class:`Session` is what :meth:`InferenceBackend.build` returns — a live,
queryable deployment of one model on one engine.  Whatever the backend, a
session answers the same four questions:

* ``infer(batch)`` — real CTR predictions through the engine's data path;
* ``perf()`` — a normalised :class:`~repro.runtime.perf.PerfEstimate`;
* ``serve(arrivals)`` — queueing simulation of the engine under a query
  stream, routed to the pipelined or batched server model as appropriate;
* ``fleet(target_qps)`` — how many nodes of this engine a load needs.

The serving side of that surface (``serve`` / ``serve_trace`` / ``sweep``
/ ``fleet`` / ``fleet_sla``) lives in the :class:`ServingSurface` mixin,
shared verbatim with :class:`~repro.cluster.Cluster` — the serving lab,
the bench runner, and the CLI target the mixin's protocol and therefore
drive one-replica sessions and routed heterogeneous clusters with the
same code.

Concrete sessions (:class:`FpgaSession`, :class:`CpuSession`,
:class:`GpuSession`, :class:`NmpSession`) expose their underlying engine
via ``.engine`` for backend-specific detail (plans, resource reports, cost
curves).
"""

from __future__ import annotations

import numbers
import zlib
from abc import ABC, abstractmethod
from dataclasses import replace
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.engine import MicroRecEngine
from repro.cpu.baseline import CpuBaselineEngine
from repro.deploy.capacity import FleetPlan, plan_fleet_for
from repro.fpga.accelerator import FpgaPerformance
from repro.fpga.resources import ResourceReport
from repro.models.mlp import FixedPointFormat, Mlp
from repro.models.spec import ModelSpec
from repro.models.workload import QueryBatch
from repro.runtime.perf import CostModel, PerfEstimate
from repro.serving.queueing import (
    BatchedServerSim,
    PipelineServerSim,
    ServingResult,
)

if TYPE_CHECKING:  # lazy at runtime: lab/capacity build on sessions
    from repro.deploy.capacity import SlaFleetPlan
    from repro.memory.tiers import TierHierarchy
    from repro.runtime.perf import MemoryPerfEstimate
    from repro.serving.arrivals import RateTrace
    from repro.serving.lab import LoadCurve
    from repro.serving.popularity import PopularityModel
    from repro.telemetry import Telemetry


def _is_integer(value: object) -> bool:
    """True for an int or numpy integer; False for a bool or a float."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


class ServingSurface:
    """The serving protocol shared by :class:`Session` and ``Cluster``.

    Anything that can state its sustained performance (:meth:`perf`) and
    turn an arrival stream into a latency distribution (:meth:`_serve`)
    gets the whole serving toolbox for free: trace replay, load sweeps,
    throughput-only and SLA-aware fleet sizing.  One-engine sessions and
    routed multi-replica clusters are therefore interchangeable wherever
    a deployment is served — the serving lab, ``plan_fleet_sla``, the
    bench runner, and the CLI all target this mixin, not a concrete
    class.

    Implementors provide ``backend`` (a stable display/registry name),
    :meth:`perf`, and :meth:`_serve`.

    Any surface can additionally be bound to a tiered memory hierarchy
    (:meth:`attach_tiers`): lookups then pay hit-rate-dependent latency
    under skewed key popularity, ``serve`` accepts a ``tier_warmup``
    knob to contrast warm steady-state against cold-start behaviour,
    and :meth:`perf` carries a ``memory`` block.  Without an attached
    hierarchy every output is byte-identical to the flat all-in-HBM
    model.
    """

    backend: str
    #: Tiered embedding storage bound to this surface (None = flat).
    tier_hierarchy: "TierHierarchy | None" = None
    #: Key-popularity model driving the tier caches.
    tier_popularity: "PopularityModel | None" = None
    #: Seed folded into every tier simulation (content-addressed).
    tier_seed: int = 0
    #: Embedding lookups issued per served query.
    _tier_lookups: int = 1
    #: Default telemetry hub (created lazily on first use).
    _telemetry: "Telemetry | None" = None
    #: Serves observed so far — the span sampler's stream tag, so the
    #: same seed samples the same requests of the same serve sequence.
    _serve_count: int = 0

    def perf(self) -> PerfEstimate:
        """Normalised sustained performance of one deployed unit."""
        raise NotImplementedError

    # -- tiered memory -------------------------------------------------------

    def attach_tiers(
        self,
        hierarchy: "TierHierarchy",
        *,
        popularity: "PopularityModel | None" = None,
        lookups_per_query: int | None = None,
        seed: int = 0,
    ) -> "ServingSurface":
        """Bind a tiered memory hierarchy to this surface (returns self).

        From here on, every ``serve``/``sweep``/``serve_trace`` call
        draws per-query lookup keys from ``popularity`` (default: Zipf
        over the deployed model's rows, or 8x the hot tier when no
        model is in reach), cascades them through the hierarchy's
        caches, and adds the resulting tier penalty to each query's
        completion time.  ``lookups_per_query`` (a positive integer)
        defaults to the model's ``lookups_per_inference``.
        ``serve(..., tier_warmup=0)`` serves
        cold (fresh caches); the default pre-warms with the hierarchy's
        ``warm_accesses`` steady-state prefix.
        """
        from repro.serving.popularity import PopularityModel

        if popularity is None:
            model = self._tier_model()
            if model is not None:
                rows = sum(t.rows for t in model.tables)
            else:
                rows = 8 * max(
                    1, hierarchy.hot.capacity_rows(hierarchy.row_bytes)
                )
            popularity = PopularityModel(rows=rows)
        if lookups_per_query is None:
            model = self._tier_model()
            lookups_per_query = (
                model.lookups_per_inference if model is not None else 1
            )
        if not (_is_integer(lookups_per_query) and lookups_per_query > 0):
            raise ValueError(
                "lookups_per_query must be a positive integer, "
                f"got {lookups_per_query}"
            )
        self.tier_hierarchy = hierarchy
        self.tier_popularity = popularity
        self.tier_seed = seed
        self._tier_lookups = int(lookups_per_query)
        self._tier_penalty_cache: dict[
            tuple[int, int, int], np.ndarray
        ] = {}
        self._perf_cache = None  # perf() now carries a memory block
        return self

    def _tier_model(self):
        """The deployed ModelSpec, if this surface can name one."""
        model = getattr(self, "model", None)
        if model is not None:
            return model
        replicas = getattr(self, "replicas", None)
        if replicas:
            return replicas[0].model
        return None

    def _memory_estimate(self) -> "MemoryPerfEstimate | None":
        """Warm steady-state tier stats for :meth:`perf` (or None)."""
        hierarchy = self.tier_hierarchy
        if hierarchy is None:
            return None
        from repro.runtime.perf import MemoryPerfEstimate
        from repro.serving.lab import lab_seed

        rng = np.random.default_rng(
            lab_seed(self.tier_seed, "tiering", "perf")
        )
        popularity = self.tier_popularity
        assert popularity is not None
        measure = max(1, hierarchy.sim_queries) * self._tier_lookups
        warm_keys = popularity.sample(rng, hierarchy.warm_accesses)
        keys = popularity.sample(rng, measure)
        # The steady-state cascade also feeds the surface's telemetry
        # hub: per-tier hit/miss counters ride along with the estimate.
        stats = hierarchy.simulate(
            keys,
            warmup_keys=warm_keys,
            metrics=self.telemetry.metrics,
        )
        return MemoryPerfEstimate(
            policy=hierarchy.policy,
            hit_rate=stats.hit_rate,
            effective_lookup_ns=stats.effective_ns,
            hot_lookup_ns=hierarchy.hot.access_ns,
            lookups_per_query=self._tier_lookups,
            tiers=stats.tiers,
            tier_fractions=stats.tier_fractions,
            tier_access_ns=stats.access_ns,
        )

    def _tier_penalty(
        self, arrivals_ns: np.ndarray, warmup: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-query tier penalty (ns) and per-tier lookup counts.

        Content-addressed and memoised: the same arrivals under the
        same warm-up always produce the same penalties, preserving the
        byte-identical ``--json`` guarantees.  At most ``sim_queries``
        queries are simulated through the cache cascade; the penalty
        pattern tiles across longer streams.

        Returns ``(penalty_ns, tier_lookups)``: the per-query penalty
        aligned with ``arrivals_ns``, and the total lookups landing on
        each tier (aligned with the hierarchy's tier order, scaled to
        the full stream when the pattern tiles).  The counts live in
        the same cache as the penalties, so the telemetry counters
        keep incrementing on memoised repeat serves.
        """
        from repro.serving.lab import lab_seed

        hierarchy = self.tier_hierarchy
        popularity = self.tier_popularity
        assert hierarchy is not None and popularity is not None
        n = arrivals_ns.size
        simulated = min(n, hierarchy.sim_queries)
        digest = zlib.crc32(
            np.ascontiguousarray(arrivals_ns[:simulated]).tobytes()
        )
        cache: dict[
            tuple[int, int, int], tuple[np.ndarray, np.ndarray]
        ] = getattr(self, "_tier_penalty_cache", None) or {}
        self._tier_penalty_cache = cache
        key = (n, warmup, digest)
        cached = cache.get(key)
        if cached is None:
            lookups = self._tier_lookups
            rng = np.random.default_rng(
                lab_seed(self.tier_seed, "tiering", warmup, digest)
            )
            t_s = np.repeat(arrivals_ns[:simulated], lookups) / 1e9
            keys = popularity.sample(
                rng, simulated * lookups, t_s=t_s
            )
            if warmup > 0:
                warm_keys = popularity.sample(
                    rng, warmup, t_s=float(arrivals_ns[0]) / 1e9
                )
                assigned = hierarchy.assign_tiers(
                    np.concatenate([warm_keys, keys])
                )[warmup:]
            else:
                assigned = hierarchy.assign_tiers(keys)
            per_query = (
                hierarchy.penalty_ns(assigned)
                .reshape(simulated, lookups)
                .sum(axis=1)
            )
            # Per-query lookup counts per tier (simulated, tiers):
            # summed (and tiled) into the telemetry tier counters.
            tier_count = len(hierarchy.tiers)
            per_query_tiers = np.zeros(
                (simulated, tier_count), dtype=np.int64
            )
            assigned2d = assigned.reshape(simulated, lookups)
            for t in range(tier_count):
                per_query_tiers[:, t] = (assigned2d == t).sum(axis=1)
            cached = (per_query, per_query_tiers)
            cache[key] = cached
        per_query, per_query_tiers = cached
        if n > per_query.size:
            full, rem = divmod(n, per_query.size)
            tier_lookups = per_query_tiers.sum(axis=0) * full
            tier_lookups += per_query_tiers[:rem].sum(axis=0)
            tiled = per_query[
                np.arange(n, dtype=np.int64) % per_query.size
            ]
            return tiled, tier_lookups
        return per_query, per_query_tiers.sum(axis=0)

    def _serve(
        self, arrivals_ns: np.ndarray, **server_knobs: object
    ) -> ServingResult:
        """Serve a validated, non-empty arrival stream."""
        raise NotImplementedError

    def serve(
        self, arrivals_ns: np.ndarray, **server_knobs: object
    ) -> ServingResult:
        """Simulate this deployment serving a stream of arrival timestamps.

        ``arrivals_ns`` comes from the generators in
        :mod:`repro.serving.arrivals` (steady :func:`poisson_arrivals` /
        :func:`uniform_arrivals`, or :func:`trace_arrivals` over a
        time-varying :class:`~repro.serving.arrivals.RateTrace`); an
        empty stream, or one with a NaN or inf timestamp, is rejected
        with a clear error rather than yielding NaN latency statistics.
        For rate sweeps use :meth:`sweep`, for trace replay
        :meth:`serve_trace`; the serving lab (:mod:`repro.serving.lab`)
        builds latency-under-load curves from this method across all
        backends and clusters.

        With a tier hierarchy attached (:meth:`attach_tiers`), the
        optional ``tier_warmup`` knob (an integer >= 0) sets how many
        steady-state accesses pre-warm the caches before the stream:
        ``0`` serves cold (a freshly provisioned node), the default
        ``None`` uses the hierarchy's ``warm_accesses`` (warm steady
        state).  Each query's completion then carries its simulated
        tier penalty.

        The ``telemetry`` knob controls observation: the default
        ``None`` populates this surface's own :attr:`telemetry` hub
        (always-on digest path), an explicit
        :class:`~repro.telemetry.Telemetry` instance collects there
        instead, and ``False`` disables collection for this call.
        Telemetry strictly *observes* the finished result — the
        returned latencies are byte-identical whichever way the knob
        is set.
        """
        telemetry = server_knobs.pop("telemetry", None)
        tier_warmup = server_knobs.pop("tier_warmup", None)
        if tier_warmup is not None:
            if self.tier_hierarchy is None:
                raise TypeError(
                    f"{self.backend}: tier_warmup requires an attached "
                    "tier hierarchy (attach_tiers)"
                )
            if not (_is_integer(tier_warmup) and tier_warmup >= 0):
                raise ValueError(
                    "tier_warmup must be an integer >= 0, "
                    f"got {tier_warmup}"
                )
        arrivals = np.asarray(arrivals_ns, dtype=np.float64)
        if arrivals.size == 0:
            raise ValueError(
                f"{self.backend}: cannot serve an empty arrival stream "
                "(raise the rate or the duration)"
            )
        if not np.isfinite(arrivals).all():
            raise ValueError(
                f"{self.backend}: arrivals_ns must be finite "
                "(no NaN or inf timestamps)"
            )
        result = self._serve(arrivals, **server_knobs)
        tier_penalty = None
        tier_lookups = None
        if self.tier_hierarchy is not None:
            warmup = (
                self.tier_hierarchy.warm_accesses
                if tier_warmup is None
                else int(tier_warmup)
            )
            # The cluster path sorts internally; align penalties with
            # the stream the result actually reports.
            tier_penalty, tier_lookups = self._tier_penalty(
                result.arrivals_ns, warmup
            )
            result = replace(
                result, completions_ns=result.completions_ns + tier_penalty
            )
        hub = self._resolve_telemetry(telemetry)
        if hub is not None:
            self._observe_serve(hub, result, tier_lookups, tier_penalty)
        return result

    # -- telemetry -----------------------------------------------------------

    @property
    def telemetry(self) -> "Telemetry":
        """This surface's default telemetry hub (created on first use).

        Every ``serve`` observes here unless the call overrides the
        ``telemetry=`` knob; digests keep the state O(bins), so the
        default stays affordable on arbitrarily long streams.
        """
        if self._telemetry is None:
            from repro.telemetry import Telemetry

            self._telemetry = Telemetry()
        return self._telemetry

    def attach_telemetry(
        self, telemetry: "Telemetry"
    ) -> "ServingSurface":
        """Bind a telemetry hub to this surface (returns self).

        The attached hub replaces the lazily-created default — the way
        to enable span recording (construct the hub with a
        :class:`~repro.telemetry.SpanRecorder`) or to share one hub
        across several surfaces.
        """
        from repro.telemetry import Telemetry

        if not isinstance(telemetry, Telemetry):
            raise TypeError(
                f"{self.backend}: attach_telemetry needs a Telemetry "
                f"hub, got {telemetry!r}"
            )
        self._telemetry = telemetry
        return self

    def _resolve_telemetry(self, knob: object) -> "Telemetry | None":
        """Map the ``telemetry=`` serve knob onto a hub (or None = off)."""
        if knob is None:
            return self.telemetry
        if knob is False:
            return None
        from repro.telemetry import Telemetry

        if isinstance(knob, Telemetry):
            return knob
        raise TypeError(
            f"{self.backend}: telemetry must be a Telemetry hub, "
            f"False, or None, got {knob!r}"
        )

    def _observe_serve(
        self,
        hub: "Telemetry",
        result: ServingResult,
        tier_lookups: np.ndarray | None = None,
        tier_penalty_ns: np.ndarray | None = None,
    ) -> None:
        """Populate ``hub`` from one finished serve (observation only)."""
        backend = self.backend
        metrics = hub.metrics
        metrics.counter(f"serve.requests.{backend}").inc(result.count)
        metrics.histogram(
            f"serve.latency_ms.{backend}"
        ).observe_many(result.latencies_ms)
        if tier_lookups is not None:
            hierarchy = self.tier_hierarchy
            assert hierarchy is not None
            for tier, lookups in zip(hierarchy.tiers, tier_lookups):
                metrics.counter(
                    f"tiers.lookups.{tier.name}.{backend}"
                ).inc(int(lookups))
        self._telemetry_extra(hub, result)
        stream = self._serve_count
        self._serve_count = stream + 1
        if hub.spans is not None:
            self._record_spans(hub, result, stream, tier_penalty_ns)

    def _telemetry_extra(
        self, hub: "Telemetry", result: ServingResult
    ) -> None:
        """Surface-specific observation hook (cluster dispatch/spill)."""

    def _record_spans(
        self,
        hub: "Telemetry",
        result: ServingResult,
        stream: int,
        tier_penalty_ns: np.ndarray | None,
    ) -> None:
        """Build spans for a seeded sample of this serve's requests.

        The simulators are vectorised, so phases are reconstructed
        post-hoc from the completion timeline: the engine's nominal
        single-item service time bounds the ``service`` phase, the
        simulated tier penalty is the ``tier-lookup`` phase, and the
        remainder is ``queue-wait``.
        """
        recorder = hub.spans
        assert recorder is not None
        indices = recorder.sample_indices(
            result.count, "serve", self.backend, stream
        )
        if indices.size == 0:
            return
        from repro.telemetry import RequestSpan

        service_ns = self.perf().latency_us * 1e3
        arrivals = result.arrivals_ns
        totals = result.completions_ns - result.arrivals_ns
        source = f"serve:{self.backend}:{stream}"
        for i in indices:
            index = int(i)
            tier_ns = (
                float(tier_penalty_ns[index])
                if tier_penalty_ns is not None
                else 0.0
            )
            span = RequestSpan(
                source=source,
                request_index=index,
                arrival_ns=float(arrivals[index]),
                phases=self._span_phases(
                    float(totals[index]), service_ns, tier_ns
                ),
            )
            if not recorder.record(span):
                break

    def _span_phases(
        self, total_ns: float, service_ns: float, tier_ns: float
    ) -> tuple[tuple[str, float], ...]:
        """Decompose one request's latency into span phases.

        Single-surface requests split into queue-wait / service (/
        tier-lookup when a hierarchy is attached); the cluster
        override brackets these with its routing phases.
        """
        service = min(max(total_ns - tier_ns, 0.0), service_ns)
        queue = max(total_ns - tier_ns - service, 0.0)
        phases: list[tuple[str, float]] = [
            ("queue-wait", queue),
            ("service", service),
        ]
        if self.tier_hierarchy is not None:
            phases.append(("tier-lookup", tier_ns))
        return tuple(phases)

    def serve_trace(
        self,
        trace: "RateTrace",
        seed: int = 0,
        **server_knobs: object,
    ) -> ServingResult:
        """Replay a time-varying :class:`~repro.serving.arrivals.RateTrace`.

        The trace is realised as a non-homogeneous Poisson stream
        (:func:`~repro.serving.arrivals.trace_arrivals`, seeded) and
        served through this engine's queueing model.
        """
        from repro.serving.arrivals import trace_arrivals

        rng = np.random.default_rng(seed)
        return self.serve(trace_arrivals(rng, trace), **server_knobs)

    def sweep(self, **sweep_knobs: object) -> "LoadCurve":
        """Latency-vs-load curve of this engine under one arrival process.

        Delegates to :func:`repro.serving.lab.load_sweep`; knobs include
        ``process`` (``"poisson"``, ``"diurnal"``, ``"bursty"``, ...),
        ``rates`` or ``utilisations``, ``duration_s``, ``slo_ms``, and
        ``seed``.
        """
        from repro.serving.lab import load_sweep

        return load_sweep(self, **sweep_knobs)

    def fleet(self, target_qps: float, headroom: float = 0.7) -> FleetPlan:
        """Size a fleet of this engine for ``target_qps`` by throughput.

        Buys throughput headroom only; :meth:`fleet_sla` additionally
        holds a latency SLO under a simulated arrival pattern.
        """
        return plan_fleet_for(target_qps, [self.perf()], headroom=headroom)[
            self.backend
        ]

    def fleet_sla(
        self, target_qps: float, *, slo_ms: float, **plan_knobs: object
    ) -> "SlaFleetPlan":
        """Size a fleet that meets a latency SLO under simulated load.

        Delegates to :func:`repro.deploy.capacity.plan_fleet_sla`; knobs
        include ``process`` or ``trace``, ``slo_percentile``,
        ``duration_s``, ``headroom``, and ``seed``.  Never returns fewer
        nodes than :meth:`fleet`.
        """
        from repro.deploy.capacity import plan_fleet_sla

        return plan_fleet_sla(target_qps, self, slo_ms=slo_ms, **plan_knobs)


class Session(ServingSurface, ABC):
    """A deployed inference engine with a backend-agnostic surface."""

    def __init__(
        self,
        backend: str,
        model: ModelSpec,
        precision: str,
        usd_per_hour: float,
    ):
        self.backend = backend
        self.model = model
        self.precision = precision
        self.usd_per_hour = usd_per_hour
        self._perf_cache: PerfEstimate | None = None

    # -- inference ----------------------------------------------------------

    @abstractmethod
    def infer(self, batch: QueryBatch) -> np.ndarray:
        """Predicted CTR per query, shape ``(batch,)``."""

    @abstractmethod
    def reference(self) -> CpuBaselineEngine:
        """fp32 CPU reference over the same tables and MLP weights."""

    # -- performance --------------------------------------------------------

    @abstractmethod
    def _estimate_perf(self) -> PerfEstimate:
        """Build this backend's normalised performance estimate."""

    def perf(self) -> PerfEstimate:
        """Normalised performance estimate for one node (cached).

        Carries a ``memory`` block when a tier hierarchy is attached.
        """
        if self._perf_cache is None:
            estimate = self._estimate_perf()
            memory = self._memory_estimate()
            if memory is not None:
                estimate = replace(estimate, memory=memory)
            self._perf_cache = estimate
        return self._perf_cache

    @abstractmethod
    def batch_latency_ms(self, batch_size: int) -> float:
        """End-to-end latency of one batch on this engine."""

    # -- serving ------------------------------------------------------------

    @abstractmethod
    def server(self, **knobs: object) -> BatchedServerSim | PipelineServerSim:
        """The queueing simulator modelling this engine under load."""

    def _serve(
        self, arrivals_ns: np.ndarray, **server_knobs: object
    ) -> ServingResult:
        return self.server(**server_knobs).run(arrivals_ns)

    # -- reporting ----------------------------------------------------------

    def summary(self) -> dict[str, object]:
        perf = self.perf()
        out: dict[str, object] = {
            "backend": self.backend,
            "model": self.model.name,
            "precision": self.precision,
            "latency_us": perf.latency_us,
            "throughput_items_per_s": perf.throughput_items_per_s,
            "usd_per_hour": perf.usd_per_hour,
        }
        out.update(self._extra_summary())
        return out

    def _extra_summary(self) -> dict[str, object]:
        return {}

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(backend={self.backend!r}, "
            f"model={self.model.name!r}, precision={self.precision!r})"
        )


class PipelinedServing:
    """Mixin for sessions served item-by-item by a hardware pipeline.

    Items are admitted at the perf estimate's sustained spacing (``ii_ns``)
    and each leaves one single-query latency later; there are no batching
    knobs to turn, so any are rejected.
    """

    def server(self, **knobs: object) -> PipelineServerSim:
        if knobs:
            raise TypeError(
                f"pipelined server takes no knobs, got {sorted(knobs)}"
            )
        # The engine build is a pure function of the (cached) perf
        # estimate and the simulator is stateless across runs, so one
        # instance serves every window replay of this session.
        cached = getattr(self, "_server_cache", None)
        if cached is None:
            perf = self.perf()
            cached = PipelineServerSim(perf.latency_us, perf.ii_ns)
            self._server_cache = cached
        return cached


class FpgaSession(PipelinedServing, Session):
    """A MicroRec engine deployed behind the session facade.

    ``precision`` is the *functional* number format (may be ``"fp32"`` for
    reference runs); the timed estimates come from the engine's hardware
    config, which is always a realisable fixed-point build.
    """

    def __init__(
        self,
        backend: str,
        engine: MicroRecEngine,
        precision: str,
        usd_per_hour: float,
    ):
        super().__init__(backend, engine.model, precision, usd_per_hour)
        self.engine = engine

    @property
    def plan(self):
        """The planner result (Algorithm 1) this deployment runs under."""
        return self.engine.plan

    def infer(self, batch: QueryBatch) -> np.ndarray:
        return self.engine.infer(batch)

    def reference(self) -> CpuBaselineEngine:
        return self.engine.reference_engine()

    def performance(self, lookup_rounds: int = 1) -> FpgaPerformance:
        """The raw accelerator pipeline report (backend-specific)."""
        return self.engine.performance(lookup_rounds=lookup_rounds)

    def resources(self) -> ResourceReport:
        """FPGA resource usage of this build (backend-specific)."""
        return self.engine.resources()

    def _estimate_perf(self) -> PerfEstimate:
        return PerfEstimate.from_fpga_performance(
            self.performance(),
            usd_per_hour=self.usd_per_hour,
            backend=self.backend,
            precision=self.precision,
        )

    def batch_latency_ms(self, batch_size: int) -> float:
        return self.performance().batch_latency_ms(batch_size)

    def _extra_summary(self) -> dict[str, object]:
        out = self.engine.plan.summary()
        out["bottleneck"] = self.perf().bottleneck
        return out


class ModeledSession(Session):
    """Shared base of the cost-modelled baselines (cpu / gpu / nmp).

    All three serve the *same functional path* — the NumPy reference engine
    over the same deterministic tables and MLP (optionally quantised to a
    fixed-point format for apples-to-apples accuracy studies), so their
    fp32 predictions agree bit-for-bit — and differ only in the analytical
    cost model that times them (any :class:`~repro.runtime.perf.CostModel`)
    and in the serving architecture built on top.  The perf estimate is
    the cost model's figures at ``serving_batch``, and the summary adds the
    operating point, the backend's own cost figures
    (:meth:`_cost_summary`) and the bottleneck.
    """

    #: Build knobs this session type takes beyond the shared ones.
    session_knobs: tuple[str, ...] = ()

    def __init__(
        self,
        backend: str,
        model: ModelSpec,
        engine: CpuBaselineEngine,
        cost: CostModel,
        precision: str,
        fixed_point: FixedPointFormat | None,
        serving_batch: int,
        usd_per_hour: float,
    ):
        if not (_is_integer(serving_batch) and serving_batch > 0):
            raise ValueError(
                "serving_batch must be a positive integer, "
                f"got {serving_batch}"
            )
        super().__init__(backend, model, precision, usd_per_hour)
        self.engine = engine
        self.cost = cost
        self.fixed_point = fixed_point
        self.serving_batch = serving_batch
        self._mlp_device: Mlp = (
            engine.mlp.quantized(fixed_point) if fixed_point else engine.mlp
        )

    def infer(self, batch: QueryBatch) -> np.ndarray:
        feats = self.engine.embed(batch)
        return self._mlp_device.forward(feats, fmt=self.fixed_point)

    def reference(self) -> CpuBaselineEngine:
        return self.engine

    def _estimate_perf(self) -> PerfEstimate:
        return PerfEstimate.from_cost_model(
            self.cost,
            serving_batch=self.serving_batch,
            usd_per_hour=self.usd_per_hour,
            backend=self.backend,
            precision=self.precision,
        )

    def batch_latency_ms(self, batch_size: int) -> float:
        return self.cost.end_to_end_latency_ms(batch_size)

    def _extra_summary(self) -> dict[str, object]:
        perf = self.perf()
        return {
            "serving_batch": self.serving_batch,
            "serving_latency_ms": perf.serving_latency_ms,
            **self._cost_summary(),
            "bottleneck": perf.bottleneck,
        }

    @abstractmethod
    def _cost_summary(self) -> dict[str, object]:
        """This backend's own cost-model figures for :meth:`summary`."""


class BatchedModeledSession(ModeledSession):
    """Cost-modelled sessions served by the batch-assembly server (cpu/gpu)."""

    session_knobs = ("batch_timeout_ms",)

    def __init__(
        self, *args: Any, batch_timeout_ms: float = 10.0, **kwargs: Any
    ):
        super().__init__(*args, **kwargs)
        self.batch_timeout_ms = batch_timeout_ms
        # Memoised per knob tuple: the simulator carries no run state,
        # so window replays reuse one engine build per configuration.
        self._server_cache: dict[tuple[int, float], BatchedServerSim] = {}
        self.server()  # the default server checks the knobs at deploy

    def server(
        self,
        batch_size: int | None = None,
        batch_timeout_ms: float | None = None,
    ) -> BatchedServerSim:
        key = (
            batch_size or self.serving_batch,
            self.batch_timeout_ms
            if batch_timeout_ms is None
            else batch_timeout_ms,
        )
        server = self._server_cache.get(key)
        if server is None:
            server = self._server_cache[key] = BatchedServerSim(
                self.cost.end_to_end_latency_ms,
                batch_size=key[0],
                batch_timeout_ms=key[1],
            )
        return server


class CpuSession(BatchedModeledSession):
    """The batched CPU baseline deployed behind the session facade.

    Functional inference runs the plain NumPy path; timing comes from the
    calibrated :class:`~repro.cpu.costmodel.CpuCostModel`.
    """

    def _cost_summary(self) -> dict[str, object]:
        return {
            "embedding_fraction": self.cost.embedding_fraction(
                self.serving_batch
            ),
        }


class GpuSession(BatchedModeledSession):
    """The GPU baseline (DeepRecSys-style observations) behind the facade.

    The functional path is the same NumPy reference a GPU would compute;
    timing comes from :class:`~repro.baselines.gpu.GpuCostModel` — launch
    and per-operator kernel overheads, PCIe transfer, HBM gathers, and a
    GEMM rate that only saturates at very large batches.  Serving is
    batched like the CPU path, at the much larger operating batch GPUs
    need to be cost-effective.
    """

    def _cost_summary(self) -> dict[str, object]:
        return {"pcie_transfer_ms": self.cost.transfer_ms(self.serving_batch)}


class NmpSession(PipelinedServing, ModeledSession):
    """The near-memory-processing baseline behind the session facade.

    Timing comes from :class:`~repro.baselines.nmp.NmpCostModel` (CPU cost
    structure with the per-lookup memory cost divided by the DIMM-level
    acceleration factor).  Serving is modelled pipeline-style: the
    near-memory gather/reduce units stream per-item lookups with rank-level
    parallelism, so items are admitted at the amortised per-item spacing of
    the serving operating point and each leaves one single-query latency
    later — the proposals' best case, which still trails MicroRec end to
    end because framework overhead and the batched MLP are untouched.
    """

    def _cost_summary(self) -> dict[str, object]:
        return {
            "lookup_speedup": self.cost.nmp.lookup_speedup,
            "embedding_fraction": self.cost.embedding_fraction(
                self.serving_batch
            ),
        }
