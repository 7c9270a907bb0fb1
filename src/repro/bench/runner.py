"""The benchmark sweep: registered backends x model specs x batch sizes.

One :func:`run_bench` call deploys every requested (model, backend) pair
through :func:`repro.deploy_model`, collects the normalised
:class:`~repro.runtime.perf.PerfEstimate`, the batch-latency curve, the
fleet plan for a target load, the latency-under-load serving block
(schema v2: one curve per arrival process from the serving lab plus the
SLA-aware fleet plan), the planner statistics (planning backends only),
and wall-clock timings, and returns one schema-versioned payload (see
:mod:`repro.bench.schema`).
"""

from __future__ import annotations

import json
import math
import re
import time
from dataclasses import asdict, dataclass
from typing import Callable

from repro.deploy.capacity import plan_fleet_sla
from repro.models.spec import MODEL_FACTORIES
from repro.runtime import available_backends, deploy_model
from repro.serving.arrivals import ARRIVAL_PROCESSES, check_positive
from repro.serving.lab import session_lab

from repro.bench.schema import SCHEMA_VERSION, SUITE, validate_payload

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")

#: The default fleet-sizing load: the paper's appendix prices engines at
#: web scale, and one million queries per second keeps node counts in a
#: range where the cost ordering is visible.
DEFAULT_TARGET_QPS = 1_000_000.0


@dataclass(frozen=True)
class BenchConfig:
    """One benchmark sweep: what to deploy and where to operate it."""

    models: tuple[str, ...] = ("small",)
    #: Backend names to sweep; empty means every registered backend.
    backends: tuple[str, ...] = ()
    batches: tuple[int, ...] = (1, 64, 512, 2048)
    #: Per-table row cap applied before deployment (keeps the functional
    #: engines laptop-sized; ``None`` deploys the full tables).
    max_rows: int | None = 4096
    seed: int = 0
    quick: bool = False
    target_qps: float = DEFAULT_TARGET_QPS
    #: Latency SLO the serving block is judged against ("tens of
    #: milliseconds", section 1).
    slo_ms: float = 30.0
    #: Simulated window per latency-under-load measurement.
    serve_duration_s: float = 0.1
    #: Arrival processes swept per (model, backend) pair.
    serve_processes: tuple[str, ...] = ("poisson", "diurnal", "bursty")
    #: Offered-load grid as fractions of per-node sustained throughput.
    serve_utilisations: tuple[float, ...] = (0.25, 0.5, 0.8, 1.05)
    #: Tiers of the v3 routed-cluster block, one replica each, on the
    #: first swept model; empty disables the block (``"cluster": null``).
    cluster_backends: tuple[str, ...] = ("fpga", "gpu", "cpu")
    #: Routing policy the cluster block serves under.
    cluster_router: str = "sla-aware"
    #: Offered load of the cluster block as a fraction of the cluster's
    #: summed capacity.
    cluster_utilisation: float = 0.8
    #: Scaler policy of the v4 autoscale block (an elastic fleet of the
    #: first swept model/backend driven through a diurnal trace); the
    #: empty string disables the block (``"autoscale": null``).
    autoscale_policy: str = "reactive-utilisation"
    #: Control windows of the autoscale block's horizon (each one
    #: ``serve_duration_s`` long).
    autoscale_windows: int = 12
    #: Sharding strategy of the v5 sharding block (the first swept model
    #: sharded across ``sharding_nodes`` replicas of the first swept
    #: backend); ``"auto"`` enumerates every registered strategy, the
    #: empty string disables the block (``"sharding": null``).
    sharding_strategy: str = "auto"
    #: Node count of the sharding block's homogeneous cluster.
    sharding_nodes: int = 4
    #: Per-node DRAM cap (GB) of the sharding block — small enough that
    #: the first swept model cannot fit on one node, so the plan is a
    #: real multi-owner shard even for the CI-sized models.
    sharding_node_gb: float = 0.5
    #: Cache policy of the v7 tiering block (the first swept
    #: model/backend bound to a scaled HBM → DDR → host hierarchy and
    #: served warm and cold); the empty string disables the block
    #: (``"tiering": null``).
    tiering_policy: str = "lru"
    #: Zipf exponent of the tiering block's key popularity.
    tiering_alpha: float = 1.05
    #: Fraction of the tiering block's working set the hot tier holds.
    tiering_hot_fraction: float = 0.125
    #: Whether the v8 telemetry block runs (one routed serve observed
    #: through the always-on metric hub: digest tails, dispatch/spill
    #: shares, tier hit rates); ``False`` disables the block
    #: (``"telemetry": null``).
    telemetry: bool = True
    #: When set, stamp every result's ``wall_clock_budget_s`` (schema v6)
    #: at ``multiplier x`` its measured wall clock — the one-command way
    #: to regenerate a budgeted baseline artifact (pick ~3x so routine
    #: noise passes and order-of-magnitude slowdowns fail).  ``None``
    #: leaves results unbudgeted.
    wall_clock_budget_multiplier: float | None = None
    #: Artifact name: the sweep writes ``BENCH_<name>.json``.
    name: str = "full"

    def __post_init__(self) -> None:
        if not self.models:
            raise ValueError("models must not be empty")
        if len(set(self.models)) != len(self.models):
            raise ValueError(f"duplicate models in {self.models}")
        if len(set(self.backends)) != len(self.backends):
            raise ValueError(f"duplicate backends in {self.backends}")
        if not self.batches:
            raise ValueError("batches must not be empty")
        if any(b <= 0 for b in self.batches):
            raise ValueError(f"batches must be positive, got {self.batches}")
        if len(set(self.batches)) != len(self.batches):
            raise ValueError(f"duplicate batches in {self.batches}")
        if self.max_rows is not None and self.max_rows <= 0:
            raise ValueError(f"max_rows must be positive, got {self.max_rows}")
        check_positive("target_qps", self.target_qps)
        check_positive("slo_ms", self.slo_ms)
        check_positive("serve_duration_s", self.serve_duration_s)
        if not self.serve_processes:
            raise ValueError("serve_processes must not be empty")
        if len(set(self.serve_processes)) != len(self.serve_processes):
            raise ValueError(
                f"duplicate serve_processes in {self.serve_processes}"
            )
        unknown = [
            p for p in self.serve_processes if p not in ARRIVAL_PROCESSES
        ]
        if unknown:
            raise ValueError(
                f"unknown serve_processes {unknown}; "
                f"available: {tuple(ARRIVAL_PROCESSES)}"
            )
        if not self.serve_utilisations:
            raise ValueError("serve_utilisations must not be empty")
        for utilisation in self.serve_utilisations:
            check_positive("serve_utilisations", utilisation)
        if len(set(self.cluster_backends)) != len(self.cluster_backends):
            raise ValueError(
                f"duplicate cluster_backends in {self.cluster_backends}"
            )
        check_positive("cluster_utilisation", self.cluster_utilisation)
        if self.autoscale_windows <= 0:
            raise ValueError(
                f"autoscale_windows must be positive, got "
                f"{self.autoscale_windows}"
            )
        if self.sharding_nodes <= 0:
            raise ValueError(
                f"sharding_nodes must be positive, got "
                f"{self.sharding_nodes}"
            )
        check_positive("sharding_node_gb", self.sharding_node_gb)
        if not (math.isfinite(self.tiering_alpha) and self.tiering_alpha >= 0):
            raise ValueError(
                f"tiering_alpha must be finite and >= 0, got "
                f"{self.tiering_alpha}"
            )
        if not 0 < self.tiering_hot_fraction < 0.5:
            raise ValueError(
                f"tiering_hot_fraction must be in (0, 0.5), got "
                f"{self.tiering_hot_fraction}"
            )
        if self.wall_clock_budget_multiplier is not None:
            check_positive(
                "wall_clock_budget_multiplier",
                self.wall_clock_budget_multiplier,
            )
        if not _NAME_RE.match(self.name):
            raise ValueError(
                f"name must match {_NAME_RE.pattern}, got {self.name!r}"
            )

    @classmethod
    def quick_config(cls, **overrides: object) -> "BenchConfig":
        """The CI-sized sweep: small batches, heavily row-capped tables.

        Completes in well under two minutes across all five built-in
        backends; any field can still be overridden.
        """
        base: dict[str, object] = {
            "models": ("small",),
            "batches": (1, 64, 512),
            "max_rows": 256,
            "quick": True,
            "serve_duration_s": 0.05,
            "name": "quick",
        }
        base.update(overrides)
        return cls(**base)  # type: ignore[arg-type]

    def resolved_backends(self) -> tuple[str, ...]:
        return tuple(self.backends) or available_backends()


def _check_names(config: BenchConfig) -> None:
    from repro.autoscale import available_scalers
    from repro.cluster import available_policies

    unknown_models = [m for m in config.models if m not in MODEL_FACTORIES]
    if unknown_models:
        raise ValueError(
            f"unknown model(s) {unknown_models}; "
            f"available: {sorted(MODEL_FACTORIES)}"
        )
    registered = set(available_backends())
    unknown_backends = [
        b
        for b in (*config.resolved_backends(), *config.cluster_backends)
        if b not in registered
    ]
    if unknown_backends:
        raise ValueError(
            f"unknown backend(s) {unknown_backends}; "
            f"registered: {sorted(registered)}"
        )
    if (
        config.cluster_backends
        and config.cluster_router not in available_policies()
    ):
        raise ValueError(
            f"unknown cluster_router {config.cluster_router!r}; "
            f"registered: {sorted(available_policies())}"
        )
    if (
        config.autoscale_policy
        and config.autoscale_policy not in available_scalers()
    ):
        raise ValueError(
            f"unknown autoscale_policy {config.autoscale_policy!r}; "
            f"registered: {sorted(available_scalers())}"
        )
    from repro.distplan import AUTO_STRATEGY, available_strategies

    if (
        config.sharding_strategy
        and config.sharding_strategy != AUTO_STRATEGY
        and config.sharding_strategy not in available_strategies()
    ):
        raise ValueError(
            f"unknown sharding_strategy {config.sharding_strategy!r}; "
            f"registered: {sorted(available_strategies())} "
            f"(or {AUTO_STRATEGY!r})"
        )
    from repro.memory.tiers import available_cache_policies

    if (
        config.tiering_policy
        and config.tiering_policy not in available_cache_policies()
    ):
        raise ValueError(
            f"unknown tiering_policy {config.tiering_policy!r}; "
            f"registered: {sorted(available_cache_policies())}"
        )


def _bench_cluster(config: BenchConfig) -> dict[str, object] | None:
    """The v3 routed-cluster block: one heterogeneous serve per sweep.

    One replica per configured tier, first swept model, served at a
    fixed fraction of the cluster's summed capacity under the configured
    router — enough for ``--compare`` to track blended tail latency and
    $/M-queries of the routed fleet across commits.
    """
    if not config.cluster_backends:
        return None
    from repro.cluster import ReplicaSpec, deploy_cluster
    from repro.serving.arrivals import poisson_arrivals
    from repro.serving.lab import lab_seed

    import numpy as np

    model_name = config.models[0]
    cluster = deploy_cluster(
        [
            ReplicaSpec(model=model_name, backend=backend)
            for backend in config.cluster_backends
        ],
        router=config.cluster_router,
        slo_ms=config.slo_ms,
        max_rows=config.max_rows,
        seed=config.seed,
    )
    rate = (
        config.cluster_utilisation
        * cluster.perf().throughput_items_per_s
    )
    rng = np.random.default_rng(
        lab_seed(config.seed, cluster.backend, "bench-cluster")
    )
    arrivals = poisson_arrivals(rng, rate, config.serve_duration_s)
    result = cluster.serve(arrivals)
    return {
        "model": model_name,
        "tiers": list(config.cluster_backends),
        "router": config.cluster_router,
        "rate_per_s": rate,
        "utilisation": config.cluster_utilisation,
        "duration_s": config.serve_duration_s,
        "slo_ms": config.slo_ms,
        "result": result.as_dict(config.slo_ms),
    }


def _bench_autoscale(config: BenchConfig) -> dict[str, object] | None:
    """The v4 elastic-fleet block: one autoscaled trace replay per sweep.

    The first swept model on the first swept backend, driven through a
    diurnal trace (base rate: eight nodes' worth of capacity, the range
    where fleet sizes stay legible) by the configured scaler policy —
    enough for ``--compare`` to track blended elastic cost and SLA
    attainment (and the savings against the peak-sized static fleet)
    across commits.
    """
    if not config.autoscale_policy:
        return None
    from repro.autoscale import simulate_autoscale
    from repro.serving.arrivals import diurnal_trace

    model_name = config.models[0]
    backend = config.resolved_backends()[0]
    session = deploy_model(
        model_name,
        backend=backend,
        max_rows=config.max_rows,
        seed=config.seed,
    )
    per_node = session.perf().throughput_items_per_s
    trace = diurnal_trace(
        8.0 * per_node,
        config.autoscale_windows * config.serve_duration_s,
        amplitude=0.6,
    )
    result = simulate_autoscale(
        session,
        trace,
        policy=config.autoscale_policy,
        slo_ms=config.slo_ms,
        windows=config.autoscale_windows,
        seed=config.seed,
    )
    return {
        "model": model_name,
        "backend": backend,
        "policy": config.autoscale_policy,
        "windows": config.autoscale_windows,
        "slo_ms": config.slo_ms,
        "result": result.as_dict(),
    }


def _bench_sharding(config: BenchConfig) -> dict[str, object] | None:
    """The v5 sharded-fleet block: one fan-out serve per sweep.

    The first swept model sharded across ``sharding_nodes`` replicas of
    the first swept backend, each capped at ``sharding_node_gb`` of DRAM
    so even the CI-sized models cannot fit on one node and the planner
    must emit a real multi-owner plan.  Served at a fixed fraction of
    the fan-out capacity — enough for ``--compare`` to track blended
    tail latency, fan-out, and peak node occupancy across commits.
    """
    if not config.sharding_strategy:
        return None
    from repro.cluster import ReplicaSpec
    from repro.distplan import AUTO_STRATEGY, deploy_sharded
    from repro.serving.arrivals import poisson_arrivals
    from repro.serving.lab import lab_seed

    import numpy as np

    model_name = config.models[0]
    backend = config.resolved_backends()[0]
    strategy = (
        None
        if config.sharding_strategy == AUTO_STRATEGY
        else config.sharding_strategy
    )
    cluster = deploy_sharded(
        model_name,
        [ReplicaSpec(backend=backend, count=config.sharding_nodes)],
        strategy,
        slo_ms=config.slo_ms,
        max_rows=config.max_rows,
        seed=config.seed,
        node_capacity_bytes=int(config.sharding_node_gb * 1024**3),
    )
    rate = (
        config.cluster_utilisation
        * cluster.perf().throughput_items_per_s
    )
    rng = np.random.default_rng(
        lab_seed(config.seed, cluster.backend, "bench-sharding")
    )
    arrivals = poisson_arrivals(rng, rate, config.serve_duration_s)
    result = cluster.serve(arrivals)
    return {
        "model": model_name,
        "tiers": [f"{backend}:{config.sharding_nodes}"],
        "strategy": cluster.plan.strategy,
        "nodes": config.sharding_nodes,
        "node_gb": config.sharding_node_gb,
        "rate_per_s": rate,
        "utilisation": config.cluster_utilisation,
        "duration_s": config.serve_duration_s,
        "slo_ms": config.slo_ms,
        "plan": cluster.plan.as_dict(),
        "result": result.as_dict(config.slo_ms),
    }


def _bench_tiering(config: BenchConfig) -> dict[str, object] | None:
    """The v7 tiered-storage block: one warm/cold tier lab per sweep.

    The first swept model on the first swept backend, bound to a scaled
    HBM → DDR → host hierarchy whose hot tier holds only
    ``tiering_hot_fraction`` of the model's rows, driven by
    Zipf(``tiering_alpha``) popularity — enough for ``--compare`` to
    track the steady-state hit rate and the warm and cold p99 across
    commits.  Simulation sizes are capped (``sim_queries``) so the
    block stays CI-priced.
    """
    if not config.tiering_policy:
        return None
    from repro.memory.tiers import scaled_tier_hierarchy
    from repro.serving.lab import tiering_lab
    from repro.serving.popularity import PopularityModel

    model_name = config.models[0]
    backend = config.resolved_backends()[0]
    session = deploy_model(
        model_name,
        backend=backend,
        max_rows=config.max_rows,
        seed=config.seed,
    )
    rows = sum(t.rows for t in session.model.tables)
    hierarchy = scaled_tier_hierarchy(
        rows,
        policy=config.tiering_policy,
        hot_fraction=config.tiering_hot_fraction,
        warm_accesses=4096,
        sim_queries=512,
    )
    session.attach_tiers(
        hierarchy,
        popularity=PopularityModel(rows=rows, alpha=config.tiering_alpha),
        seed=config.seed,
    )
    block = tiering_lab(
        session,
        utilisations=config.serve_utilisations,
        duration_s=config.serve_duration_s,
        slo_ms=config.slo_ms,
        seed=config.seed,
    )
    return {"model": model_name, **block}


def _bench_telemetry(config: BenchConfig) -> dict[str, object] | None:
    """The v8 telemetry block: the observability plane's own numbers.

    Serves one poisson window through a routed cluster (the cluster
    block's tiers, or a single replica of the first swept backend when
    the cluster block is disabled) into a fresh
    :class:`~repro.telemetry.Telemetry` hub, then reads the headline
    figures back *out of the metric registry*: digest-estimated latency
    tails, per-tier dispatch shares, the spill share off the primary
    tier, and — when the tiering block is enabled — the steady-state
    tier hit rates counted by the cache cascade.  ``--compare`` diffs
    these, so drift in the telemetry plane itself (digest error,
    mis-counted dispatch) gates CI like any serving regression.
    """
    if not config.telemetry:
        return None
    from repro.cluster import ReplicaSpec, deploy_cluster
    from repro.serving.arrivals import poisson_arrivals
    from repro.serving.lab import lab_seed
    from repro.telemetry import Telemetry

    import numpy as np

    model_name = config.models[0]
    tiers = tuple(config.cluster_backends) or (config.resolved_backends()[0],)
    router = config.cluster_router if config.cluster_backends else "round-robin"
    cluster = deploy_cluster(
        [ReplicaSpec(model=model_name, backend=b) for b in tiers],
        router=router,
        slo_ms=config.slo_ms,
        max_rows=config.max_rows,
        seed=config.seed,
    )
    hub = Telemetry()
    rate = (
        config.cluster_utilisation * cluster.perf().throughput_items_per_s
    )
    rng = np.random.default_rng(
        lab_seed(config.seed, cluster.backend, "bench-telemetry")
    )
    arrivals = poisson_arrivals(rng, rate, config.serve_duration_s)
    cluster.serve(arrivals, telemetry=hub)
    digest = hub.metrics.histogram(
        f"serve.latency_ms.{cluster.backend}"
    ).digest
    dispatch = {
        tier: hub.metrics.counter(f"cluster.dispatch.{tier}").value
        for tier in cluster.tiers()
    }
    total = sum(dispatch.values())
    primary = cluster.tiers()[0]
    spill = hub.metrics.counter(f"cluster.spill.{primary}").value

    tier_hit_rates: dict[str, float] | None = None
    if config.tiering_policy:
        from repro.memory.tiers import scaled_tier_hierarchy
        from repro.serving.popularity import PopularityModel

        session = deploy_model(
            model_name,
            backend=config.resolved_backends()[0],
            max_rows=config.max_rows,
            seed=config.seed,
        )
        rows = sum(t.rows for t in session.model.tables)
        session.attach_tiers(
            scaled_tier_hierarchy(
                rows,
                policy=config.tiering_policy,
                hot_fraction=config.tiering_hot_fraction,
                warm_accesses=4096,
                sim_queries=512,
            ),
            popularity=PopularityModel(
                rows=rows, alpha=config.tiering_alpha
            ),
            seed=config.seed,
        )
        session.perf()  # feeds tiers.hits.* into the session's own hub
        hits = {
            name: session.telemetry.metrics.counter(
                f"tiers.hits.{name}"
            ).value
            for name in session.tier_hierarchy.names
        }
        accesses = sum(hits.values())
        tier_hit_rates = {
            name: (served / accesses if accesses else 0.0)
            for name, served in hits.items()
        }
    return {
        "model": model_name,
        "tiers": list(tiers),
        "router": router,
        "rate_per_s": rate,
        "utilisation": config.cluster_utilisation,
        "duration_s": config.serve_duration_s,
        "queries": digest.count,
        "latency_ms": {
            "p50": digest.quantile(50.0),
            "p99": digest.quantile(99.0),
            "p999": digest.quantile(99.9),
        },
        "dispatch_shares": {
            tier: (count / total if total else 0.0)
            for tier, count in dispatch.items()
        },
        "spill_share": (spill / total if total else 0.0),
        "tier_hit_rates": tier_hit_rates,
    }


def _bench_one(
    model_name: str, backend: str, config: BenchConfig
) -> dict[str, object]:
    """Deploy one (model, backend) pair and measure everything we quote."""
    started = time.perf_counter()
    session = deploy_model(
        model_name,
        backend=backend,
        max_rows=config.max_rows,
        seed=config.seed,
    )
    perf = session.perf()
    latencies = {
        str(batch): session.batch_latency_ms(batch)
        for batch in config.batches
    }
    fleet = session.fleet(config.target_qps)
    serving = session_lab(
        session,
        processes=config.serve_processes,
        utilisations=config.serve_utilisations,
        duration_s=config.serve_duration_s,
        slo_ms=config.slo_ms,
        seed=config.seed,
    )
    try:
        serving["fleet_sla"] = plan_fleet_sla(
            config.target_qps,
            session,
            slo_ms=config.slo_ms,
            duration_s=config.serve_duration_s,
            seed=config.seed,
        ).as_dict()
    except ValueError:
        # The SLO sits below this engine's latency floor: no fleet size
        # can meet it.  Record the absence; the schema allows null here.
        serving["fleet_sla"] = None
    plan = getattr(session, "plan", None)
    return {
        "model": model_name,
        "backend": backend,
        "precision": session.precision,
        "perf": perf.as_dict(),
        "batch_latency_ms": latencies,
        "fleet": fleet.as_dict(),
        "serving": serving,
        "planner": plan.summary() if plan is not None else None,
        "wall_clock_s": time.perf_counter() - started,
    }


def run_bench(
    config: BenchConfig,
    log: Callable[[str], None] | None = None,
) -> dict[str, object]:
    """Run one sweep and return the schema-versioned payload.

    ``log`` receives one progress line per (model, backend) pair; pass a
    stderr writer so stdout can stay machine-readable.  The payload is
    validated against :mod:`repro.bench.schema` before it is returned, so
    a malformed artifact can never leave this function.
    """
    _check_names(config)
    emit = log or (lambda _message: None)
    started = time.perf_counter()
    results = []
    backends = config.resolved_backends()
    multiplier = config.wall_clock_budget_multiplier
    for model_name in config.models:
        for backend in backends:
            result = _bench_one(model_name, backend, config)
            if multiplier is not None:
                result["wall_clock_budget_s"] = (
                    multiplier * result["wall_clock_s"]
                )
            perf = result["perf"]
            emit(
                f"bench {model_name}/{backend}: "
                f"{perf['latency_us']:.1f} us/query, "
                f"{perf['throughput_items_per_s']:,.0f} items/s, "
                f"${perf['usd_per_million_queries']:.4f}/1M "
                f"({result['wall_clock_s']:.2f}s)"
            )
            results.append(result)
    cluster_block = _bench_cluster(config)
    if cluster_block is not None:
        blended = cluster_block["result"]["blended"]
        emit(
            f"bench cluster {'+'.join(config.cluster_backends)} "
            f"({config.cluster_router}): "
            f"p99 {blended['p99_ms']:.3f} ms, "
            f"SLA {blended['sla_attainment']:.1%} @ "
            f"{cluster_block['rate_per_s']:,.0f}/s"
        )
    autoscale_block = _bench_autoscale(config)
    if autoscale_block is not None:
        agg = autoscale_block["result"]["aggregate"]
        savings = agg["usd_savings_vs_static"]
        emit(
            f"bench autoscale {autoscale_block['backend']} "
            f"({autoscale_block['policy']}): "
            f"mean {agg['mean_nodes']:.1f} nodes, "
            f"SLA {agg['sla_attainment']:.1%}, "
            + (
                f"{savings:+.1%} vs static"
                if savings is not None
                else "no static baseline"
            )
        )
    sharding_block = _bench_sharding(config)
    if sharding_block is not None:
        blended = sharding_block["result"]["blended"]
        plan = sharding_block["plan"]
        emit(
            f"bench sharding {sharding_block['tiers'][0]} "
            f"({sharding_block['strategy']}): "
            f"fan-out {plan['fanout']}, "
            f"p99 {blended['p99_ms']:.3f} ms, "
            f"peak node {plan['max_node_utilisation']:.1%} full"
        )
    tiering_block = _bench_tiering(config)
    if tiering_block is not None:
        steady = tiering_block["steady_state"]
        emit(
            f"bench tiering {tiering_block['backend']} "
            f"({tiering_block['policy']}): "
            f"hit rate {steady['hit_rate']:.1%}, "
            f"effective lookup {steady['effective_lookup_ns']:,.0f} ns "
            f"(hot {steady['hot_lookup_ns']:,.0f} ns)"
        )
    telemetry_block = _bench_telemetry(config)
    if telemetry_block is not None:
        latency = telemetry_block["latency_ms"]
        emit(
            f"bench telemetry {'+'.join(telemetry_block['tiers'])}: "
            f"digest p99 {latency['p99']:.3f} ms over "
            f"{telemetry_block['queries']:,} observed queries, "
            f"spill {telemetry_block['spill_share']:.1%}"
        )
    payload: dict[str, object] = {
        "suite": SUITE,
        "schema_version": SCHEMA_VERSION,
        "name": config.name,
        "config": {
            "models": list(config.models),
            "backends": list(backends),
            "batches": list(config.batches),
            "max_rows": config.max_rows,
            "seed": config.seed,
            "quick": config.quick,
            "target_qps": config.target_qps,
            "slo_ms": config.slo_ms,
            "serve_duration_s": config.serve_duration_s,
            "serve_processes": list(config.serve_processes),
            "serve_utilisations": list(config.serve_utilisations),
            "cluster_backends": list(config.cluster_backends),
            "cluster_router": config.cluster_router,
            "cluster_utilisation": config.cluster_utilisation,
            "autoscale_policy": config.autoscale_policy,
            "autoscale_windows": config.autoscale_windows,
            "sharding_strategy": config.sharding_strategy,
            "sharding_nodes": config.sharding_nodes,
            "sharding_node_gb": config.sharding_node_gb,
            "tiering_policy": config.tiering_policy,
            "tiering_alpha": config.tiering_alpha,
            "tiering_hot_fraction": config.tiering_hot_fraction,
            "telemetry": config.telemetry,
            "wall_clock_budget_multiplier": (
                config.wall_clock_budget_multiplier
            ),
        },
        "results": results,
        "cluster": cluster_block,
        "autoscale": autoscale_block,
        "sharding": sharding_block,
        "tiering": tiering_block,
        "telemetry": telemetry_block,
        "wall_clock_s": time.perf_counter() - started,
    }
    return validate_payload(payload)


def default_output_path(name: str) -> str:
    """The conventional artifact filename for a sweep name."""
    return f"BENCH_{name}.json"


def write_payload(payload: dict[str, object], path: str) -> None:
    """Write a validated payload to ``path`` (2-space indent + newline)."""
    validate_payload(payload)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def config_summary(config: BenchConfig) -> str:
    """One human line describing a sweep (CLI progress header)."""
    fields = asdict(config)
    fields["backends"] = list(config.resolved_backends())
    return (
        f"sweep {fields['name']}: models={list(config.models)} "
        f"backends={fields['backends']} batches={list(config.batches)} "
        f"max_rows={config.max_rows} target_qps={config.target_qps:,.0f}"
    )
