"""Command-line interface.

Usage::

    repro experiments [NAME ...]           # regenerate tables/figures
    repro plan MODEL [options]             # run Algorithm 1 on a model
    repro infer MODEL [options]            # deploy a backend, run inference
    repro fleet MODEL QPS [options]        # size fleets for a target load
    repro serve MODEL [options]            # latency-under-load serving lab
    repro cluster MODEL [options]          # routed heterogeneous cluster
    repro plan-shards MODEL [options]      # shard one model across nodes
    repro autoscale MODEL [options]        # elastic fleet through a trace
    repro tiers MODEL [options]            # tiered storage: warm vs cold
    repro stats MODEL [options]            # one window's telemetry plane
    repro bench [options]                  # backend x model x batch sweep
    repro lint PATH [PATH ...]             # AST invariant checker
    repro info                             # library / model overview

(Also runnable as ``python -m repro``.)  ``MODEL`` is a registered model
name; ``--backend`` selects a registered inference backend, ``--router``
(on ``cluster`` and ``stats``) a registered routing policy, ``--policy``
(on ``autoscale``) a registered scaler policy (on ``tiers``, a registered
cache policy), ``--strategy`` (on ``plan-shards``) a registered sharding
strategy, and ``--exporter`` (on ``stats``) a registered telemetry
exporter — the ``--help`` epilog lists the registries live, so
third-party plugins show up automatically.

Every verb but ``experiments`` takes ``--json``: stdout then carries
*only* one strict JSON document (RFC 8259, so never ``NaN`` or
``Infinity``; progress goes to stderr), and the output pipes straight
into any JSON parser.

Errors exit 2 with a one-line message on stderr that names the flag or
the library field at fault, never a traceback.  Unknown names, malformed
numbers, and out-of-range values of the numbers the CLI itself computes
with fail while the arguments are parsed (after argparse's usage line);
a value forwarded to a library call fails with that call's message,
which names the field.  ``repro bench`` exits 1 when
``--fail-on-regression`` trips, and ``repro lint`` exits 1 on findings.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Callable, Iterable, Sequence


def _number(kind: type, ok: Callable[[float], bool], rule: str):
    """An argparse type: ``kind(text)``, rejected unless ``ok(value)``.

    argparse prefixes the rejection with the flag's name; a value that
    does not parse reads "invalid <kind> value", as with a plain type.
    """

    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value

    parse.__name__ = kind.__name__
    return parse


_non_negative_int = _number(int, lambda v: v >= 0, ">= 0")
_positive_int = _number(int, lambda v: v > 0, "positive")
_positive = _number(
    float, lambda v: math.isfinite(v) and v > 0, "positive and finite"
)
_non_negative = _number(
    float, lambda v: math.isfinite(v) and v >= 0, "finite and >= 0"
)
_fraction = _number(float, lambda v: 0 < v <= 1, "in (0, 1]")


def _known(kind: str, available: Iterable[str]):
    """An argparse type accepting only the names in ``available``."""
    names = list(available)

    def parse(text: str) -> str:
        if text not in names:
            raise argparse.ArgumentTypeError(
                f"unknown {kind} {text!r}; available: {', '.join(names)}"
            )
        return text

    return parse


def _model(text: str) -> str:
    """The MODEL type; also checks a ``--tier``'s MODEL after parsing."""
    from repro.models.spec import MODEL_FACTORIES

    return _known("model", MODEL_FACTORIES)(text)


def _emit(payload: object, **options) -> int:
    """Print ``payload`` as the one strict ``--json`` document."""
    print(json.dumps(payload, indent=2, allow_nan=False, **options))
    return 0


def _deploy(args: argparse.Namespace, backend: str | None = None, **knobs):
    """Deploy ``args.model`` on ``backend`` (default: ``--backend``)."""
    from repro.runtime import deploy_model

    return deploy_model(
        args.model,
        backend=backend or args.backend,
        max_rows=args.max_rows,
        **knobs,
    )


def _replicas(texts: Sequence[str], model: str) -> list:
    """Parse ``--tier BACKEND[:COUNT[:MODEL]]`` texts into replica specs."""
    from repro.cluster import ReplicaSpec

    specs = []
    for text in texts:
        backend, *rest = text.split(":")
        if len(rest) > 2 or not backend:
            raise ValueError(
                f"bad --tier {text!r}; expected BACKEND[:COUNT[:MODEL]]"
            )
        count, tier_model = [*rest, "", ""][:2]
        try:
            count = int(count) if count else 1
        except ValueError:
            raise ValueError(
                f"bad --tier {text!r}; COUNT must be an integer"
            ) from None
        try:
            tier_model = _model(tier_model or model)
        except argparse.ArgumentTypeError as exc:
            raise ValueError(f"bad --tier {text!r}; {exc}") from None
        specs.append(
            ReplicaSpec(model=tier_model, backend=backend, count=count)
        )
    return specs


def _deploy_cluster(args: argparse.Namespace, texts: Sequence[str]):
    from repro.cluster import deploy_cluster

    return deploy_cluster(
        _replicas(texts, args.model),
        router=args.router,
        slo_ms=args.slo_ms,
        max_rows=args.max_rows,
        seed=args.seed,
    )


def _serve_window(args: argparse.Namespace, surface, process: str, *salt):
    """Serve one seeded ``--duration-s`` window of ``process`` arrivals.

    The offered rate is ``--rate``, or ``--utilisation`` x the surface's
    capacity.  Returns ``(capacity, rate, arrivals, result)``.
    """
    import numpy as np

    from repro.serving.arrivals import arrivals_for
    from repro.serving.lab import lab_seed

    capacity = surface.perf().throughput_items_per_s
    rate = args.rate if args.rate is not None else args.utilisation * capacity
    rng = np.random.default_rng(lab_seed(args.seed, surface.backend, *salt))
    arrivals = arrivals_for(process, rng, rate, args.duration_s)
    return capacity, rate, arrivals, surface.serve(arrivals)


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments.harness import EXPERIMENTS, render_one

    names = args.names or list(EXPERIMENTS)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        raise ValueError(
            f"unknown experiment(s) {unknown}; available: {sorted(EXPERIMENTS)}"
        )
    for name in names:
        print(render_one(EXPERIMENTS[name]()))
        print()
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.core.planner import PlannerConfig
    from repro.memory.spec import u280_memory_system
    from repro.memory.timing import MemoryTimingModel

    memory = u280_memory_system(
        hbm_channels=args.hbm_channels, onchip_banks=args.onchip_banks
    )
    planner_config = PlannerConfig(
        enable_cartesian=not args.no_cartesian,
        max_candidate_rows=args.max_candidate_rows,
        max_product_bytes=args.max_product_bytes,
    )
    session = _deploy(
        args,
        memory=memory,
        timing=MemoryTimingModel(axi=memory.axi),
        planner_config=planner_config,
    )
    plan = getattr(session, "plan", None)
    if args.show_merges and plan is None:
        raise ValueError(
            f"--show-merges needs a planning backend, not {args.backend!r}"
        )
    summary = session.summary()
    merges = None
    if args.show_merges:
        merges = []
        for group in plan.merge_groups:
            spec = plan.placement.group_spec(group)
            merges.append(
                {
                    "member_ids": list(group.member_ids),
                    "rows": spec.rows,
                    "dim": spec.dim,
                    "nbytes": spec.nbytes,
                }
            )
    if args.json:
        payload = dict(summary)
        if merges is not None:
            payload["merges"] = merges
        return _emit(payload, default=str)
    model = session.model
    print(f"model: {model.name} ({model.num_tables} tables, "
          f"{model.total_embedding_bytes / 1e9:.2f} GB), "
          f"backend: {session.backend}")
    for key, value in summary.items():
        print(f"  {key}: {value}")
    for merge in merges or ():
        print(
            f"  merge {tuple(merge['member_ids'])}: {merge['rows']} rows "
            f"x dim {merge['dim']} = {merge['nbytes'] / 2**20:.1f} MiB"
        )
    return 0


def _cmd_infer(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.models.workload import QueryGenerator

    session = _deploy(args, precision=args.precision, seed=args.seed)
    queries = QueryGenerator(session.model, seed=args.seed).batch(args.batch)
    preds = session.infer(queries)
    reference = session.reference().infer(queries)
    max_err = float(np.abs(preds - reference).max())
    perf = session.perf()
    if args.json:
        return _emit(
            {
                "model": session.model.name,
                "backend": session.backend,
                "precision": session.precision,
                "batch": args.batch,
                "predictions": [float(p) for p in preds[: args.show]],
                "mean_ctr": float(preds.mean()),
                "max_abs_error_vs_fp32": max_err,
                "perf": perf.as_dict(),
            }
        )
    print(f"model: {session.model.name}, backend: {session.backend} "
          f"({session.precision}), batch: {args.batch}")
    print(f"  CTR[:{args.show}] = {np.round(preds[: args.show], 4)}")
    print(f"  mean CTR = {preds.mean():.4f}")
    print(f"  max |pred - fp32 reference| = {max_err:.2e}")
    print(f"  latency: {perf.latency_us:.1f} us/query  "
          f"throughput: {perf.throughput_items_per_s:,.0f} items/s  "
          f"bottleneck: {perf.bottleneck}")
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    from repro.deploy.capacity import plan_fleet_for

    estimates = [
        _deploy(args, name, precision=args.precision).perf()
        for name in args.backend or ["fpga", "cpu"]
    ]
    fleets = plan_fleet_for(args.qps, estimates, headroom=args.headroom)
    if args.json:
        return _emit({name: fleet.as_dict() for name, fleet in fleets.items()})
    print(f"fleet sizing for {args.qps:,.0f} queries/s ({args.model}):")
    width = max(len(n) for n in fleets)
    for name, fleet in fleets.items():
        print(
            f"  {name:>{width}}: {fleet.nodes:4d} nodes  "
            f"${fleet.usd_per_hour:8.2f}/h  "
            f"${fleet.usd_per_million_queries:.4f}/1M  "
            f"{fleet.latency_ms:9.3f} ms/query  "
            f"{fleet.utilisation:.0%} utilised"
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.runtime import available_backends
    from repro.serving.lab import (
        DEFAULT_PROCESSES,
        DEFAULT_UTILISATIONS,
        session_lab,
    )

    processes = tuple(args.process or DEFAULT_PROCESSES)
    sweep_knobs = {
        "processes": processes,
        "rates": tuple(args.rate) if args.rate else None,
        "utilisations": tuple(args.utilisation or DEFAULT_UTILISATIONS),
        "duration_s": args.duration_s,
        "slo_ms": args.slo_ms,
        "slo_percentile": args.percentile,
        "seed": args.seed,
    }
    report: dict[str, object] = {}
    for name in args.backend or available_backends():
        try:
            session = _deploy(args, name, seed=args.seed)
        except ValueError as exc:
            if args.backend:
                raise
            # Sweeping every registered backend: some cannot deploy this
            # model as-is (fpga-compressed needs --max-rows to fit its
            # 256 MiB materialisation limit) — skip them with a note
            # rather than discarding the whole lab.
            print(f"{exc}\nserve {args.model}/{name}: skipped (cannot "
                  "deploy; see error above)", file=sys.stderr)
            continue
        print(f"serve {args.model}/{name} ...", file=sys.stderr)
        lab = session_lab(session, **sweep_knobs)
        lab["fleet"] = session.fleet(args.qps, headroom=args.headroom).as_dict()
        try:
            lab["fleet_sla"] = session.fleet_sla(
                args.qps,
                slo_ms=args.slo_ms,
                slo_percentile=args.percentile,
                duration_s=args.duration_s,
                headroom=args.headroom,
                seed=args.seed,
            ).as_dict()
        except ValueError as exc:
            # The SLO sits below this engine's latency floor: no fleet
            # size can meet it, which is itself a lab result.
            lab["fleet_sla"] = None
            print(f"  fleet-sla: {exc}", file=sys.stderr)
        report[name] = lab
    if not report:
        raise ValueError("no backend could deploy this model (see errors above)")
    if args.json:
        return _emit(
            {
                "model": args.model,
                "slo_ms": args.slo_ms,
                "slo_percentile": args.percentile,
                "duration_s": args.duration_s,
                "seed": args.seed,
                "target_qps": args.qps,
                "processes": list(processes),
                "backends": report,
            }
        )
    print(
        f"serving lab: {args.model}, p{args.percentile:g} SLO "
        f"{args.slo_ms:g} ms, {args.duration_s:g}s windows"
    )
    for name, lab in report.items():
        print(f"\n{name}:")
        for process, curve in lab["processes"].items():
            cap = curve["sla_capacity_per_s"]
            knee = curve["knee_rate_per_s"]
            knee_text = f"{knee:,.0f}/s" if knee is not None else "-"
            print(
                f"  {process}: SLA capacity {cap:,.0f}/s, knee {knee_text}"
            )
            for p in curve["points"]:
                print(
                    f"    {p['rate_per_s']:>12,.0f}/s "
                    f"(u={p['utilisation']:4.2f}): "
                    f"p50 {p['p50_ms']:8.3f}  p99 {p['p99_ms']:8.3f}  "
                    f"p99.9 {p['p999_ms']:8.3f} ms  "
                    f"SLA {p['sla_attainment']:6.1%}"
                )
        fleet = lab["fleet"]
        fleet_sla = lab["fleet_sla"]
        if fleet_sla is None:
            print(
                f"  fleet @ {args.qps:,.0f} qps: {fleet['nodes']} nodes "
                f"(throughput); SLO unattainable at any size"
            )
        else:
            bound = " (SLO-bound)" if fleet_sla["slo_bound"] else ""
            print(
                f"  fleet @ {args.qps:,.0f} qps: {fleet['nodes']} nodes "
                f"(throughput) -> {fleet_sla['nodes']} nodes "
                f"(p{args.percentile:g} <= {args.slo_ms:g} ms, "
                f"${fleet_sla['usd_per_hour']:,.2f}/h){bound}"
            )
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    from repro.cluster import Cluster

    tier_texts = args.tier or ["fpga", "gpu", "cpu"]
    cluster = _deploy_cluster(args, tier_texts)
    capacity, rate, arrivals, result = _serve_window(
        args, cluster, args.process, args.process, "cli"
    )
    fleet = cluster.fleet(args.qps, headroom=args.headroom)

    # The routed story needs its null hypothesis: the same traffic on a
    # homogeneous fleet of each tier at the same total node count,
    # reusing the already-built sessions (replica slots share engines).
    # Tiers are keyed per distinct build — two same-backend tiers with
    # different models/row-caps each get their own comparison row,
    # disambiguated by model label.
    singles: dict[str, object] = {}
    nodes = len(cluster)
    tier_builds: dict[int, tuple] = {}
    for session, label in zip(cluster.replicas, cluster.model_labels):
        tier_builds.setdefault(id(session), (session, label))
    backend_tally: dict[str, int] = {}
    for session, _label in tier_builds.values():
        backend_tally[session.backend] = (
            backend_tally.get(session.backend, 0) + 1
        )
    for session, label in tier_builds.values():
        key = (
            session.backend
            if backend_tally[session.backend] == 1
            else f"{session.backend}:{label}"
        )
        while key in singles:  # same backend *and* label: count them off
            key += "'"
        homo = Cluster(
            [session] * nodes, "round-robin", slo_ms=args.slo_ms
        )
        homo_result = homo.serve(arrivals)
        singles[key] = {
            "nodes": nodes,
            "usd_per_hour": homo.usd_per_hour,
            "p50_ms": homo_result.p50_ms,
            "p99_ms": homo_result.p99_ms,
            "sla_attainment": homo_result.sla_attainment(args.slo_ms),
        }
    payload = {
        "model": args.model,
        "tiers": list(tier_texts),
        "router": args.router,
        "slo_ms": args.slo_ms,
        "process": args.process,
        "duration_s": args.duration_s,
        "seed": args.seed,
        "rate_per_s": rate,
        "capacity_per_s": capacity,
        "cluster": cluster.summary(),
        "result": result.as_dict(args.slo_ms),
        "fleet": fleet.as_dict(),
        "singles": singles,
    }
    if args.json:
        return _emit(payload)
    print(
        f"cluster {cluster.backend}: router {args.router}, "
        f"{len(cluster)} replicas, capacity {capacity:,.0f}/s"
    )
    print(
        f"  {args.process} @ {rate:,.0f}/s for {args.duration_s:g}s "
        f"({result.count:,} queries, p99 SLO {args.slo_ms:g} ms)"
    )
    blended = payload["result"]["blended"]
    print(
        f"  blended: p50 {blended['p50_ms']:8.3f}  "
        f"p99 {blended['p99_ms']:8.3f}  p99.9 {blended['p999_ms']:8.3f} ms  "
        f"SLA {blended['sla_attainment']:6.1%}  "
        f"${result.usd_per_million_queries:.4f}/1M"
    )
    for name, tier in payload["result"]["tiers"].items():
        if tier["queries"]:
            detail = (
                f"p99 {tier['p99_ms']:8.3f} ms  "
                f"SLA {tier['sla_attainment']:6.1%}"
            )
        else:
            detail = "idle"
        print(
            f"  {name:>16}: {tier['queries']:>8,} queries "
            f"({tier['share']:6.1%})  {detail}"
        )
    print(f"  fleet @ {args.qps:,.0f} qps: {fleet.nodes} cluster(s), "
          f"${fleet.usd_per_hour:,.2f}/h")
    print(f"  same traffic, homogeneous {nodes}-node fleets:")
    for name, single in singles.items():
        print(
            f"  {name:>16} x{nodes}: p99 {single['p99_ms']:10.3f} ms  "
            f"SLA {single['sla_attainment']:6.1%}  "
            f"${single['usd_per_hour']:7.2f}/h"
        )
    return 0


def _cmd_plan_shards(args: argparse.Namespace) -> int:
    from repro.distplan import deploy_sharded

    tier_texts = args.tier or ["fpga:4"]
    specs = _replicas(tier_texts, args.model)
    for text, spec in zip(tier_texts, specs):
        if spec.model != args.model:
            raise ValueError(
                f"plan-shards serves one model across the cluster; "
                f"--tier {text!r} names a different model "
                f"({spec.model!r} != {args.model!r})"
            )
    cluster = deploy_sharded(
        args.model,
        specs,
        args.strategy,
        slo_ms=args.slo_ms,
        max_rows=args.max_rows,
        seed=args.seed,
        node_capacity_bytes=(
            None if args.node_gb is None else int(args.node_gb * 1024**3)
        ),
    )
    capacity, rate, _, result = _serve_window(
        args, cluster, "poisson", "plan-shards"
    )
    plan = cluster.plan
    payload = {
        "model": args.model,
        "tiers": list(tier_texts),
        "strategy": plan.strategy,
        "slo_ms": args.slo_ms,
        "duration_s": args.duration_s,
        "seed": args.seed,
        "rate_per_s": rate,
        "capacity_per_s": capacity,
        "plan": plan.as_dict(),
        "cluster": cluster.summary(),
        "result": result.as_dict(args.slo_ms),
    }
    if args.json:
        return _emit(payload)
    print(
        f"sharding plan for {args.model} on {len(cluster)} node(s): "
        f"strategy {plan.strategy}, fan-out {plan.fanout}, "
        f"{len(plan.shards)} shard(s) "
        f"({len(plan.sharded_table_ids())} split table(s)), "
        f"{plan.as_dict()['total_gb']:.2f} GB total"
    )
    for node in payload["plan"]["nodes"]:
        print(
            f"  node {node['node']:>3} ({node['backend']:>14}): "
            f"{node['bytes'] / 1024**3:8.3f} / {node['capacity_gb']:8.2f} GB "
            f"({node['utilisation']:6.1%})  {node['shards']:4d} shard(s)"
        )
    blended = payload["result"]["blended"]
    print(
        f"  fan-out serving @ {rate:,.0f}/s for {args.duration_s:g}s "
        f"({result.count:,} queries): p50 {blended['p50_ms']:8.3f}  "
        f"p99 {blended['p99_ms']:8.3f} ms  "
        f"SLA {blended['sla_attainment']:6.1%}  "
        f"${result.usd_per_million_queries:.4f}/1M"
    )
    return 0


def _cmd_autoscale(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.autoscale import available_scalers, compare_policies
    from repro.serving.arrivals import trace_for
    from repro.serving.lab import lab_seed

    session = _deploy(args, seed=args.seed)
    per_node = session.perf().throughput_items_per_s
    rate = args.rate if args.rate is not None else args.nodes_mean * per_node
    # Shapes and their default parameters live in trace_for; only the
    # seeding of the bursty shape's modulation path is decided here.
    rng = np.random.default_rng(lab_seed(args.seed, "autoscale-trace"))
    trace = trace_for(args.trace, rng, rate, args.windows * args.interval_s)
    results = compare_policies(
        session,
        trace,
        args.policy or list(available_scalers()),
        progress=lambda name: print(
            f"autoscale {args.model}/{session.backend}/{name} ...",
            file=sys.stderr,
        ),
        slo_ms=args.slo_ms,
        slo_percentile=args.percentile,
        windows=args.windows,
        provision_delay_s=args.provision_delay_s,
        cooldown_s=args.cooldown_s,
        min_nodes=args.min_nodes,
        max_nodes=args.max_nodes,
        seed=args.seed,
    )
    report = {name: result.as_dict() for name, result in results.items()}
    if args.json:
        return _emit(
            {
                "model": args.model,
                "backend": session.backend,
                "trace": args.trace,
                "rate_per_s": rate,
                "windows": args.windows,
                "interval_s": args.interval_s,
                "slo_ms": args.slo_ms,
                "slo_percentile": args.percentile,
                "seed": args.seed,
                "policies": report,
            }
        )
    print(
        f"autoscale {args.model}/{session.backend}: {args.trace} trace @ "
        f"{rate:,.0f}/s mean, {args.windows} x {args.interval_s:g}s "
        f"windows, p{args.percentile:g} SLO {args.slo_ms:g} ms"
    )
    for name, result in report.items():
        agg = result["aggregate"]
        nodes_line = " ".join(
            str(w["nodes"]) for w in result["timeline"]
        )
        print(f"\n{name}:")
        print(f"  nodes/window: {nodes_line}")
        print(
            f"  mean {agg['mean_nodes']:6.2f} nodes (peak "
            f"{agg['peak_nodes']}, {agg['scaling_actions']} resizes)  "
            f"SLA {agg['sla_attainment']:7.2%}  "
            f"${agg['usd_per_hour']:8.2f}/h  "
            f"${agg['usd_per_million_queries']:.4f}/1M"
        )
        static = result["static_baseline"]
        if static is None:
            print("  static baseline: SLO unattainable at any fleet size")
        else:
            savings = agg["usd_savings_vs_static"]
            print(
                f"  vs static x{static['nodes']} (peak-sized): "
                f"SLA {static['sla_attainment']:7.2%}  "
                f"${static['usd_per_hour']:8.2f}/h  "
                f"elastic saves {savings:+.1%}"
            )
    return 0


def _cmd_tiers(args: argparse.Namespace) -> int:
    from repro.memory import scaled_tier_hierarchy
    from repro.serving.lab import DEFAULT_UTILISATIONS, tiering_lab
    from repro.serving.popularity import PopularityModel

    session = _deploy(args, seed=args.seed)
    rows = sum(t.rows for t in session.model.tables)
    hierarchy = scaled_tier_hierarchy(
        rows,
        policy=args.policy,
        hot_fraction=args.hot_fraction,
        warm_accesses=args.warm_accesses,
        sim_queries=args.sim_queries,
    )
    session.attach_tiers(
        hierarchy,
        popularity=PopularityModel(
            rows=rows, alpha=args.alpha, drift_rows_per_s=args.drift
        ),
        seed=args.seed,
    )
    block = tiering_lab(
        session,
        process=args.process,
        utilisations=tuple(args.utilisation or DEFAULT_UTILISATIONS),
        duration_s=args.duration_s,
        slo_ms=args.slo_ms,
        slo_percentile=args.percentile,
        seed=args.seed,
    )
    payload = {"model": args.model, "seed": args.seed, **block}
    if args.json:
        return _emit(payload)
    steady = payload["steady_state"]
    print(
        f"tiered storage: {args.model}/{session.backend}, "
        f"policy {args.policy}, {rows:,} rows "
        f"(alpha={args.alpha:g}, drift={args.drift:g} rows/s)"
    )
    print("  tiers:")
    for tier in payload["hierarchy"]["tiers"]:
        print(
            f"    {tier['name']:>6}: {tier['capacity_rows']:>12,} rows  "
            f"{tier['access_ns']:10,.0f} ns"
        )
    print(
        f"  steady state: hit rate {steady['hit_rate']:.1%}, "
        f"effective lookup {steady['effective_lookup_ns']:,.0f} ns "
        f"(hot {steady['hot_lookup_ns']:,.0f} ns, "
        f"{steady['lookups_per_query']} lookups/query)"
    )
    for label in ("warm", "cold"):
        curve = payload[label]
        cap = curve["sla_capacity_per_s"]
        print(f"  {label}: SLA capacity {cap:,.0f}/s")
        for p in curve["points"]:
            print(
                f"    {p['rate_per_s']:>12,.0f}/s "
                f"(u={p['utilisation']:4.2f}): "
                f"p50 {p['p50_ms']:8.3f}  p99 {p['p99_ms']:8.3f} ms  "
                f"SLA {p['sla_attainment']:6.1%}"
            )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.telemetry import SpanRecorder

    if args.tier:
        surface = _deploy_cluster(args, args.tier)
    else:
        surface = _deploy(args, seed=args.seed)
    hub = surface.telemetry
    if args.spans:
        hub.spans = SpanRecorder(sample_rate=args.span_rate, seed=args.seed)
    _, rate, _, _ = _serve_window(
        args, surface, args.process, args.process, "stats"
    )
    if args.json:
        payload = {
            "model": args.model,
            "backend": surface.backend,
            "process": args.process,
            "duration_s": args.duration_s,
            "rate_per_s": rate,
            "seed": args.seed,
            "telemetry": hub.snapshot(),
        }
        return _emit(payload, sort_keys=True)
    print(
        f"telemetry: {args.model}/{surface.backend}, "
        f"{args.process} @ {rate:,.0f}/s for {args.duration_s:g}s "
        f"(seed {args.seed})"
    )
    print(hub.render(exporter=args.exporter))
    return 0


#: ``repro bench`` flag (dest) -> the BenchConfig field it overrides
#: when given.
_BENCH_FIELDS = {
    "model": "models",
    "backend": "backends",
    "batch": "batches",
    "cluster_backend": "cluster_backends",
    "cluster_router": "cluster_router",
    "autoscale_policy": "autoscale_policy",
    "autoscale_windows": "autoscale_windows",
    "sharding_strategy": "sharding_strategy",
    "sharding_nodes": "sharding_nodes",
    "tiering_policy": "tiering_policy",
    "tiering_alpha": "tiering_alpha",
    "tiering_hot_fraction": "tiering_hot_fraction",
    "max_rows": "max_rows",
    "name": "name",
    "seed": "seed",
    "qps": "target_qps",
    "stamp_wall_clock_budgets": "wall_clock_budget_multiplier",
}

#: ``repro bench --no-<block>`` -> (BenchConfig field, value that omits
#: the block from the artifact).
_BENCH_OFF = {
    "cluster": ("cluster_backends", ()),
    "autoscale": ("autoscale_policy", ""),
    "sharding": ("sharding_strategy", ""),
    "tiering": ("tiering_policy", ""),
    "telemetry": ("telemetry", False),
}


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import (
        BenchConfig,
        BenchSchemaError,
        compare_payloads,
        config_summary,
        default_output_path,
        regressions,
        run_bench,
        validate_file,
        write_payload,
    )

    if args.fail_on_regression is not None and not args.compare:
        raise ValueError(
            "--fail-on-regression needs --compare OLD.json to diff against"
        )
    baseline = None
    if args.compare:
        try:
            baseline = validate_file(args.compare)
        except BenchSchemaError as exc:
            raise ValueError(f"--compare baseline rejected: {exc}") from None
    overrides = {
        field: tuple(value) if isinstance(value, list) else value
        for dest, field in _BENCH_FIELDS.items()
        if (value := getattr(args, dest)) is not None
    }
    if args.backend and args.cluster_backend is None:
        # A restricted sweep should not silently build engines outside
        # it: the cluster block follows the --backend filter unless the
        # tiers are chosen explicitly.
        overrides["cluster_backends"] = tuple(args.backend)
    overrides.update(
        off for block, off in _BENCH_OFF.items() if getattr(args, f"no_{block}")
    )
    config = (BenchConfig.quick_config if args.quick else BenchConfig)(
        **overrides
    )

    # Progress always goes to stderr so that with --json stdout carries
    # only the JSON document (CI pipes it into the schema validator).
    def log(message: str) -> None:
        print(message, file=sys.stderr)

    log(config_summary(config))
    payload = run_bench(config, log=log)
    regression_lines: list[str] = []
    if baseline is not None:
        payload["comparison"] = compare_payloads(
            baseline,
            payload,
            wall_clock_budget_scale=args.wall_clock_budget_scale,
        )
        regression_lines = regressions(
            payload["comparison"],
            threshold_pct=(
                5.0 if args.fail_on_regression is None
                else args.fail_on_regression
            ),
        )
    out_path = args.output or default_output_path(config.name)
    write_payload(payload, out_path)
    log(f"wrote {out_path}")
    if args.json:
        _emit(payload)
    else:
        print(f"benchmark sweep {config.name!r} "
              f"({payload['wall_clock_s']:.2f}s) -> {out_path}")
        width = max(
            len(f"{r['model']}/{r['backend']}") for r in payload["results"]
        )
        for r in payload["results"]:
            perf = r["perf"]
            print(
                f"  {r['model'] + '/' + r['backend']:>{width}}: "
                f"{perf['latency_us']:12,.1f} us/query  "
                f"{perf['throughput_items_per_s']:12,.0f} items/s  "
                f"${perf['usd_per_million_queries']:.4f}/1M  "
                f"{r['fleet']['nodes']:4d} nodes @ "
                f"{payload['config']['target_qps']:,.0f} qps"
            )
        if args.compare:
            baseline_name = payload["comparison"]["baseline_name"]
            if regression_lines:
                print(f"regressions vs {baseline_name!r} ({args.compare}):")
                for line in regression_lines:
                    print(f"  {line}")
            else:
                print(f"no regressions vs {baseline_name!r} ({args.compare})")
    # Exit 1 when --fail-on-regression is armed and deltas trip it.
    if args.fail_on_regression is None or not regression_lines:
        return 0
    for line in regression_lines:
        log(f"regression: {line}")
    log(
        f"{len(regression_lines)} regression(s) worse than "
        f"{args.fail_on_regression:g}% vs {args.compare}"
    )
    return 1


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import run_lint

    # --select is repeatable, and each value may list codes by comma.
    select = [
        code.strip()
        for value in args.select or ()
        for code in value.split(",")
        if code.strip()
    ]
    report = run_lint(args.paths, select=select or None)
    if args.json:
        _emit(report.as_dict(), sort_keys=True)
    else:
        print(report.render())
    return 0 if report.clean else 1


def _registries() -> dict[str, list[str]]:
    """Every plugin registry's names, keyed as ``repro info --json``
    reports them; ``info`` and the ``--help`` epilogs read this one
    listing."""
    from repro.analysis import available_rules
    from repro.autoscale import available_scalers
    from repro.cluster import available_policies
    from repro.distplan import available_strategies
    from repro.memory import available_cache_policies
    from repro.runtime import available_backends
    from repro.telemetry import available_exporters

    return {
        "backends": list(available_backends()),
        "routing_policies": list(available_policies()),
        "scaler_policies": list(available_scalers()),
        "sharding_strategies": list(available_strategies()),
        "cache_policies": list(available_cache_policies()),
        "telemetry_exporters": list(available_exporters()),
        "lint_rules": list(available_rules()),
    }


def _cmd_info(args: argparse.Namespace) -> int:
    import repro
    from repro.experiments.harness import EXPERIMENTS
    from repro.models.spec import MODEL_FACTORIES

    registries = _registries()
    models = {}
    for name, factory in MODEL_FACTORIES.items():
        m = factory()
        models[name] = {
            "tables": m.num_tables,
            "feature_len": m.feature_len,
            "embedding_gb": m.total_embedding_bytes / 1e9,
        }
    if args.json:
        return _emit(
            {
                "version": repro.__version__,
                **registries,
                "models": models,
                "experiments": list(EXPERIMENTS),
            }
        )
    print(f"repro {repro.__version__} — MicroRec (MLSys'21) reproduction\n")
    for key, names in registries.items():
        print(f"{key.replace('_', ' ')}: {', '.join(names)}")
    print("\nproduction models (+ benchmark family):")
    for name, m in models.items():
        print(
            f"  {name}: {m['tables']} tables, feat {m['feature_len']}, "
            f"{m['embedding_gb']:.2f} GB"
        )
    print(f"\nexperiments: {', '.join(EXPERIMENTS)}")
    return 0


def _registry_epilog() -> str:
    """Live registry listing for ``--help`` epilogs.

    Built from the registries at parser-construction time rather than
    hard-coded strings, so backends or routing policies registered by
    plugins (or future PRs) appear in the help text automatically.
    """
    from repro.models.spec import MODEL_FACTORIES

    listing = {"models": list(MODEL_FACTORIES), **_registries()}
    return "\n".join(
        f"registered {key.replace('_', ' ')}: {' | '.join(names)}"
        for key, names in listing.items()
    )


def _shared_flags(listed: dict[str, str]) -> dict[str, dict]:
    """The flags several verbs take: flag -> argparse keywords.

    ``listed`` holds each name list the help texts quote, joined.
    """
    from repro.serving.arrivals import ARRIVAL_PROCESSES

    return {
        "--backend": {"help": f"inference backend ({listed['backends']})"},
        "--tier": {
            "action": "append",
            "default": None,
            "metavar": "BACKEND[:COUNT[:MODEL]]",
        },
        "--router": {
            "default": "sla-aware",
            "help": f"routing policy ({listed['routing_policies']})",
        },
        "--process": {
            "type": _known("arrival process", ARRIVAL_PROCESSES),
            "default": "poisson",
            "metavar": "NAME",
            "help": "arrival process of the served traffic "
            f"({listed['arrival_processes']}); default poisson",
        },
        "--utilisation": {
            "type": _positive,
            "default": 0.8,
            "metavar": "FRAC",
            "help": "offered load as a fraction of capacity "
            "(default %(default)s)",
        },
        "--rate": {
            "type": _positive,
            "default": None,
            "metavar": "QPS",
            "help": "absolute offered rate in queries/s (overrides "
            "--utilisation)",
        },
        "--slo-ms": {
            "type": float,
            "default": 30.0,
            "help": "latency SLO (default 30 ms — 'tens of milliseconds', "
            "sec. 1)",
        },
        "--percentile": {
            "type": float,
            "default": 99.0,
            "help": "percentile the SLO is judged at (default p99)",
        },
        "--duration-s": {
            "type": float,
            "default": 0.2,
            "help": "simulated serving window (default 0.2 s)",
        },
        "--qps": {
            "type": float,
            "default": 1_000_000.0,
            "help": "fleet-sizing target load (queries per second)",
        },
        "--headroom": {
            "type": float,
            "default": 0.7,
            "help": "utilisation cap of fleet sizing (default 0.7)",
        },
        "--max-rows": {
            "type": int,
            "default": None,
            "help": "row-cap tables before deployment (required for "
            "fpga-compressed, whose codes must fit 256 MiB)",
        },
        "--seed": {"type": _non_negative_int, "default": 0},
        "--json": {
            "action": "store_true",
            "help": "print one strict JSON document on stdout",
        },
    }


def build_parser() -> argparse.ArgumentParser:
    from repro._version import __version__
    from repro.analysis import rules_epilog
    from repro.core.planner import PlannerConfig
    from repro.models.spec import MODEL_FACTORIES
    from repro.serving.arrivals import ARRIVAL_PROCESSES, TRACE_SHAPES
    from repro.serving.popularity import DEFAULT_ALPHA

    registries = _registries()
    listed = {
        key: " | ".join(names)
        for key, names in {
            "models": MODEL_FACTORIES,
            "arrival_processes": ARRIVAL_PROCESSES,
            "trace_shapes": TRACE_SHAPES,
            **registries,
        }.items()
    }
    flags = _shared_flags(listed)
    epilog = _registry_epilog()

    def add(parser, *names: str, **overrides) -> None:
        """Add shared flags by name, ``overrides`` applied to each."""
        for name in names:
            parser.add_argument(name, **{**flags[name], **overrides})

    parser = argparse.ArgumentParser(
        prog="repro",
        description=__doc__,
        epilog=epilog,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {__version__}",
        help="print the package version and exit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def verb(name, func, summary, *, model=listed["models"], **kw):
        """A verb's parser, with the MODEL positional unless ``model``
        is ``None``."""
        if "epilog" in kw:
            kw["formatter_class"] = argparse.RawDescriptionHelpFormatter
        p = sub.add_parser(name, help=summary, **kw)
        if model is not None:
            p.add_argument("model", type=_model, help=model)
        p.set_defaults(func=func)
        return p

    p = verb("experiments", _cmd_experiments,
             "regenerate paper tables/figures", model=None)
    p.add_argument("names", nargs="*", help="experiment names (default: all)")

    p = verb("plan", _cmd_plan, "run Algorithm 1 on a model")
    add(p, "--backend", default="fpga")
    planner = PlannerConfig()
    p.add_argument("--no-cartesian", action="store_true")
    p.add_argument(
        "--max-candidate-rows", type=int, default=planner.max_candidate_rows,
        help="rule 1 cutoff: largest table eligible for Cartesian merging",
    )
    p.add_argument(
        "--max-product-bytes", type=int, default=planner.max_product_bytes,
        help="rule 2/3 cutoff: largest allowed merged-product footprint",
    )
    add(p, "--max-rows")
    p.add_argument("--hbm-channels", type=int, default=32)
    p.add_argument("--onchip-banks", type=int, default=8)
    p.add_argument("--show-merges", action="store_true")
    add(p, "--json")

    p = verb("infer", _cmd_infer, "deploy a backend and run real inference")
    add(p, "--backend", default="fpga")
    p.add_argument(
        "--precision", default=None,
        help="fp32 | fixed16 | fixed32 (backend default if omitted)",
    )
    p.add_argument("--batch", type=_positive_int, default=128)
    add(p, "--max-rows", "--seed")
    p.add_argument("--show", type=_non_negative_int, default=5,
                   help="predictions to print")
    add(p, "--json")

    p = verb("fleet", _cmd_fleet, "size engine fleets for a load")
    p.add_argument("qps", type=float, help="target queries per second")
    add(p, "--backend", action="append", default=None)
    add(p, "--max-rows")
    p.add_argument(
        "--precision", default=None,
        help="number format for every sized backend (backend defaults if "
        "omitted: fixed16 on fpga, fp32 on cpu)",
    )
    add(p, "--headroom", "--json")

    p = verb("serve", _cmd_serve, "trace-driven serving lab: latency-under-"
             "load curves + SLA-aware fleet sizing")
    add(p, "--backend", action="append", default=None)
    add(p, "--process", action="append", default=None,
        help=f"arrival process to sweep ({listed['arrival_processes']}); "
        "repeatable; default: poisson diurnal bursty")
    sweep = "(repeatable; default: 0.2 0.4 0.6 0.8 0.95 1.1)"
    add(p, "--utilisation", action="append", default=None,
        help=f"offered load as a fraction of per-node throughput {sweep}")
    add(p, "--rate", action="append",
        help="absolute offered rate in queries/s (repeatable; overrides "
        "--utilisation)")
    add(p, "--slo-ms", "--percentile", "--duration-s", "--qps", "--headroom",
        "--max-rows", "--seed", "--json")

    p = verb("cluster", _cmd_cluster, "deploy a routed heterogeneous cluster "
             "and serve traffic through it", model="default model for every "
             "tier", epilog=epilog)
    add(p, "--tier", help="one replica tier (repeatable; default: fpga gpu "
        "cpu, one replica each)")
    add(p, "--router", "--process", "--utilisation", "--rate")
    add(p, "--slo-ms",
        help="latency SLO the sla-aware router (and reporting) uses")
    add(p, "--duration-s")
    add(p, "--qps", help="fleet-sizing target load (whole clusters as the "
        "unit)")
    add(p, "--headroom")
    add(p, "--max-rows",
        help="row-cap tables before deployment (applies to every tier)")
    add(p, "--seed", "--json")

    p = verb("plan-shards", _cmd_plan_shards, "shard one model across a "
             "cluster and serve it fan-out/gather", epilog=epilog)
    add(p, "--tier", metavar="BACKEND[:COUNT]",
        help="one node tier (repeatable; default: fpga:4); every node hosts "
        "shards of MODEL")
    p.add_argument(
        "--strategy", default="auto",
        help=f"sharding strategy ({listed['sharding_strategies']}); "
        "default auto: enumerate all and keep the best-scoring plan",
    )
    p.add_argument(
        "--node-gb", type=_positive, default=None, metavar="GB",
        help="override every node's DRAM budget (default: the backend "
        "family's real capacity, e.g. ~40 GB per fpga board)",
    )
    add(p, "--utilisation", default=0.6)
    add(p, "--rate", "--slo-ms", "--duration-s")
    add(p, "--max-rows", help="row-cap tables before deployment (planning "
        "still uses the full model spec)")
    add(p, "--seed", "--json")

    p = verb("autoscale", _cmd_autoscale, "drive an elastic fleet through a "
             "rate trace under every scaler policy", epilog=epilog)
    add(p, "--backend", default="gpu")
    p.add_argument(
        "--policy", action="append", default=None, metavar="NAME",
        type=_known("scaler policy", registries["scaler_policies"]),
        help=f"scaler policy ({listed['scaler_policies']}); repeatable; "
        "default: every registered policy",
    )
    p.add_argument(
        "--trace", default="diurnal", metavar="NAME",
        type=_known("trace", TRACE_SHAPES),
        help=f"offered-load shape ({listed['trace_shapes']}); "
        "default diurnal",
    )
    add(p, "--rate", help="base aggregate rate of the trace in queries/s "
        "(default: --nodes-mean x one node's sustained throughput)")
    p.add_argument(
        "--nodes-mean", type=_positive, default=8.0, metavar="N",
        help="base rate expressed in nodes' worth of capacity when "
        "--rate is omitted (default 8)",
    )
    p.add_argument(
        "--windows", type=_positive_int, default=24,
        help="number of control windows over the horizon (default 24)",
    )
    p.add_argument(
        "--interval-s", type=_positive, default=0.05,
        help="control interval / simulated window length (default 0.05 s)",
    )
    p.add_argument(
        "--provision-delay-s", type=float, default=None,
        help="lag before a scale-up serves traffic (default: one "
        "control interval)",
    )
    p.add_argument(
        "--cooldown-s", type=float, default=0.0,
        help="minimum time between scaling actions (default 0)",
    )
    p.add_argument("--min-nodes", type=int, default=1)
    p.add_argument("--max-nodes", type=int, default=1_000_000)
    add(p, "--slo-ms", "--percentile", "--max-rows", "--seed", "--json")

    p = verb("tiers", _cmd_tiers, "tiered embedding storage: warm-vs-cold "
             "serving curves", epilog=epilog)
    add(p, "--backend", default="fpga")
    p.add_argument(
        "--policy", default="lru",
        type=_known("cache policy", registries["cache_policies"]),
        help=f"cache policy of the caching tiers ({listed['cache_policies']})",
    )
    p.add_argument(
        "--alpha", type=float, default=DEFAULT_ALPHA,
        help="Zipf skew of per-query row popularity "
        f"(default {DEFAULT_ALPHA}; <= 0 means uniform)",
    )
    p.add_argument(
        "--drift", type=float, default=0.0, metavar="ROWS_PER_S",
        help="popularity drift: hot-set rotation speed (default 0)",
    )
    p.add_argument(
        "--hot-fraction", type=float, default=0.125, metavar="FRAC",
        help="fraction of the working set the hot tier holds "
        "(default 0.125)",
    )
    add(p, "--process")
    add(p, "--utilisation", action="append", default=None,
        help=f"offered load as a fraction of per-node throughput {sweep}")
    add(p, "--slo-ms", "--percentile", "--duration-s")
    p.add_argument(
        "--warm-accesses", type=int, default=8192,
        help="warm-up lookups defining steady state (default 8192)",
    )
    p.add_argument(
        "--sim-queries", type=int, default=2048,
        help="queries simulated per cache evaluation (default 2048)",
    )
    add(p, "--max-rows", "--seed", "--json")

    p = verb("stats", _cmd_stats, "serve one seeded window and dump the "
             "telemetry plane (counters, digest tails, optional trace "
             "spans)", epilog=epilog)
    add(p, "--backend", default="fpga")
    add(p, "--tier", help="serve through a routed cluster instead of a "
        "single session (repeatable, as in `repro cluster`)")
    add(p, "--router")
    p.add_argument(
        "--exporter", default="table",
        type=_known("exporter", registries["telemetry_exporters"]),
        help=f"output format ({listed['telemetry_exporters']})",
    )
    p.add_argument(
        "--spans", action="store_true",
        help="record sampled per-request trace spans",
    )
    p.add_argument(
        "--span-rate", type=_fraction, default=0.001, metavar="FRAC",
        help="span sampling rate when --spans is on (default 0.001)",
    )
    add(p, "--process", "--utilisation", "--rate")
    add(p, "--slo-ms", help="latency SLO the sla-aware router uses when "
        "--tier is given")
    add(p, "--duration-s", "--max-rows", "--seed", "--json")

    p = verb("bench", _cmd_bench, "sweep backends x models x batches into "
             "BENCH_<name>.json", model=None)

    def block(name: str, flag: str, **kwargs) -> None:
        """``flag`` configures the artifact's ``name`` block, and
        ``--no-<name>`` omits it; the two are mutually exclusive."""
        group = p.add_mutually_exclusive_group()
        group.add_argument(flag, default=None, **kwargs)
        group.add_argument(
            f"--no-{name}", action="store_true",
            help=f'omit the {name} block ("{name}": null in the artifact)',
        )

    p.add_argument(
        "--model", action="append", default=None, metavar="NAME",
        help="model to sweep (repeatable; default: small)",
    )
    add(p, "--backend", action="append", default=None, metavar="NAME")
    p.add_argument(
        "--batch", action="append", type=int, default=None, metavar="N",
        help="batch size for the latency curve (repeatable)",
    )
    p.add_argument(
        "--quick", action="store_true",
        help="CI-sized sweep: small batches, 256-row tables",
    )
    block(
        "cluster", "--cluster-backend", action="append", metavar="NAME",
        help="tier of the v3 cluster block (repeatable; default: the "
        "--backend selection, or fpga gpu cpu when unrestricted)",
    )
    p.add_argument(
        "--cluster-router", default=None,
        help="routing policy of the cluster block (default sla-aware)",
    )
    block(
        "autoscale", "--autoscale-policy", metavar="NAME",
        help="scaler policy of the v4 autoscale block (default "
        "reactive-utilisation)",
    )
    p.add_argument(
        "--autoscale-windows", type=int, default=None, metavar="N",
        help="control windows of the autoscale block (default 12)",
    )
    block(
        "sharding", "--sharding-strategy", metavar="NAME",
        help="strategy of the v5 sharding block (default auto: the "
        "planner enumerates every registered strategy)",
    )
    p.add_argument(
        "--sharding-nodes", type=int, default=None, metavar="N",
        help="node count of the sharding block (default 4)",
    )
    block(
        "tiering", "--tiering-policy", metavar="NAME",
        help="cache policy of the v7 tiering block (default lru)",
    )
    p.add_argument(
        "--tiering-alpha", type=float, default=None, metavar="ALPHA",
        help="Zipf skew of the tiering block's row popularity "
        f"(default {DEFAULT_ALPHA})",
    )
    p.add_argument(
        "--tiering-hot-fraction", type=float, default=None, metavar="FRAC",
        help="hot-tier share of the working set in the tiering block "
        "(default 0.125)",
    )
    p.add_argument(
        "--no-telemetry", action="store_true",
        help='omit the telemetry block ("telemetry": null in the artifact)',
    )
    add(p, "--max-rows", help="row-cap tables before deployment (default: "
        "4096, or 256 with --quick)")
    add(p, "--seed", "--qps")
    p.add_argument(
        "--name", default=None,
        help="artifact name: writes BENCH_<name>.json "
        "(default: quick | full)",
    )
    p.add_argument(
        "--output", default=None, metavar="PATH",
        help="artifact path (overrides the BENCH_<name>.json convention)",
    )
    p.add_argument(
        "--compare", default=None, metavar="OLD.json",
        help="attach regression deltas against a previous artifact",
    )
    p.add_argument(
        "--fail-on-regression", nargs="?", type=_non_negative, const=5.0,
        default=None, metavar="PCT",
        help="with --compare: exit 1 if any headline metric regresses by "
        "more than PCT percent (default 5), or if any result exceeds a "
        "wall-clock budget stamped into the baseline",
    )
    p.add_argument(
        "--wall-clock-budget-scale", type=_positive, default=1.0,
        metavar="FACTOR",
        help="with --compare: multiply every baseline wall_clock_budget_s "
        "by FACTOR before gating (loosen budgets fleet-wide on slow "
        "runners without editing the baseline; default 1.0)",
    )
    p.add_argument(
        "--stamp-wall-clock-budgets", nargs="?", type=_positive, const=3.0,
        default=None, metavar="MULT",
        help="stamp each result's wall_clock_budget_s at MULT x its "
        "measured wall clock (default 3) — regenerates a budgeted "
        "baseline artifact in one command",
    )
    add(p, "--json")

    p = verb(
        "lint", _cmd_lint, "AST invariant checker over the repo's sources",
        model=None,
        description=(
            "Check determinism, registry-hygiene, and mutable-default "
            "invariants (exit 0 clean, 1 findings, 2 usage error)."
        ),
        epilog=rules_epilog()
        + "\n\nsuppress per line with: "
        "# repro-lint: noqa[RPR00x] -- justification",
    )
    p.add_argument(
        "paths", nargs="+",
        help="files or directories to lint (e.g. src tests)",
    )
    p.add_argument(
        "--select", action="append", default=None, metavar="RULES",
        help="restrict to the given rule code(s); repeatable or "
        "comma-separated (default: every registered rule)",
    )
    add(p, "--json")

    p = verb("info", _cmd_info, "library overview", model=None)
    add(p, "--json")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one verb; exit 2 on any usage or input error.

    argparse prints its own usage errors; afterwards a ``ValueError`` or
    a registry's unknown-name error prints its one-line message.  Any
    other exception is a bug and keeps its traceback.
    """
    from repro.registry import UnknownNameError

    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        if exc.code:  # a usage error, already printed
            return 2
        raise  # --help and --version exit 0
    try:
        return args.func(args)
    except (ValueError, UnknownNameError) as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
