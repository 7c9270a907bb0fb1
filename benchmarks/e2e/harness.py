"""Run one workload: set-up, warm-up, timed rounds, checks and metrics.

The amount of work is fixed: a round is the workload's list of ops, and
a run times ``seconds / round_s`` rounds (at least ``min_rounds``), a
count that does not depend on how fast the code runs.  Every round runs
the same list of ops on fresh inputs, so op ``i`` is the same work in
every round.

Throughput and op latencies come from each op's fastest repetition
across the rounds.  Other tenants of a shared machine only ever slow
work down, and their load drifts over minutes, so an op's fastest
repetition estimates its uncontended cost and repeats from run to run,
where percentiles over every call move with the neighbours' load.  The
record keeps every op time (``op_ms``) for anyone who wants those.

End-to-end metrics come from untraced rounds.  A traced run alternates
traced and untraced rounds, so the per-layer figures and the tracing
overhead come from one run.
"""

from __future__ import annotations

import gc
import resource
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any

import numpy as np

import repro
from compare import load_spec
from spans import Instrumentation, Tracer, span_table, targets
from workloads import WORKLOADS, Op, Workload, derive, plan_layers

#: Seed streams under the run seed.
BUILD, INPUTS, WARMUP, ROUND, UNTRACED = range(5)

#: ``setup_s`` is the median of BUILDS full builds (quick runs time one).
#: The first comes before the warm-up; the others are spread between the
#: timed rounds, so a burst of load from other tenants of the machine
#: slows at most one or two of them.
BUILDS = 5


@dataclass
class Round:
    """One round's timed ops."""

    planned: int
    #: Seconds per op, by position in the round; NaN for a failed op.
    op_seconds: list[float] = field(default_factory=list)
    queries: int = 0
    #: Op results, kept for round 0 only (they can be large).
    results: list = field(default_factory=list)
    #: Span slice ``[begin, end)`` of a traced round.
    spans: tuple[int, int] | None = None

    @property
    def seconds(self) -> float:
        return float(np.nansum(self.op_seconds))

    @property
    def complete(self) -> bool:
        return not np.isnan(self.op_seconds).any()


@dataclass
class Run:
    """Mutable state of one workload run."""

    tracer: Tracer | None
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def fail(self, label: str, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(f"{label}: {message}")

    def run_ops(
        self, ops: list[Op], *, traced: bool = False, keep: bool = False
    ) -> Round:
        """Run one round of ops; checks run untimed and untraced."""
        tracer = self.tracer
        out = Round(planned=len(ops))
        gc.collect()  # start every round from the same heap
        if traced:
            begin = len(tracer)
        with tracer.span("bench.round") if traced else nullcontext():
            for op in ops:
                label = f"op {self.attempted}"
                if traced:
                    tracer.op = self.attempted
                self.attempted += 1
                try:
                    with tracer.span("bench.op") if traced else nullcontext():
                        start = time.perf_counter()
                        result = op.call()
                        elapsed = time.perf_counter() - start
                    with tracer.pause() if traced else nullcontext():
                        ok = op.check is None or op.check(result)
                        queries = op.queries(result)
                    problem = None if ok else "output check failed"
                except Exception:  # an op that raises counts as failed
                    problem = traceback.format_exc(limit=3)
                if problem:
                    self.fail(label, problem)
                    out.op_seconds.append(np.nan)
                    continue
                out.op_seconds.append(elapsed)
                out.queries += queries
                if keep:
                    out.results.append(result)
        if traced:
            tracer.op = -1
            out.spans = (begin, len(tracer))
        return out


def _summary(samples: list[float], value: float | None = None) -> dict:
    """A metric's value (default: median of ``samples``) and quartiles.

    ``samples`` are per-build or per-round figures; they give the spread
    a single run can show.
    """
    q1, median, q3 = np.percentile(samples, (25, 50, 75))
    return {
        "value": float(median if value is None else value),
        "q1": float(q1),
        "q3": float(q3),
        "samples": [float(v) for v in samples],
    }


def best_op_seconds(rounds: list[Round]) -> np.ndarray:
    """Each op's fastest repetition across rounds (NaN if it never ran)."""
    times = np.array([r.op_seconds for r in rounds])
    best = np.full(times.shape[1], np.nan)
    ran = ~np.isnan(times).all(axis=0)
    best[ran] = np.nanmin(times[:, ran], axis=0)
    return best


def _end_to_end(
    builds_s: list[float], rounds: list[Round], units: dict[str, str]
) -> dict:
    best = best_op_seconds(rounds)
    queries = float(np.median([r.queries for r in rounds]))
    op_ms = best[~np.isnan(best)] * 1e3
    metrics = {
        "setup_s": _summary(builds_s),
        "queries_per_s": _summary(
            [r.queries / r.seconds for r in rounds],
            queries / float(np.nansum(best)),
        ),
        "op_ms_p50": {"value": float(np.percentile(op_ms, 50)),
                      "n": int(op_ms.size)},
        "op_ms_p95": {"value": float(np.percentile(op_ms, 95)),
                      "n": int(op_ms.size)},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        },
    }
    return {
        name: {**metrics[name], "unit": unit} for name, unit in units.items()
    }


def _round_layers(tracer: Tracer, rnd: Round, windows: float) -> dict:
    """Per-layer figures of one traced round, from its spans."""
    table = span_table(tracer, *rnd.spans)
    routes = [n for n in table if n.startswith("cluster.route.")]
    queue = ("serving.pipeline_run", "serving.batched_run")

    def self_s(*names: str) -> float:
        return sum(table[n].self_s for n in names)

    def per(value: float, count: float) -> float:
        return value / count if count else 0.0

    infers = table["runtime.infer"].calls
    serves = table["runtime.serve"].calls
    queue_calls = sum(table[n].calls for n in queue)
    telemetry = self_s("telemetry.observe_many", "telemetry.counter_inc")
    return {
        "runtime.serve_self_ms": per(self_s("runtime.serve") * 1e3, serves),
        "runtime.serve_calls": float(serves),
        "runtime.infer_self_ms": per(self_s("runtime.infer") * 1e3, infers),
        "core.lookup_ms": per(self_s("core.lookup_embeddings") * 1e3, infers),
        "core.cartesian_ms": per(self_s("core.cartesian_lookup") * 1e3, infers),
        "core.gather_ms": per(self_s("core.table_lookup") * 1e3, infers),
        "core.gathers_per_call": per(table["core.table_lookup"].calls, infers),
        "models.mlp_ms": per(self_s("models.mlp_forward") * 1e3, infers),
        "serving.arrivals_s": self_s(
            "serving.trace_arrivals", "serving.poisson_arrivals"
        ),
        "serving.queue_s": self_s(*queue),
        "serving.queries_per_queue_call": per(
            sum(table[n].items for n in queue), queue_calls
        ),
        "serving.popularity_s": self_s("serving.popularity_sample"),
        "cluster.route_s": self_s(*routes),
        "memory.cascade_s": self_s("memory.assign_tiers"),
        "memory.lru_s": self_s("memory.hits.lru"),
        "memory.lfu_s": self_s("memory.hits.lfu"),
        "memory.second_touch_s": self_s("memory.hits.admit-on-second-touch"),
        "memory.keys": float(table["memory.assign_tiers"].items),
        "telemetry.observe_s": telemetry,
        "telemetry.share": per(telemetry, rnd.seconds),
        "autoscale.loop_s": self_s("autoscale.simulate_autoscale"),
        "autoscale.window_ms": per(
            table["autoscale.simulate_autoscale"].total_s * 1e3, windows
        ),
        "trace.spans": float(rnd.spans[1] - rnd.spans[0]),
    }


def _build_layers(tracer: Tracer, build: tuple[int, int]) -> dict:
    table = span_table(tracer, *build)
    plan_s = table["core.plan_tables"].total_s
    return {
        "runtime.build_s": table["bench.build"].total_s - plan_s,
        "core.plan_s": plan_s,
    }


def _median_of(dicts: list[dict]) -> dict[str, float]:
    return {
        key: float(np.median([d[key] for d in dicts])) for key in dicts[0]
    }


def _reproduces(
    workload: Workload, fresh: tuple | None, seed: int, model: dict
) -> bool:
    """Round 0 served again on a fresh deployment gives ``model`` exactly."""
    try:
        if fresh is None:
            fresh = workload.build(derive(seed, BUILD))
        results = []
        if workload.model_from_ops:
            inputs = workload.inputs(fresh, derive(seed, INPUTS))
            for op in workload.ops(fresh, inputs, derive(seed, ROUND, 0)):
                results.append(op.call())
        return workload.model(fresh, results) == model
    except Exception:  # a repeat that raises did not reproduce
        traceback.print_exc()
        return False


def run_workload(
    name: str,
    *,
    seed: int,
    seconds: float,
    trace: bool = False,
    quick: bool = False,
    min_rounds: int = 2,
) -> tuple[dict, Tracer | None]:
    """Run ``name`` and return its result record (and tracer, if traced)."""
    spec = load_spec()
    workload = WORKLOADS[name](quick)
    rounds = max(min_rounds, round(seconds / workload.round_s))
    tracer = Tracer() if trace else None
    run = Run(tracer)
    instrumentation = Instrumentation(tracer, targets()) if trace else None

    def traced(on: bool):
        return instrumentation.installed() if on else nullcontext()

    builds_s: list[float] = []
    build_spans: list[tuple[int, int]] = []

    def build() -> tuple:
        gc.collect()
        begin = len(tracer) if trace else 0
        with traced(trace):
            with tracer.span("bench.build") if trace else nullcontext():
                start = time.perf_counter()
                surfaces = workload.build(derive(seed, BUILD))
                builds_s.append(time.perf_counter() - start)
        if trace:
            build_spans.append((begin, len(tracer)))
        return surfaces

    surfaces = build()
    later = 0 if quick else BUILDS - 1
    build_before = [k * rounds // later for k in range(later)]
    fresh = None  # the latest build after the first
    inputs = workload.inputs(surfaces, derive(seed, INPUTS))

    run.run_ops(workload.ops(surfaces, inputs, derive(seed, WARMUP)))

    untraced: list[Round] = []
    traced_rounds: list[Round] = []
    model: dict[str, float] = {}
    layer_model: dict[str, float] = {}
    for index in range(rounds):
        for _ in range(build_before.count(index)):
            fresh = build()
        order = (True, False) if index % 2 == 0 else (False, True)
        for on in order if trace else (False,):
            # A traced run's traced rounds take the seeds an untraced run
            # uses, so its round 0 is traced and must give the same
            # modelled outputs.
            main = on == trace
            stream = ROUND if main else UNTRACED
            ops = workload.ops(surfaces, inputs, derive(seed, stream, index))
            keep = index == 0 and main
            with traced(on):
                rnd = run.run_ops(ops, traced=on, keep=keep)
            if keep and rnd.complete:
                model = workload.model(surfaces, rnd.results)
                if trace:
                    layer_model = workload.layer_model(surfaces, rnd.results)
            rnd.results = []  # round 0's arrays can be hundreds of MB
            (traced_rounds if on else untraced).append(rnd)

    reproduced = bool(model) and _reproduces(workload, fresh, seed, model)
    if not reproduced:
        run.failures.append("round 0 did not reproduce on a fresh build")

    record: dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "quick": quick,
        "trace": trace,
        "correct": run.failed == 0 and reproduced,
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures,
        "rounds": len(untraced),
        "metrics": _end_to_end(
            builds_s,
            untraced,
            {m["name"]: m["unit"] for m in spec["end_to_end"]},
        ),
        "model": model,
        # Every timed op's time, by round (None for a failed op).
        "op_ms": [
            [None if np.isnan(t) else t * 1e3 for t in rnd.op_seconds]
            for rnd in untraced
        ],
    }
    if trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        layers = dict.fromkeys(units, 0.0)
        fpga = [
            s for s in workload.sessions(surfaces)
            if isinstance(s, repro.FpgaSession)
        ]
        layers.update(plan_layers(fpga[0]))
        layers["core.plan_evaluated"] = float(
            sum(s.plan.evaluated for s in fpga)
        )
        layers.update(layer_model)
        layers.update(_median_of([_build_layers(tracer, b) for b in build_spans]))
        windows = layers["autoscale.windows"]
        layers.update(
            _median_of([_round_layers(tracer, r, windows) for r in traced_rounds])
        )
        layers["trace.overhead_share"] = (
            float(np.nansum(best_op_seconds(traced_rounds)))
            / float(np.nansum(best_op_seconds(untraced)))
            - 1.0
        )
        record["layers"] = {
            metric: {"value": layers[metric], "unit": unit}
            for metric, unit in units.items()
        }
    return record, tracer
