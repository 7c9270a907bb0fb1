"""The four end-to-end workloads: deployments, timed ops and their checks.

A workload builds its deployments through public ``repro`` calls
(:meth:`Workload.build`, timed as set-up), derives per-run inputs from the
seed (:meth:`Workload.inputs`), and lists one round of *ops*
(:meth:`Workload.ops`).  An op is one timed public call: an ``infer``,
``serve``, ``serve_trace`` or ``simulate_autoscale``.  Each op carries an
output check that runs outside the timed interval, and a count of the
queries it covered.

Every call into ``repro`` is looked up when the op runs, never bound
ahead of time, so that the traced run's wrappers see it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import repro
import repro.memory
import repro.serving
import repro.telemetry

#: The latency limit the SLA figures are judged against (ms).
SLO_MS = 30.0


def derive(seed: int, *parts: int) -> int:
    """A child seed: a pure function of the run seed and a stream path."""
    state = np.random.SeedSequence([seed, *parts]).generate_state(1)[0]
    return int(state) >> 1  # below 2**31, which every repro seed accepts


@dataclass(frozen=True)
class Op:
    """One timed public call, its output check and the queries it covers."""

    call: Callable[[], Any]
    #: True when the output is right; ``None`` leaves this op unchecked.
    check: Callable[[Any], bool] | None
    queries: Callable[[Any], int]


def _count(result: Any) -> int:
    return result.count


def serving_ok(result: Any) -> bool:
    """Latencies finite and >= 0; per-tier counts add up for clusters."""
    latencies = result.latencies_ms
    ok = bool(
        np.isfinite(latencies).all()
        and (latencies >= 0).all()
        and (result.completions_ns >= result.arrivals_ns).all()
    )
    if isinstance(result, repro.ClusterServingResult):
        ok = ok and sum(result.tier_counts().values()) == result.count
    return ok


def plan_layers(session: Any) -> dict[str, float]:
    """Per-layer counts of one FPGA session's plan (Algorithm 1)."""
    return {
        "core.dram_rounds": float(session.plan.dram_access_rounds),
        "core.merged_tables": float(len(session.plan.merge_groups)),
    }


class Workload:
    """Base: a deployment is a tuple of serving surfaces.

    Subclasses take ``quick`` (tiny sizes for smoke tests) on construction.
    """

    name: str
    #: Wall seconds one round takes on the reference host (a 2-vCPU
    #: shared VM), checks included.  It converts ``--seconds`` into a
    #: fixed number of rounds, so both sides of a comparison do the same
    #: work however fast they run.
    round_s: float
    #: Whether :meth:`model` reads op results (else only deployments).
    model_from_ops = True

    def build(self, seed: int) -> tuple:
        raise NotImplementedError

    def inputs(self, surfaces: tuple, seed: int) -> Any:
        return None

    def ops(self, surfaces: tuple, inputs: Any, seed: int) -> list[Op]:
        raise NotImplementedError

    def model(self, surfaces: tuple, results: list) -> dict[str, float]:
        """Modelled end-to-end outputs (simulated time, deterministic)."""
        raise NotImplementedError

    def layer_model(self, surfaces: tuple, results: list) -> dict[str, float]:
        """Per-layer figures read from public result and plan objects."""
        return {}

    def sessions(self, surfaces: tuple) -> list:
        out = []
        for surface in surfaces:
            out.extend(getattr(surface, "replicas", (surface,)))
        return out


class InferLarge(Workload):
    """The paper's data path for real: lookups, gathers, fixed-point MLP."""

    name = "infer-large"
    round_s = 2.0
    model_from_ops = False
    #: Batch sizes: the paper's CPU batch sweep
    #: (``repro.experiments.paper_data.CPU_BATCHES``) up to 256, the
    #: largest size at which eight rounds of 258 calls fit the run.  Each
    #: size gets the same number of batches, as in a sweep; no traffic
    #: mix was measured, so the shares are unverified.
    SIZES = (1, 64, 256)
    #: Every CHECK_EVERY-th call is checked against the fp32 reference.
    CHECK_EVERY = 16

    def __init__(self, quick: bool) -> None:
        # Quick runs keep the code path (fpga backend, merged tables,
        # fixed16) on a model that builds in a fifth of the time.
        self.model_name = "small" if quick else "large"
        self.per_size = 3 if quick else 86

    def build(self, seed: int) -> tuple:
        session = repro.deploy_model(self.model_name, "fpga", seed=seed)
        session.perf()
        return (session,)

    def inputs(self, surfaces: tuple, seed: int) -> list:
        (session,) = surfaces
        # Fixed counts per size, shuffled: every seed does the same work.
        sizes = np.repeat(self.SIZES, self.per_size)
        np.random.default_rng(derive(seed, 0)).shuffle(sizes)
        generator = repro.QueryGenerator(session.model, seed=derive(seed, 1))
        return [generator.batch(int(size)) for size in sizes]

    def ops(self, surfaces: tuple, inputs: Any, seed: int) -> list[Op]:
        (session,) = surfaces
        return [
            Op(
                call=lambda b=batch: session.infer(b),
                check=(
                    (lambda out, b=batch: _infer_ok(session, b, out))
                    if i % self.CHECK_EVERY == 0
                    else None
                ),
                queries=lambda _, n=batch.batch_size: n,
            )
            for i, batch in enumerate(inputs)
        ]

    def model(self, surfaces: tuple, results: list) -> dict[str, float]:
        (session,) = surfaces
        # The paper's split: embedding lookup stage vs the FC stages.
        stages = session.performance().stages  # (name, latency_ns, ii_ns)
        dnn_ns = sum(lat for name, lat, _ in stages if name.startswith("fc"))
        lookup_ns = sum(lat for _, lat, _ in stages) - dnn_ns
        return {
            "model_latency_us": session.perf().latency_us,
            "model_lookup_us": lookup_ns / 1e3,
            "model_dnn_us": dnn_ns / 1e3,
        }


def _infer_ok(session: Any, batch: Any, out: np.ndarray) -> bool:
    """Embeddings bit-exact, predictions within fixed16 error of fp32."""
    reference = session.reference()
    embeddings_equal = np.array_equal(
        session.engine.lookup_embeddings(batch), reference.embed(batch)
    )
    return bool(
        embeddings_equal
        and out.shape == (batch.batch_size,)
        and np.all(np.abs(out - reference.infer(batch)) < 0.05)
    )


class ReplayDiurnal(Workload):
    """Capacity planning: three huge diurnal replays, no inference."""

    name = "replay-diurnal"
    round_s = 1.25
    #: Share of each surface's capacity the trace offers on average: the
    #: load ``repro bench`` serves its cluster at
    #: (``BenchConfig.cluster_utilisation``), also a point of its
    #: per-node diurnal sweep (``BenchConfig.serve_utilisations``).
    UTILISATION = 0.8

    def __init__(self, quick: bool) -> None:
        # 1M, not more: shorter rounds give each op more repetitions, and
        # the fastest of more repetitions repeats better between runs.
        self.arrivals = 20_000 if quick else 1_000_000

    def build(self, seed: int) -> tuple:
        fpga = repro.deploy_model("small", "fpga", seed=seed)
        cpu = repro.deploy_model("small", "cpu", seed=seed)
        cluster = repro.deploy_cluster(
            [
                repro.ReplicaSpec("small", "fpga"),
                repro.ReplicaSpec("small", "gpu"),
                repro.ReplicaSpec("small", "cpu"),
            ],
            router="sla-aware",
            slo_ms=SLO_MS,
            seed=seed,
        )
        surfaces = (fpga, cpu, cluster)
        for surface in surfaces:
            surface.perf()
        return surfaces

    def inputs(self, surfaces: tuple, seed: int) -> list:
        traces = []
        for surface in surfaces:
            rate = self.UTILISATION * surface.perf().throughput_items_per_s
            traces.append(
                repro.serving.diurnal_trace(rate, self.arrivals / rate)
            )
        return traces

    def ops(self, surfaces: tuple, inputs: Any, seed: int) -> list[Op]:
        return [
            Op(
                call=lambda s=surface, t=trace, k=derive(seed, i): (
                    s.serve_trace(t, seed=k)
                ),
                check=serving_ok,
                queries=_count,
            )
            for i, (surface, trace) in enumerate(zip(surfaces, inputs))
        ]

    def model(self, surfaces: tuple, results: list) -> dict[str, float]:
        cluster = results[2]
        return {
            "model_p99_ms": cluster.p99_ms,
            "model_sla_attainment": cluster.sla_attainment(SLO_MS),
            "model_usd_per_m": cluster.usd_per_million_queries,
        }

    def layer_model(self, surfaces: tuple, results: list) -> dict[str, float]:
        return {"cluster.spill_share": results[2].spill_fraction("fpga")}


class TieredZipf(Workload):
    """Tiered embedding storage under Zipf keys, served cold and warm."""

    name = "tiered-zipf"
    round_s = 1.7
    #: (cache policy, hot-set drift in rows/s) per tier set-up.
    SETUPS = (
        ("lru", 0.0),
        ("lfu", 0.0),
        ("admit-on-second-touch", 0.0),
        ("lru", 2e5),
    )
    #: A point of ``BenchConfig.serve_utilisations``, the grid the
    #: tiering block of ``repro bench`` sweeps.
    UTILISATION = 0.5

    def __init__(self, quick: bool) -> None:
        self.warm_accesses = 2048 if quick else 65536
        self.sim_queries = 256 if quick else 8192
        self.duration_s = 0.002 if quick else 0.025

    def build(self, seed: int) -> tuple:
        surfaces = []
        for k, (policy, drift) in enumerate(self.SETUPS):
            session = repro.deploy_model(
                "small", "fpga", max_rows=4096, seed=seed
            )
            rows = sum(t.rows for t in session.model.tables)
            hierarchy = repro.memory.scaled_tier_hierarchy(
                rows,
                policy=policy,
                hot_fraction=0.125,
                warm_accesses=self.warm_accesses,
                sim_queries=self.sim_queries,
            )
            popularity = repro.serving.PopularityModel(
                rows=rows, alpha=1.05, drift_rows_per_s=drift
            )
            session.attach_tiers(
                hierarchy, popularity=popularity, seed=derive(seed, k)
            )
            session.perf()
            surfaces.append(session)
        return tuple(surfaces)

    def ops(self, surfaces: tuple, inputs: Any, seed: int) -> list[Op]:
        ops = []
        for k, session in enumerate(surfaces):
            # A fresh stream each round, so the tier-penalty memo (keyed
            # by the arrivals) is never a free hit.
            arrivals = repro.serving.poisson_arrivals(
                np.random.default_rng(derive(seed, k)),
                self.UTILISATION * session.perf().throughput_items_per_s,
                self.duration_s,
            )
            ops.append(
                Op(
                    call=lambda s=session, a=arrivals: s.serve(
                        a, tier_warmup=0
                    ),
                    check=serving_ok,
                    queries=_count,
                )
            )
            ops.append(
                Op(
                    call=lambda s=session, a=arrivals: s.serve(a),
                    check=serving_ok,
                    queries=_count,
                )
            )
        return ops

    def model(self, surfaces: tuple, results: list) -> dict[str, float]:
        pooled = np.concatenate([r.latencies_ms for r in results])
        return {
            "model_p99_ms": float(
                repro.telemetry.exact_quantile(pooled, 99.0)
            )
        }

    def layer_model(self, surfaces: tuple, results: list) -> dict[str, float]:
        rates = [s.perf().memory.hit_rate for s in surfaces]
        return {"memory.hot_hit_rate": float(np.mean(rates))}


class AutoscaleFlash(Workload):
    """Every registered scaler through a flash crowd: many small serves."""

    name = "autoscale-flash"
    round_s = 0.5
    INTERVAL_S = 0.02
    #: The trace's base rate as a multiple of one node's capacity.
    LOAD = 6.0

    def __init__(self, quick: bool) -> None:
        self.windows = 8 if quick else 96

    def build(self, seed: int) -> tuple:
        surfaces = (
            repro.deploy_model("small", "fpga", seed=seed),
            repro.deploy_model("small", "cpu", seed=seed),
        )
        for surface in surfaces:
            surface.perf()
        return surfaces

    def inputs(self, surfaces: tuple, seed: int) -> list:
        # One trace object per run: the simulator memoises its window
        # plan per trace, and the warm-up round fills that memo.
        return [
            repro.serving.flash_crowd_trace(
                self.LOAD * s.perf().throughput_items_per_s,
                self.windows * self.INTERVAL_S,
            )
            for s in surfaces
        ]

    def ops(self, surfaces: tuple, inputs: Any, seed: int) -> list[Op]:
        ops = []
        for i, (session, trace) in enumerate(zip(surfaces, inputs)):
            for j, scaler in enumerate(repro.available_scalers()):
                ops.append(
                    Op(
                        call=lambda s=session, t=trace, p=scaler, k=derive(
                            seed, i, j
                        ): repro.simulate_autoscale(
                            s,
                            t,
                            p,
                            slo_ms=SLO_MS,
                            windows=self.windows,
                            seed=k,
                            compare_static=False,
                        ),
                        check=self._ok,
                        queries=lambda r: sum(w.queries for w in r.windows),
                    )
                )
        return ops

    def _ok(self, result: Any) -> bool:
        """One window per interval, bounded node counts, SLA in [0, 1]."""
        windows = result.windows
        return (
            len(windows) == self.windows
            and all(
                result.min_nodes <= w.nodes <= result.max_nodes
                and 0.0 <= w.sla_attainment <= 1.0
                for w in windows
            )
            and 0.0 <= result.sla_attainment <= 1.0
        )

    def model(self, surfaces: tuple, results: list) -> dict[str, float]:
        return {
            "model_p99_ms": float(np.mean([r.worst_tail_ms for r in results])),
            "model_sla_attainment": float(
                np.mean([r.sla_attainment for r in results])
            ),
            "model_usd_per_m": float(
                np.mean([r.usd_per_million_queries for r in results])
            ),
        }

    def layer_model(self, surfaces: tuple, results: list) -> dict[str, float]:
        return {
            "autoscale.windows": float(sum(len(r.windows) for r in results))
        }


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (InferLarge, ReplayDiurnal, TieredZipf, AutoscaleFlash)
}
