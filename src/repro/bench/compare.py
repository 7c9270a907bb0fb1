"""Regression deltas between two benchmark artifacts.

``repro bench --compare old.json`` attaches the output of
:func:`compare_payloads` to the fresh payload: per (model, backend) pair,
the old and new value of each headline metric and the signed percentage
delta.  Positive ``delta_pct`` means the metric *grew* — an improvement
for throughput, a regression for latency and cost; the ``regressions``
helper applies that sign convention, and ``repro bench --compare old.json
--fail-on-regression [PCT]`` exits non-zero on its output so CI can gate
on it directly.

Each optional top-level block (cluster, autoscale, sharding, tiering,
telemetry) is compared through one table, :data:`BLOCK_METRICS`: per
block, the regression label and, per metric, where the metric sits
inside the block and which direction is a regression.  Every such path
ends on a field the schema (:mod:`repro.bench.schema`) pins as a finite
number, so ``--compare`` never reads a field the validator lets float.

Wall-clock budgets (schema v6) gate differently: raw ``wall_clock_s``
deltas are too noisy to threshold, so a baseline result opts in by
carrying ``wall_clock_budget_s`` — an explicit absolute ceiling — and the
comparison flags every fresh result whose measured wall clock exceeds the
(optionally scaled) ceiling, independent of the percentage threshold.
"""

from __future__ import annotations

from repro.bench.schema import validate_payload

#: The two regression directions: growth is worse, or shrinkage is.
HIGHER = "higher-is-worse"
LOWER = "lower-is-worse"

#: Headline metrics compared per (model, backend) pair, with the direction
#: that counts as a regression when the metric grows.
METRICS = {
    "latency_us": HIGHER,
    "serving_latency_ms": HIGHER,
    "throughput_items_per_s": LOWER,
    "usd_per_million_queries": HIGHER,
}

#: Serving-lab metrics (schema v2) compared when both artifacts carry a
#: ``serving`` block: SLA capacity per arrival process (the highest rate
#: whose judged tail met the SLO) and the SLA-sized fleet's node count.
SERVING_METRICS = {
    "sla_capacity_per_s": LOWER,
    "sla_nodes": HIGHER,
}


def _peak(points: list[dict]) -> dict:
    """The curve point at the heaviest measured load."""
    return max(points, key=lambda point: point["rate_per_s"])


def _first(rates: dict[str, float]) -> float:
    """The first entry: the hierarchy's fastest (hot) tier leads the map."""
    return next(iter(rates.values()))


#: Metrics compared per optional top-level block when both artifacts
#: carry it non-null: block -> (regression label, metric -> (path inside
#: the block, direction)).  A path step is a key, or a function picking
#: one entry out of a list or map.
BLOCK_METRICS = {
    # Routed cluster (v3): blended tail latency, SLA attainment, and the
    # fleet's operating cost per million queries.
    "cluster": ("cluster/routed", {
        "p99_ms": (("result", "blended", "p99_ms"), HIGHER),
        "sla_attainment": (("result", "blended", "sla_attainment"), LOWER),
        "usd_per_million_queries": (
            ("result", "usd_per_million_queries"), HIGHER
        ),
    }),
    # Elastic fleet (v4): blended fleet size, cost, and the horizon's SLA
    # attainment.
    "autoscale": ("autoscale/elastic", {
        "mean_nodes": (("result", "aggregate", "mean_nodes"), HIGHER),
        "usd_per_hour": (("result", "aggregate", "usd_per_hour"), HIGHER),
        "usd_per_million_queries": (
            ("result", "aggregate", "usd_per_million_queries"), HIGHER
        ),
        "sla_attainment": (("result", "aggregate", "sla_attainment"), LOWER),
    }),
    # Sharded fleet (v5): blended fan-out tail latency, SLA attainment,
    # the plan's lookup fan-out, and peak node occupancy.
    "sharding": ("sharding/fan-out", {
        "p99_ms": (("result", "blended", "p99_ms"), HIGHER),
        "sla_attainment": (("result", "blended", "sla_attainment"), LOWER),
        "fanout": (("plan", "fanout"), HIGHER),
        "max_node_utilisation": (("plan", "max_node_utilisation"), HIGHER),
    }),
    # Tiered storage (v7): steady-state hot-tier hit rate and the warm
    # and cold serving tails at the heaviest swept load, where cache
    # state matters most (rather than averaged across the sweep).
    "tiering": ("tiering/tiered", {
        "hit_rate": (("steady_state", "hit_rate"), LOWER),
        "warm_p99_ms": (("warm", "points", _peak, "p99_ms"), HIGHER),
        "cold_p99_ms": (("cold", "points", _peak, "p99_ms"), HIGHER),
    }),
    # Telemetry plane (v8): the digest-estimated routed tails, the spill
    # share off the primary tier, and (when the tiering block also ran)
    # the hot tier's counted hit rate, the one cache-sizing decisions
    # watch.  A drifting digest or a mis-counted dispatch moves these
    # even when the underlying serving numbers hold still.
    "telemetry": ("telemetry/observed", {
        "digest_p99_ms": (("latency_ms", "p99"), HIGHER),
        "digest_p999_ms": (("latency_ms", "p999"), HIGHER),
        "spill_share": (("spill_share",), HIGHER),
        "hot_hit_rate": (("tier_hit_rates", _first), LOWER),
    }),
}


def _serving_metrics(result: dict) -> dict[str, float]:
    """Flatten a result's serving block into comparable scalars.

    ``sla_capacity_per_s:<process>`` per swept arrival process, plus
    ``sla_nodes`` when the SLA fleet plan exists.  The no-serving guard
    is defensive only: :func:`compare_payloads` validates both payloads
    against the current schema first, so v1 artifacts are rejected
    outright (regenerate them) rather than silently compared on perf
    metrics alone.
    """
    serving = result.get("serving")
    if not isinstance(serving, dict):
        return {}
    out: dict[str, float] = {}
    for process, curve in sorted(serving.get("processes", {}).items()):
        out[f"sla_capacity_per_s:{process}"] = curve["sla_capacity_per_s"]
    fleet_sla = serving.get("fleet_sla")
    if isinstance(fleet_sla, dict):
        out["sla_nodes"] = fleet_sla["nodes"]
    return out


def _record(before: float | None, after: float | None) -> dict[str, object]:
    """Old and new value with the signed percentage change.

    ``delta_pct`` is None when either side is missing, or when the
    baseline is zero and the new value is not.
    """
    if before is None or after is None:
        delta = None
    elif before == 0:
        delta = 0.0 if after == 0 else None
    else:
        delta = (after - before) / before * 100.0
    return {"old": before, "new": after, "delta_pct": delta}


def _read(block: dict, path: tuple) -> float | None:
    """Follow ``path`` into ``block``; None where it crosses a null."""
    value = block
    for step in path:
        if value is None:
            return None
        value = step(value) if callable(step) else value[step]
    return value


def _block_deltas(
    old: dict | None, new: dict | None, metrics: dict[str, tuple]
) -> dict[str, object] | None:
    """Old/new/delta records for one optional top-level block.

    ``None`` when either payload lacks the block — sweeps legitimately
    disable every optional block, and a one-sided block cannot be
    diffed.  A metric is compared only when both sides carry it: a path
    crossing a null (telemetry's ``hot_hit_rate`` when the sweep ran
    without the tiering block) degrades to absent rather than failing.
    """
    if old is None or new is None:
        return None
    deltas = {}
    for metric, (path, _) in metrics.items():
        before, after = _read(old, path), _read(new, path)
        if before is not None and after is not None:
            deltas[metric] = _record(before, after)
    return deltas


def _by_pair(payload: dict) -> dict[tuple[str, str], dict]:
    return {
        (result["model"], result["backend"]): result
        for result in payload["results"]
    }


def compare_payloads(
    old: dict, new: dict, *, wall_clock_budget_scale: float = 1.0
) -> dict[str, object]:
    """Diff two validated payloads into a regression-delta record.

    Pairs present in only one payload are listed under ``removed`` /
    ``added`` rather than failing — sweeps legitimately grow backends.
    ``wall_clock_budget_scale`` multiplies every baseline wall-clock
    budget before the fresh run is judged against it (CI runners are
    slower than the laptops budgets were stamped on; the knob loosens the
    whole fleet without editing the artifact).  Raises
    :class:`~repro.bench.schema.BenchSchemaError` if either payload does
    not conform to the schema.
    """
    if wall_clock_budget_scale <= 0:
        raise ValueError(
            f"wall_clock_budget_scale must be positive, got "
            f"{wall_clock_budget_scale}"
        )
    validate_payload(old)
    validate_payload(new)
    old_pairs = _by_pair(old)
    new_pairs = _by_pair(new)
    entries, wall_clock = [], []
    for key in sorted(old_pairs.keys() & new_pairs.keys()):
        old_result, new_result = old_pairs[key], new_pairs[key]
        deltas = {
            metric: _record(old_result["perf"][metric],
                            new_result["perf"][metric])
            for metric in METRICS
        }
        old_serving = _serving_metrics(old_result)
        new_serving = _serving_metrics(new_result)
        for metric in sorted(old_serving.keys() | new_serving.keys()):
            # A metric present on only one side is itself a signal: the
            # SLA fleet plan going null (SLO newly unattainable) must
            # surface as a delta, not vanish from the comparison.
            deltas[metric] = _record(
                old_serving.get(metric), new_serving.get(metric)
            )
        entries.append(
            {"model": key[0], "backend": key[1], "metrics": deltas}
        )
        # Budgets are opt-in: only a pair whose *baseline* result carries
        # a ceiling gets a record, judging the fresh run's measured wall
        # clock against the scaled budget.
        budget = old_result.get("wall_clock_budget_s")
        if budget is not None:
            ceiling = budget * wall_clock_budget_scale
            wall_clock.append({
                "model": key[0],
                "backend": key[1],
                "wall_clock_s": new_result["wall_clock_s"],
                "budget_s": ceiling,
                "within_budget": new_result["wall_clock_s"] <= ceiling,
            })
    return {
        "baseline_name": old["name"],
        "entries": entries,
        **{
            block: _block_deltas(old[block], new[block], metrics)
            for block, (_, metrics) in BLOCK_METRICS.items()
        },
        "wall_clock": {
            "budget_scale": wall_clock_budget_scale,
            "entries": wall_clock,
        },
        "removed": sorted(
            f"{m}/{b}" for m, b in old_pairs.keys() - new_pairs.keys()
        ),
        "added": sorted(
            f"{m}/{b}" for m, b in new_pairs.keys() - old_pairs.keys()
        ),
    }


def regressions(
    comparison: dict, threshold_pct: float = 5.0
) -> list[str]:
    """Human-readable regression lines worse than ``threshold_pct``.

    Wall-clock budget exceedances are absolute ceilings, not deltas, so
    they are reported regardless of ``threshold_pct``.
    """
    lines = []
    wall_clock = comparison.get("wall_clock") or {}
    for record in wall_clock.get("entries", ()):
        if not record["within_budget"]:
            lines.append(
                f"{record['model']}/{record['backend']}: wall_clock_s "
                f"{record['wall_clock_s']:.3f}s exceeds budget "
                f"{record['budget_s']:.3f}s"
            )
    # (label, metric records, metric -> direction); a serving metric is
    # named "<metric>:<process>".
    pair_directions = {**METRICS, **SERVING_METRICS}
    groups = [
        (f"{e['model']}/{e['backend']}", e["metrics"], pair_directions)
        for e in comparison["entries"]
    ] + [
        (label, comparison[block], {m: d for m, (_, d) in metrics.items()})
        for block, (label, metrics) in BLOCK_METRICS.items()
        if comparison.get(block)
    ]
    for label, records, directions in groups:
        for metric, record in records.items():
            direction = directions[metric.split(":", 1)[0]]
            before, after = record["old"], record["new"]
            delta = record["delta_pct"]
            if after is None:
                # The metric vanished — for sla_nodes that means the SLO
                # became unattainable at any fleet size: always worse.
                worse, moved = True, "disappeared (SLO no longer attainable?)"
            elif before is None:
                # Appeared: the SLO became attainable — an improvement.
                worse, moved = False, "appeared"
            elif delta is None:
                # Baseline was zero, so no percentage exists; a metric
                # growing off a zero baseline is a regression only when
                # growth is the bad direction.
                worse = direction == HIGHER and after > 0
                moved = "appeared"
            else:
                worse = delta > threshold_pct if direction == HIGHER \
                    else delta < -threshold_pct
                moved = f"{'rose' if delta > 0 else 'fell'} {abs(delta):.1f}%"
            if worse:
                old_text = "-" if before is None else f"{before:.6g}"
                new_text = "-" if after is None else f"{after:.6g}"
                lines.append(
                    f"{label}: {metric} {moved} ({old_text} -> {new_text})"
                )
    return lines
