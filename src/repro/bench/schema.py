"""Schema of the ``BENCH_<name>.json`` benchmark artifact.

One schema version covers one shape of payload; consumers (the CI
``bench-smoke`` job, ``repro bench --compare``, plotting scripts) refuse
anything else.  :data:`PAYLOAD` is the one place that shape is declared:
a tree of spec nodes (:class:`Str`, :class:`Num`, :class:`Obj`, ...)
checked by a single walker that reports the JSON path of the first
offending field.  Adding a field is one spec line, plus a
:data:`SCHEMA_VERSION` bump when a consumer could break.  There is no
``jsonschema`` dependency: a bare ``numpy``-only install can validate.

Run as a module to validate a file (the CI job does exactly this)::

    python -m repro.bench BENCH_quick.json
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import dataclass, field
from typing import Callable, Sequence

#: Version of the payload shape documented here.  Bump on any change that
#: could break a consumer: removed/renamed keys, changed types or units.
#: v2 added the per-result ``serving`` block (latency-under-load curves
#: per arrival process + the SLA-aware fleet plan) and the serving knobs
#: in ``config``.  v3 added the top-level ``cluster`` block (a routed
#: heterogeneous cluster served at a fixed utilisation: blended and
#: per-tier latency plus fleet cost; null when the sweep disabled it)
#: and the cluster knobs in ``config``.  v4 added the top-level
#: ``autoscale`` block (an elastic fleet driven through a diurnal trace
#: by a scaler policy: per-window timeline, blended cost, and the
#: peak-sized static baseline; null when the sweep disabled it) and the
#: autoscale knobs in ``config``.  v5 added the top-level ``sharding``
#: block (one model sharded across a cluster's nodes by the distplan
#: planner and served fan-out/gather: the capacity-validated plan with
#: per-node occupancy plus the fan-out serving result; null when the
#: sweep disabled it) and the sharding knobs in ``config``.  v6 added
#: the optional per-result ``wall_clock_budget_s`` ceiling (absent or
#: null means unbudgeted): an explicit opt-in wall-clock budget that
#: ``--compare --fail-on-regression`` enforces as an absolute limit on
#: the *other* payload's measured ``wall_clock_s``, so a committed
#: baseline can gate CI runtime without chasing noisy raw deltas.  v7
#: added the top-level ``tiering`` block (a tier-attached deployment —
#: HBM hot-row cache over DDR over host — under Zipf-skewed popularity:
#: the hierarchy, the warm steady-state hit rate, and warm-vs-cold
#: latency curves; null when the sweep disabled it), the tiering knobs
#: in ``config``, and the per-window ``cold_nodes`` count in the
#: autoscale timeline.  v8 added the top-level ``telemetry`` block (one
#: routed serve observed through the always-on metric hub: digest-
#: estimated latency tails, per-tier dispatch shares, the spill share
#: off the primary tier, and the cache cascade's tier hit rates; null
#: when the sweep disabled it) and the ``telemetry`` boolean knob in
#: ``config``.
SCHEMA_VERSION = 8

#: The ``suite`` discriminator: distinguishes our artifacts from any other
#: JSON a pipeline might hand the validator.
SUITE = "repro-bench"


class BenchSchemaError(ValueError):
    """A payload does not conform to the benchmark artifact schema."""


@dataclass(frozen=True)
class Const:
    """Exactly ``value``; a bool never passes (``True == 1`` in Python)."""

    value: object


@dataclass(frozen=True)
class Str:
    """A string; ``empty_ok`` admits "" (a knob that disables a block)."""

    empty_ok: bool = False


@dataclass(frozen=True)
class Bool:
    """A JSON boolean."""


@dataclass(frozen=True)
class Num:
    """A finite number, never a bool, bounded ``> gt``, ``>= ge``, ``<= le``.

    ``json.load`` happily parses bare NaN/Infinity, and NaN sails through
    every bound check, so non-finite values are rejected outright: the CI
    gate (and ``--compare``'s delta arithmetic) can trust the artifact.
    """

    gt: float | None = None
    ge: float | None = None
    le: float | None = None


@dataclass(frozen=True)
class Int:
    """An integer, never a bool, of at least ``minimum`` (None: unbounded)."""

    minimum: int | None = 0


@dataclass(frozen=True)
class Nullable:
    """Null, or a value matching ``node``."""

    node: Node


@dataclass(frozen=True)
class List:
    """At least ``min_len`` items matching ``item``; the combined value of
    the ``unique`` item fields may occur only once."""

    item: Node
    min_len: int = 1
    unique: tuple[str, ...] = ()


@dataclass(frozen=True)
class Map:
    """A non-empty object of named entries (tiers, processes, batches):
    keys fully match ``key`` (else fail with ``key_rule``), values match
    ``value``."""

    value: Node
    key: str = ".+"
    key_rule: str = "keys must be non-empty strings"


@dataclass(frozen=True)
class Obj:
    """An object with ``required`` then ``optional`` fields, in order.

    Extra keys are allowed everywhere: the schema pins what consumers
    rely on, not what producers may add.  ``check`` is a rule across
    fields, run after them.
    """

    required: dict[str, Node]
    optional: dict[str, Node] = field(default_factory=dict)
    check: Callable[[dict, str], None] | None = None


Node = Const | Str | Bool | Num | Int | Nullable | List | Map | Obj

POSITIVE = Num(gt=0)
NON_NEGATIVE = Num(ge=0)
FRACTION = Num(ge=0, le=1)
NAMES = List(Str())


def _each(node: Node, *names: str) -> dict[str, Node]:
    """Fields ``names``, in order, all matching ``node``."""
    return dict.fromkeys(names, node)


def _fail(path: str, message: str) -> None:
    raise BenchSchemaError(f"{path}: {message}")


def _walk(node: Node, value: object, path: str) -> None:
    """Check ``value`` against ``node``; raise naming the first bad path."""
    if isinstance(node, Obj):
        if not isinstance(value, dict):
            _fail(path, f"expected an object, got {value!r}")
        for key, child in node.required.items():
            if key not in value:
                _fail(f"{path}.{key}", "missing required key")
            _walk(child, value[key], f"{path}.{key}")
        for key, child in node.optional.items():
            if key in value:
                _walk(child, value[key], f"{path}.{key}")
        if node.check is not None:
            node.check(value, path)
    elif isinstance(node, List):
        if not isinstance(value, list) or len(value) < node.min_len:
            _fail(path, f"expected a list of >= {node.min_len}, got {value!r}")
        seen: set[tuple] = set()
        for i, item in enumerate(value):
            _walk(node.item, item, f"{path}[{i}]")
            if node.unique:
                key = tuple(item[name] for name in node.unique)
                if key in seen:
                    fields = ", ".join(node.unique)
                    _fail(f"{path}[{i}]", f"duplicate ({fields}) entry {key!r}")
                seen.add(key)
    elif isinstance(node, Map):
        if not isinstance(value, dict) or not value:
            _fail(path, f"expected a non-empty object, got {value!r}")
        for key, item in value.items():
            if not isinstance(key, str) or not re.fullmatch(
                node.key, key, re.DOTALL
            ):
                _fail(path, f"{node.key_rule}, got {key!r}")
            _walk(node.value, item, f"{path}.{key}")
    elif isinstance(node, Nullable):
        if value is not None:
            _walk(node.node, value, path)
    elif isinstance(node, Num):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            _fail(path, f"expected a number, got {value!r}")
        if not math.isfinite(value):
            _fail(path, f"expected a finite number, got {value!r}")
        if node.gt is not None and value <= node.gt:
            _fail(path, f"expected > {node.gt}, got {value!r}")
        if node.ge is not None and value < node.ge:
            _fail(path, f"expected >= {node.ge}, got {value!r}")
        if node.le is not None and value > node.le:
            _fail(path, f"expected <= {node.le}, got {value!r}")
    elif isinstance(node, Int):
        bounded = node.minimum is not None
        if isinstance(value, bool) or not isinstance(value, int) or (
            bounded and value < node.minimum
        ):
            rule = f" >= {node.minimum}" if bounded else ""
            _fail(path, f"expected an integer{rule}, got {value!r}")
    elif isinstance(node, Str):
        if not isinstance(value, str) or not (value or node.empty_ok):
            kind = "string" if node.empty_ok else "non-empty string"
            _fail(path, f"expected a {kind}, got {value!r}")
    elif isinstance(node, Bool):
        if not isinstance(value, bool):
            _fail(path, f"expected a boolean, got {value!r}")
    elif isinstance(node, Const):
        if isinstance(value, bool) or value != node.value:
            _fail(path, f"expected {node.value!r}, got {value!r}")


#: The sweep's knobs, echoed for provenance.
CONFIG = Obj({
    "models": NAMES,
    "backends": NAMES,
    "batches": List(Int(minimum=1)),
    "max_rows": Nullable(Int(minimum=1)),
    "seed": Int(minimum=None),
    "quick": Bool(),
    "target_qps": POSITIVE,
    "slo_ms": POSITIVE,
    "serve_duration_s": POSITIVE,
    "serve_processes": NAMES,
    "serve_utilisations": List(POSITIVE),
    # v3-v8 block knobs: an empty value (false for telemetry) means the
    # sweep disabled that block, whose top-level key must then be null.
    "cluster_backends": List(Str(), min_len=0),
    "cluster_router": Str(),
    "cluster_utilisation": POSITIVE,
    "autoscale_policy": Str(empty_ok=True),
    "autoscale_windows": Int(minimum=1),
    "sharding_strategy": Str(empty_ok=True),
    "sharding_nodes": Int(minimum=1),
    "sharding_node_gb": POSITIVE,
    "tiering_policy": Str(empty_ok=True),
    "tiering_alpha": NON_NEGATIVE,
    "tiering_hot_fraction": POSITIVE,
    "telemetry": Bool(),
})

#: Mirrors :class:`repro.runtime.perf.PerfEstimate`.
PERF = Obj({
    **_each(Str(), "backend", "precision", "bottleneck"),
    **_each(POSITIVE, "latency_us", "serving_latency_ms", "ii_ns",
            "throughput_items_per_s", "throughput_gops", "serving_batch",
            "usd_per_hour", "usd_per_million_queries"),
})

#: Mirrors :meth:`repro.deploy.capacity.FleetPlan.as_dict`.
FLEET = Obj({
    "engine": Str(),
    **_each(POSITIVE, "target_qps", "nodes", "per_node_qps", "fleet_qps",
            "usd_per_hour", "usd_per_million_queries", "latency_ms",
            "utilisation"),
})

#: A latency-under-load curve; points mirror
#: :class:`repro.serving.lab.LoadPoint`.
CURVE = Obj({
    "backend": Str(),
    "process": Str(),
    **_each(POSITIVE, "slo_ms", "slo_percentile", "duration_s"),
    "sla_capacity_per_s": NON_NEGATIVE,
    "knee_rate_per_s": Nullable(POSITIVE),
    "points": List(Obj({
        **_each(POSITIVE, "rate_per_s", "utilisation", "queries", "mean_ms",
                "p50_ms", "p95_ms", "p99_ms", "p999_ms", "tail_ms",
                "achieved_qps"),
        "sla_attainment": FRACTION,
        "meets_slo": Bool(),
    })),
})

#: The v2 latency-under-load block: curves per process + SLA fleet.
SERVING = Obj({
    **_each(POSITIVE, "slo_ms", "slo_percentile", "duration_s"),
    "processes": Map(CURVE),
    # null means the SLO sits below the engine's latency floor — no
    # fleet size can meet it, which is a legitimate lab result.
    "fleet_sla": Nullable(Obj({
        **FLEET.required,
        **_each(POSITIVE, "slo_ms", "slo_percentile"),
        "process": Str(),
        "throughput_only_nodes": Int(minimum=1),
        "observed_tail_ms": NON_NEGATIVE,
        "sla_attainment": FRACTION,
        "slo_bound": Bool(),
    })),
})

#: Latency statistics only exist for cluster tiers that served queries.
SERVED_TIER = Obj({
    **_each(POSITIVE, "p50_ms", "p99_ms", "p999_ms"),
    "sla_attainment": FRACTION,
})


def _check_tier(tier: dict, path: str) -> None:
    if tier["replicas"] == 0:
        _fail(f"{path}.replicas", "expected >= 1 replica")
    # An idle overflow tier legitimately carries counts alone.
    if tier["queries"] > 0:
        _walk(SERVED_TIER, tier, path)


#: A blended + per-tier serving result (mirrors
#: :meth:`repro.cluster.cluster.ClusterServingResult.as_dict`).
CLUSTER_RESULT = Obj({
    "router": Str(),
    "queries": Int(minimum=1),
    "blended": Obj({
        **_each(POSITIVE, "mean_ms", "p50_ms", "p95_ms", "p99_ms", "p999_ms",
                "achieved_qps"),
        "sla_attainment": FRACTION,
    }),
    "tiers": Map(Obj(
        {"replicas": Int(), "queries": Int(), "share": FRACTION},
        check=_check_tier,
    )),
    "usd_per_hour": POSITIVE,
    "usd_per_million_queries": NON_NEGATIVE,
})

#: The v3 routed-cluster block: blended + per-tier serving stats.
CLUSTER = Obj({
    "model": Str(),
    "tiers": NAMES,
    "router": Str(),
    **_each(POSITIVE, "rate_per_s", "utilisation", "duration_s", "slo_ms"),
    "result": CLUSTER_RESULT,
})

#: The v4 elastic-fleet block: timeline + cost + static baseline.
AUTOSCALE = Obj({
    **_each(Str(), "model", "backend", "policy"),
    "windows": Int(minimum=1),
    "slo_ms": POSITIVE,
    "result": Obj({
        **_each(Str(), "backend", "policy"),
        **_each(POSITIVE, "slo_ms", "slo_percentile", "per_node_qps",
                "node_usd_per_hour"),
        **_each(Int(minimum=1), "min_nodes", "max_nodes"),
        **_each(NON_NEGATIVE, "provision_delay_s", "cooldown_s"),
        "trace": Obj(_each(POSITIVE, "mean_rate_per_s", "peak_rate_per_s",
                           "duration_s")),
        "timeline": List(Obj({
            "index": Int(),
            "nodes": Int(minimum=1),
            "pending_nodes": Int(),
            "desired_nodes": Int(minimum=1),
            "queries": Int(),
            "t_s": NON_NEGATIVE,
            "interval_s": POSITIVE,
            **_each(NON_NEGATIVE, "offered_rate_per_s", "utilisation",
                    "queue_depth"),
            **_each(POSITIVE, "mean_ms", "p50_ms", "p95_ms", "p99_ms",
                    "tail_ms"),
            **_each(FRACTION, "sla_attainment", "overflow_share"),
            # v7: nodes serving with not-yet-warm tier caches (0 on flat
            # runs).
            "cold_nodes": Int(),
        })),
        "aggregate": Obj({
            "mean_nodes": POSITIVE,
            **_each(Int(minimum=1), "peak_nodes", "min_nodes"),
            "scaling_actions": Int(),
            **_each(POSITIVE, "node_hours", "usd_total", "usd_per_hour",
                    "worst_tail_ms"),
            **_each(NON_NEGATIVE, "usd_per_million_queries",
                    "offered_queries"),
            **_each(FRACTION, "sla_attainment", "overflow_share"),
            # Savings may legitimately be negative (elasticity cost
            # more); only the type and finiteness are pinned.
            "usd_savings_vs_static": Nullable(Num()),
        }),
        # null means the SLO sits below the engine's latency floor — no
        # static fleet size can meet it, which is a legitimate result.
        "static_baseline": Nullable(Obj({
            **_each(Int(minimum=1), "nodes", "throughput_only_nodes"),
            **_each(POSITIVE, "usd_per_hour", "usd_total"),
            "usd_per_million_queries": NON_NEGATIVE,
            "sla_attainment": FRACTION,
        })),
    }),
})

#: The v5 sharded-serving block: a distplan
#: :class:`~repro.distplan.plan.ShardingPlan` summary plus the fan-out
#: serving result (which names the router; the block itself does not).
SHARDING = Obj({
    "model": Str(),
    "tiers": NAMES,
    "strategy": Str(),
    "nodes": Int(minimum=1),
    **_each(POSITIVE, "node_gb", "rate_per_s", "utilisation", "duration_s",
            "slo_ms"),
    "plan": Obj({
        **_each(Str(), "model", "strategy"),
        "total_gb": POSITIVE,
        **_each(Int(minimum=1), "fanout", "shards"),
        "sharded_tables": Int(),
        # A valid plan never overflows a node, so max utilisation is a
        # fraction — the capacity check is re-asserted on the artifact.
        "max_node_utilisation": FRACTION,
        "nodes": List(Obj({
            "node": Int(),
            "backend": Str(),
            "capacity_gb": POSITIVE,
            "bytes": NON_NEGATIVE,
            "utilisation": FRACTION,
            "shards": Int(),
        })),
    }),
    "result": Obj({
        **CLUSTER_RESULT.required,
        "fanout": Int(minimum=1),
        "strategy": Str(),
    }),
})

#: The v7 tiered-storage block: hierarchy + warm/cold curves.
TIERING = Obj({
    **_each(Str(), "model", "backend", "policy"),
    "hierarchy": Obj({
        "policy": Str(),
        "row_bytes": Int(minimum=1),
        "warm_accesses": Int(),
        "tiers": List(Obj({
            "name": Str(),
            "capacity_bytes": Int(minimum=1),
            "capacity_rows": Int(),
            "access_ns": POSITIVE,
        }), min_len=2),
    }),
    "popularity": Obj({
        "rows": Int(minimum=1),
        **_each(NON_NEGATIVE, "alpha", "drift_rows_per_s"),
    }),
    "steady_state": Obj({
        "hit_rate": FRACTION,
        **_each(POSITIVE, "effective_lookup_ns", "hot_lookup_ns"),
        "lookups_per_query": Int(minimum=1),
        "tier_fractions": Map(FRACTION),
    }),
    "slo_ms": POSITIVE,
    "warm": CURVE,
    "cold": CURVE,
})

#: The v8 telemetry block: digest tails + dispatch/spill/hit shares.
TELEMETRY = Obj({
    "model": Str(),
    "tiers": NAMES,
    "router": Str(),
    **_each(POSITIVE, "rate_per_s", "utilisation", "duration_s"),
    "queries": Int(minimum=1),
    "latency_ms": Obj(_each(POSITIVE, "p50", "p99", "p999")),
    "dispatch_shares": Map(FRACTION),
    "spill_share": FRACTION,
    # null when the sweep's tiering block is disabled — there is then
    # no cache cascade to count hits from.
    "tier_hit_rates": Nullable(Map(FRACTION)),
})

#: One (model, backend) result of the sweep.
RESULT = Obj(
    {
        **_each(Str(), "model", "backend", "precision"),
        "perf": PERF,
        "batch_latency_ms": Map(
            POSITIVE,
            key="0*[1-9][0-9]*",
            key_rule="batch keys must be positive-integer strings",
        ),
        "fleet": FLEET,
        "serving": SERVING,
        "planner": Nullable(Obj({})),
        "wall_clock_s": NON_NEGATIVE,
    },
    # v6: budgets are opt-in — the key may be absent or null; when set
    # it is a strictly positive ceiling the perf gate compares wall
    # clocks against.
    optional={"wall_clock_budget_s": Nullable(POSITIVE)},
)

#: The whole artifact.  Each optional top-level block may be null (the
#: sweep disabled it), but its key must exist.
PAYLOAD = Obj({
    "suite": Const(SUITE),
    "schema_version": Const(SCHEMA_VERSION),
    "name": Str(),
    "config": CONFIG,
    "wall_clock_s": NON_NEGATIVE,
    "cluster": Nullable(CLUSTER),
    "autoscale": Nullable(AUTOSCALE),
    "sharding": Nullable(SHARDING),
    "tiering": Nullable(TIERING),
    "telemetry": Nullable(TELEMETRY),
    "results": List(RESULT, unique=("model", "backend")),
})


def validate_payload(payload: object) -> dict:
    """Validate one benchmark payload against the current schema version.

    Returns the payload (typed as a dict) so calls can be chained; raises
    :class:`BenchSchemaError` naming the offending JSON path otherwise.
    Unknown extra keys are allowed everywhere — the schema pins what
    consumers rely on, not what producers may add.
    """
    _walk(PAYLOAD, payload, "$")
    return payload


def validate_file(path: str) -> dict:
    """Load ``path`` as JSON and validate it; returns the payload."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise BenchSchemaError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise BenchSchemaError(f"{path} is not valid JSON: {exc}") from exc
    return validate_payload(payload)


def main(argv: Sequence[str] | None = None) -> int:
    """Validate benchmark artifact files; exit non-zero on the first bad one."""
    args = list(sys.argv[1:] if argv is None else argv)
    if not args:
        print("usage: python -m repro.bench.schema FILE [FILE ...]",
              file=sys.stderr)
        return 2
    for path in args:
        try:
            payload = validate_file(path)
        except BenchSchemaError as exc:
            print(f"FAIL {path}: {exc}", file=sys.stderr)
            return 1
        print(
            f"ok {path}: schema v{payload['schema_version']}, "
            f"{len(payload['results'])} result(s)"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
