"""Trace-driven serving lab: latency under load, for any backend.

The paper's central serving claim is about *tail latency under real query
streams*: MicroRec's pipelined engine holds near-single-item latency up to
saturation, while batched CPU/GPU stacks pay batch-assembly waits that
inflate the tail long before raw throughput runs out.  This module is the
measurement harness for that claim end to end:

* :func:`load_sweep` drives one deployed
  :class:`~repro.runtime.session.Session` through ``serve()`` across a
  rate grid under a named arrival process (steady Poisson, diurnal
  sinusoid, MMPP-style bursts, flash crowd — see
  :mod:`repro.serving.arrivals`), producing a :class:`LoadCurve` of
  p50/p95/p99/p99.9 latency, SLA attainment, and achieved throughput per
  offered rate, with overload-knee and SLA-capacity detection.
* :func:`session_lab` runs several processes over one session into a
  JSON-ready report — the block ``repro serve --json`` and the bench
  schema-v2 artifact embed per backend.

Rates default to *utilisation-relative* grids (fractions of the
session's sustained per-node throughput), so the same sweep is
meaningful on a 292k items/s FPGA pipeline and a 70k items/s batched CPU
server alike.  Seeding is content-addressed (:func:`lab_seed`), so two
runs of the same sweep produce byte-identical results — CI diffs them.
"""

from __future__ import annotations

import zlib
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.serving.arrivals import (
    ARRIVAL_PROCESSES,
    arrivals_for,
    check_positive,
)
from repro.serving.sla import DEFAULT_SLA_MS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.session import Session

#: Default arrival processes a lab run sweeps (the acceptance trio).
DEFAULT_PROCESSES: tuple[str, ...] = ("poisson", "diurnal", "bursty")

#: Default offered-load grid as fractions of per-node sustained
#: throughput: well below, near, and just past the knee.
DEFAULT_UTILISATIONS: tuple[float, ...] = (0.2, 0.4, 0.6, 0.8, 0.95, 1.1)

#: Percentile the SLO is judged at (the paper argues p99 tails).
DEFAULT_SLO_PERCENTILE = 99.0

#: A point is past the overload knee when its tail latency exceeds this
#: multiple of the tail at the lightest swept load.
KNEE_FACTOR = 3.0


def lab_seed(seed: int, *parts: object) -> int:
    """A stable per-measurement seed derived from run seed + identity.

    Mixing the backend name, process, and grid index through CRC-32 keeps
    every simulated stream independent while making the whole sweep a
    pure function of ``seed`` — no global RNG state, no ordering effects.
    """
    tag = ":".join(str(p) for p in parts)
    return (seed * 0x9E3779B1 + zlib.crc32(tag.encode())) % 2**32


@dataclass(frozen=True)
class LoadPoint:
    """Latency statistics of one (process, offered rate) measurement."""

    rate_per_s: float
    #: Offered rate over the session's sustained per-node throughput.
    utilisation: float
    queries: int
    mean_ms: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    p999_ms: float
    #: Latency at the curve's judged percentile (``slo_percentile``) —
    #: the exact value ``meets_slo`` and knee detection are based on,
    #: whatever percentile was requested.
    tail_ms: float
    #: Fraction of queries answered within the SLO.
    sla_attainment: float
    achieved_qps: float
    #: Whether the judged tail percentile met the SLO at this load.
    meets_slo: bool

    def as_dict(self) -> dict[str, object]:
        return asdict(self)


@dataclass(frozen=True)
class LoadCurve:
    """Latency-vs-load curve of one backend under one arrival process."""

    backend: str
    process: str
    slo_ms: float
    slo_percentile: float
    duration_s: float
    points: tuple[LoadPoint, ...]

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError(
                f"{self.backend}/{self.process}: a LoadCurve needs at "
                "least one measured point (every swept rate produced an "
                "empty stream — raise the rates or the duration)"
            )

    @property
    def sla_capacity_per_s(self) -> float:
        """Highest swept rate whose judged tail met the SLO (0 if none)."""
        return max(
            (p.rate_per_s for p in self.points if p.meets_slo), default=0.0
        )

    @property
    def knee_rate_per_s(self) -> float | None:
        """Lowest swept rate past the overload knee (None if never).

        The knee is where tail latency stops looking like the unloaded
        system: the first point whose judged-percentile latency
        (``tail_ms``) exceeds :data:`KNEE_FACTOR` times the tail at the
        lightest swept load.
        """
        ordered = sorted(self.points, key=lambda p: p.rate_per_s)
        base = ordered[0].tail_ms
        for point in ordered:
            if point.tail_ms > KNEE_FACTOR * base:
                return point.rate_per_s
        return None

    def as_dict(self) -> dict[str, object]:
        """JSON-ready curve (bench schema v2 ``serving.processes`` value)."""
        return {
            "backend": self.backend,
            "process": self.process,
            "slo_ms": self.slo_ms,
            "slo_percentile": self.slo_percentile,
            "duration_s": self.duration_s,
            "sla_capacity_per_s": self.sla_capacity_per_s,
            "knee_rate_per_s": self.knee_rate_per_s,
            "points": [p.as_dict() for p in self.points],
        }


def load_sweep(
    session: "Session",
    process: str = "poisson",
    rates: Sequence[float] | None = None,
    utilisations: Sequence[float] = DEFAULT_UTILISATIONS,
    duration_s: float = 0.2,
    slo_ms: float = DEFAULT_SLA_MS,
    slo_percentile: float = DEFAULT_SLO_PERCENTILE,
    seed: int = 0,
    **server_knobs: object,
) -> LoadCurve:
    """Sweep one session across offered loads under one arrival process.

    ``rates`` (queries/s) overrides the default grid of ``utilisations``
    x the session's sustained per-node throughput.  Each grid point draws
    an independent, deterministically seeded stream (see
    :func:`lab_seed`), serves it through ``session.serve`` with
    ``server_knobs`` forwarded, and records the latency distribution.
    Rates whose realised stream is empty (expected arrivals well under
    one) are skipped rather than measured as vacuous zeros.
    """
    if process not in ARRIVAL_PROCESSES:
        raise ValueError(
            f"unknown arrival process {process!r}; "
            f"expected one of {tuple(ARRIVAL_PROCESSES)}"
        )
    if duration_s <= 0:
        raise ValueError(f"duration_s must be positive, got {duration_s}")
    check_positive("slo_ms", slo_ms)
    if not 0 < slo_percentile < 100:
        raise ValueError(
            f"slo_percentile must be in (0, 100), got {slo_percentile}"
        )
    capacity = session.perf().throughput_items_per_s
    if rates is None:
        if not utilisations:
            raise ValueError("utilisations must not be empty")
        if any(u <= 0 for u in utilisations):
            raise ValueError(
                f"utilisations must be positive, got {tuple(utilisations)}"
            )
        rates = [u * capacity for u in utilisations]
    elif not rates or any(r <= 0 for r in rates):
        raise ValueError(f"rates must be positive, got {tuple(rates)}")

    points: list[LoadPoint] = []
    for i, rate in enumerate(rates):
        rng = np.random.default_rng(
            lab_seed(seed, session.backend, process, i)
        )
        arrivals = arrivals_for(process, rng, rate, duration_s)
        if arrivals.size == 0:
            continue
        # compact() folds the full latency array into exact summary
        # statistics plus a digest, so the sweep holds one O(bins)
        # record per grid point instead of every point's raw arrays —
        # the difference between a 10M-arrival sweep fitting in memory
        # and not.
        summary = session.serve(arrivals, **server_knobs).compact(
            slo_ms=slo_ms, slo_percentile=slo_percentile
        )
        points.append(
            LoadPoint(
                rate_per_s=float(rate),
                utilisation=float(rate) / capacity,
                queries=summary.queries,
                mean_ms=summary.mean_ms,
                p50_ms=summary.p50_ms,
                p95_ms=summary.p95_ms,
                p99_ms=summary.p99_ms,
                p999_ms=summary.p999_ms,
                tail_ms=summary.tail_ms,
                sla_attainment=summary.sla_attainment,
                achieved_qps=summary.achieved_qps,
                meets_slo=summary.meets_slo,
            )
        )
    return LoadCurve(
        backend=session.backend,
        process=process,
        slo_ms=slo_ms,
        slo_percentile=slo_percentile,
        duration_s=duration_s,
        points=tuple(points),
    )


def session_lab(
    session: "Session",
    processes: Sequence[str] = DEFAULT_PROCESSES,
    rates: Sequence[float] | None = None,
    utilisations: Sequence[float] = DEFAULT_UTILISATIONS,
    duration_s: float = 0.2,
    slo_ms: float = DEFAULT_SLA_MS,
    slo_percentile: float = DEFAULT_SLO_PERCENTILE,
    seed: int = 0,
) -> dict[str, object]:
    """Latency-under-load curves for one session across arrival processes.

    Returns the JSON-ready serving block used per backend by ``repro
    serve --json`` and by bench schema v2 (``results[*].serving``): the
    SLO, and one :meth:`LoadCurve.as_dict` per process.
    """
    if not processes:
        raise ValueError("processes must not be empty")
    if len(set(processes)) != len(processes):
        raise ValueError(f"duplicate processes in {tuple(processes)}")
    curves = {
        process: load_sweep(
            session,
            process=process,
            rates=rates,
            utilisations=utilisations,
            duration_s=duration_s,
            slo_ms=slo_ms,
            slo_percentile=slo_percentile,
            seed=seed,
        )
        for process in processes
    }
    return {
        "backend": session.backend,
        "slo_ms": slo_ms,
        "slo_percentile": slo_percentile,
        "duration_s": duration_s,
        "processes": {
            name: curve.as_dict() for name, curve in curves.items()
        },
    }


def tiering_lab(
    surface: "Session",
    process: str = "poisson",
    utilisations: Sequence[float] = DEFAULT_UTILISATIONS,
    duration_s: float = 0.2,
    slo_ms: float = DEFAULT_SLA_MS,
    slo_percentile: float = DEFAULT_SLO_PERCENTILE,
    seed: int = 0,
) -> dict[str, object]:
    """Warm-vs-cold serving curves for a tier-attached surface.

    The warm curve serves with the hierarchy's steady-state warm-up
    (the default ``serve`` behaviour the SLA planner sizes against);
    the cold curve forces ``tier_warmup=0`` — a freshly provisioned
    node — through the same seeded streams, so the two curves differ
    only in cache state.  Returns the JSON-ready block used by ``repro
    tiers --json`` and the bench schema-v7 ``tiering`` block.
    """
    hierarchy = surface.tier_hierarchy
    if hierarchy is None:
        raise ValueError(
            f"{surface.backend}: tiering_lab needs an attached tier "
            "hierarchy (attach_tiers)"
        )
    warm = load_sweep(
        surface,
        process=process,
        utilisations=utilisations,
        duration_s=duration_s,
        slo_ms=slo_ms,
        slo_percentile=slo_percentile,
        seed=seed,
    )
    cold = load_sweep(
        surface,
        process=process,
        utilisations=utilisations,
        duration_s=duration_s,
        slo_ms=slo_ms,
        slo_percentile=slo_percentile,
        seed=seed,
        tier_warmup=0,
    )
    memory = surface.perf().memory
    assert memory is not None  # perf() builds it whenever tiers attach
    popularity = surface.tier_popularity
    return {
        "backend": surface.backend,
        "policy": hierarchy.policy,
        "hierarchy": hierarchy.as_dict(),
        "popularity": {
            "rows": popularity.rows,
            "alpha": popularity.alpha,
            "drift_rows_per_s": popularity.drift_rows_per_s,
        },
        "steady_state": {
            "hit_rate": memory.hit_rate,
            "effective_lookup_ns": memory.effective_lookup_ns,
            "hot_lookup_ns": memory.hot_lookup_ns,
            "lookups_per_query": memory.lookups_per_query,
            "tier_fractions": dict(
                zip(memory.tiers, memory.tier_fractions)
            ),
        },
        "slo_ms": slo_ms,
        "slo_percentile": slo_percentile,
        "duration_s": duration_s,
        "warm": warm.as_dict(),
        "cold": cold.as_dict(),
    }
