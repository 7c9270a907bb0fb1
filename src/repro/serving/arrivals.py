"""Query arrival processes for the serving simulation.

Two families live here:

* **Steady generators** — :func:`poisson_arrivals` (the memoryless model
  DeepRecSys uses for recommendation traffic at short timescales) and
  :func:`uniform_arrivals` (deterministic spacing, the closed-form sanity
  baseline).
* **Time-varying traces** — a :class:`RateTrace` describes offered load
  as a piecewise rate function over a finite horizon.  Constructors cover
  the shapes production recommendation traffic actually takes: a
  :func:`diurnal_trace` sinusoid, an MMPP-style :func:`bursty_trace`
  (on/off modulation with exponentially distributed sojourns), and a
  :func:`flash_crowd_trace` spike with exponential decay.  Traces compose
  with :meth:`RateTrace.then` and rescale with :meth:`RateTrace.scaled` /
  :meth:`RateTrace.with_mean`; :func:`trace_arrivals` realises any trace
  as a non-homogeneous Poisson stream by thinning (Lewis & Shedler).

All generators return arrival timestamps in **nanoseconds**, sorted
ascending, strictly inside ``[0, duration_s * 1e9)`` — the input format of
the :mod:`repro.serving.queueing` simulators and of
:meth:`repro.runtime.session.Session.serve`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

#: A rate function: seconds from the start of its segment -> queries/s.
RateFn = Callable[[float], float]

#: Grid density used to sample a segment's peak/mean rate when the
#: constructor cannot supply them in closed form.
_SAMPLES_PER_SEGMENT = 512

#: Candidates :func:`trace_arrivals` thins per pass: large enough to
#: amortise each pass's calls, small enough that a pass's scratch arrays
#: stay in cache.
_THIN_CHUNK = 1 << 16


def check_positive(name: str, value: float) -> None:
    """Reject ``value`` unless it is a positive, finite number."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value}")


def check_non_negative(name: str, value: float) -> None:
    """Reject ``value`` unless it is a finite number ``>= 0``."""
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and >= 0, got {value}")


def poisson_arrivals(
    rng: np.random.Generator, rate_per_s: float, duration_s: float
) -> np.ndarray:
    """Arrival timestamps (ns) of a Poisson process over ``duration_s``.

    Recommendation traffic is commonly modelled as Poisson at short
    timescales (DeepRecSys models query arrival patterns explicitly).
    Gaps are redrawn until their running sum passes the horizon, so the
    returned stream always covers the full window — a single draw sized
    from the expectation can otherwise leave the tail of the window
    silently empty.
    """
    check_positive("rate_per_s", rate_per_s)
    check_positive("duration_s", duration_s)
    horizon_ns = duration_s * 1e9
    expected = rate_per_s * duration_s
    # Draw slightly more gaps than needed per round, then truncate.
    n = int(expected + 6 * np.sqrt(expected) + 16)
    rounds: list[np.ndarray] = []
    reached = 0.0
    while reached < horizon_ns:
        times = rng.exponential(1e9 / rate_per_s, size=n)
        np.cumsum(times, out=times)
        if rounds:
            times += reached
        rounds.append(times)
        reached = float(times[-1])
    times = rounds[0] if len(rounds) == 1 else np.concatenate(rounds)
    # Cumulative sums of non-negative gaps never decrease, so the
    # arrivals inside the horizon are a prefix.
    return times[: np.searchsorted(times, horizon_ns)]


def uniform_arrivals(rate_per_s: float, duration_s: float) -> np.ndarray:
    """Deterministic evenly spaced arrivals (closed-form sanity baseline).

    The count is ``round(rate_per_s * duration_s)`` computed directly —
    dividing the horizon by the float gap loses an arrival whenever
    ``1e9 / rate_per_s`` rounds down.
    """
    check_positive("rate_per_s", rate_per_s)
    check_positive("duration_s", duration_s)
    count = round(rate_per_s * duration_s)
    gap_ns = 1e9 / rate_per_s
    return np.arange(count, dtype=np.float64) * gap_ns


# ---------------------------------------------------------------------------
# Time-varying rate traces
# ---------------------------------------------------------------------------


def _eval_rate(fn: RateFn, t_s: np.ndarray) -> np.ndarray:
    """Evaluate a rate function over an array of local times (seconds)."""
    try:
        out = np.asarray(fn(t_s), dtype=np.float64)
        if out.shape == t_s.shape:
            return out
    except (TypeError, ValueError):
        pass
    return np.array([float(fn(float(t))) for t in t_s], dtype=np.float64)


@dataclass(frozen=True)
class RateSegment:
    """One piece of a :class:`RateTrace`.

    ``rate_fn(t)`` gives queries/s at local time ``t`` seconds into the
    segment, for ``t`` in ``[0, duration_s)``.  It must be pointwise —
    each output depends only on its own input time — because
    :func:`trace_arrivals` evaluates it over the candidates in chunks.
    ``peak_rate`` is the thinning envelope: an upper bound on
    ``rate_fn`` over the segment.  Both rates must be finite and
    ``>= 0``.  Use :func:`segment` to build one — it samples peak and
    mean on a fixed grid when the caller has no closed form.
    """

    duration_s: float
    rate_fn: RateFn
    peak_rate: float
    mean_rate: float

    def __post_init__(self) -> None:
        check_positive("duration_s", self.duration_s)
        check_non_negative("peak_rate", self.peak_rate)
        check_non_negative("mean_rate", self.mean_rate)
        if self.mean_rate > self.peak_rate * (1 + 1e-9):
            raise ValueError(
                f"segment mean rate {self.mean_rate} exceeds its peak "
                f"{self.peak_rate}"
            )


def segment(
    duration_s: float,
    rate_fn: RateFn,
    peak_rate: float | None = None,
    mean_rate: float | None = None,
) -> RateSegment:
    """Build a :class:`RateSegment`, sampling peak/mean when not supplied.

    Sampling uses a fixed :data:`_SAMPLES_PER_SEGMENT`-point grid, so the
    envelope is exact for the constructors in this module (which pass
    closed-form peaks anyway) and approximate for arbitrary user
    functions; :func:`trace_arrivals` keeps every candidate whose
    acceptance ratio exceeds 1, so an undershooting sampled envelope
    mildly flattens local maxima rather than corrupting the stream.
    Grid samples must be finite and non-negative.
    """
    check_positive("duration_s", duration_s)
    sampled_mean = mean_rate is None
    if peak_rate is None or mean_rate is None:
        grid = np.linspace(0.0, duration_s, _SAMPLES_PER_SEGMENT, endpoint=False)
        rates = _eval_rate(rate_fn, grid)
        if not np.isfinite(rates).all():
            raise ValueError("rate_fn must be finite over the segment")
        if (rates < 0).any():
            raise ValueError("rate_fn must be non-negative over the segment")
        if peak_rate is None:
            peak_rate = float(rates.max(initial=0.0))
        if mean_rate is None:
            mean_rate = float(rates.mean()) if rates.size else 0.0
    if sampled_mean:
        # Grid sampling can land the mean a hair above a closed-form
        # peak (e.g. a flat function quoted exactly); clamping is only
        # legitimate for that numerical case — a caller-supplied
        # mean above the peak is an input error RateSegment rejects.
        mean_rate = min(mean_rate, peak_rate)
    return RateSegment(duration_s, rate_fn, peak_rate, mean_rate)


@dataclass(frozen=True)
class RateTrace:
    """Time-varying offered load over a finite horizon.

    A trace is an ordered tuple of :class:`RateSegment` s; segment ``k``
    starts where segment ``k - 1`` ends.  Traces are the unit the serving
    lab (:mod:`repro.serving.lab`) and SLA-aware fleet planner
    (:func:`repro.deploy.capacity.plan_fleet_sla`) operate on: build one
    with :func:`diurnal_trace` / :func:`bursty_trace` /
    :func:`flash_crowd_trace` / :meth:`constant`, compose with
    :meth:`then`, rescale with :meth:`scaled` or :meth:`with_mean`, and
    realise arrivals with :func:`trace_arrivals`.
    """

    segments: tuple[RateSegment, ...]

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("a RateTrace needs at least one segment")

    # -- construction -------------------------------------------------------

    @classmethod
    def constant(cls, rate_per_s: float, duration_s: float) -> "RateTrace":
        """A steady trace: one segment at a fixed rate (0 allowed)."""
        check_non_negative("rate_per_s", rate_per_s)
        return cls(
            (
                RateSegment(
                    duration_s,
                    lambda t, r=rate_per_s: np.full_like(
                        np.asarray(t, dtype=np.float64), r
                    )
                    if np.ndim(t)
                    else r,
                    peak_rate=rate_per_s,
                    mean_rate=rate_per_s,
                ),
            )
        )

    @classmethod
    def concat(cls, traces: Iterable["RateTrace"]) -> "RateTrace":
        """One trace running the given traces back to back."""
        segments: list[RateSegment] = []
        for trace in traces:
            segments.extend(trace.segments)
        return cls(tuple(segments))

    def then(self, other: "RateTrace") -> "RateTrace":
        """This trace followed by ``other`` (composition in time)."""
        return RateTrace(self.segments + other.segments)

    def scaled(self, factor: float) -> "RateTrace":
        """The same load *shape* with every rate multiplied by ``factor``.

        ``factor`` must be strictly positive and finite: a zero factor
        would zero every segment's rate, and the resulting trace
        silently realises an *empty* arrival stream downstream (which
        every serving consumer rejects much later, with a far less
        helpful error); a NaN or infinite one would do the same through
        a non-finite envelope.
        """
        check_positive("factor", factor)
        return RateTrace(
            tuple(
                RateSegment(
                    seg.duration_s,
                    lambda t, fn=seg.rate_fn, f=factor: np.asarray(fn(t)) * f
                    if np.ndim(t)
                    else fn(t) * f,
                    peak_rate=seg.peak_rate * factor,
                    mean_rate=seg.mean_rate * factor,
                )
                for seg in self.segments
            )
        )

    def with_mean(self, mean_rate_per_s: float) -> "RateTrace":
        """The same shape rescaled so the horizon-mean rate matches.

        This is how the SLA-aware fleet planner derives *per-node* load
        from an aggregate trace: Poisson splitting across ``n`` nodes
        preserves the shape and divides the mean.  ``mean_rate_per_s``
        must be strictly positive — a zero target mean would silently
        realise an empty arrival stream downstream.
        """
        check_positive("mean_rate_per_s", mean_rate_per_s)
        current = self.mean_rate
        if current <= 0:
            raise ValueError("cannot rescale a trace whose mean rate is 0")
        return self.scaled(mean_rate_per_s / current)

    # -- interrogation ------------------------------------------------------

    @property
    def duration_s(self) -> float:
        return sum(seg.duration_s for seg in self.segments)

    @property
    def peak_rate(self) -> float:
        return max(seg.peak_rate for seg in self.segments)

    @property
    def mean_rate(self) -> float:
        """Duration-weighted mean rate over the horizon."""
        total = sum(seg.mean_rate * seg.duration_s for seg in self.segments)
        return total / self.duration_s

    def rate_at(self, t_s: float) -> float:
        """Offered rate at ``t_s`` seconds (0 outside the horizon)."""
        if t_s < 0:
            return 0.0
        for seg in self.segments:
            if t_s < seg.duration_s:
                return float(seg.rate_fn(t_s))
            t_s -= seg.duration_s
        return 0.0

    def rates_at(self, t_s: "np.ndarray | Sequence[float]") -> np.ndarray:
        """Vectorised :meth:`rate_at`: offered rate per time in ``t_s``.

        Times are bucketed into segments with one ``searchsorted`` and
        each segment's rate function is evaluated once over its bucket,
        so callers sampling a trace densely (the autoscaling simulator
        windows, plotting) avoid a Python-level :meth:`rate_at` call per
        point.  Times outside the horizon evaluate to 0, matching
        :meth:`rate_at`.
        """
        t = np.asarray(t_s, dtype=np.float64)
        if len(self.segments) == 1:
            # Single-segment fast path (window slices, the simple trace
            # constructors): no bucketing machinery, one rate_fn call.
            seg = self.segments[0]
            valid = (t >= 0) & (t < seg.duration_s)
            if valid.all():
                return _eval_rate(seg.rate_fn, t)
            out = np.zeros(t.shape, dtype=np.float64)
            out[valid] = _eval_rate(seg.rate_fn, t[valid])
            return out
        bounds = np.concatenate(
            ([0.0], np.cumsum([seg.duration_s for seg in self.segments]))
        )
        out = np.zeros(t.shape, dtype=np.float64)
        idx = np.searchsorted(bounds, t, side="right") - 1
        valid = (t >= 0) & (idx >= 0) & (idx < len(self.segments))
        for k, seg in enumerate(self.segments):
            mask = valid & (idx == k)
            if mask.any():
                out[mask] = _eval_rate(seg.rate_fn, t[mask] - bounds[k])
        return out


def diurnal_trace(
    base_rate_per_s: float,
    duration_s: float,
    amplitude: float = 0.6,
    period_s: float | None = None,
    phase: float = 0.0,
) -> RateTrace:
    """A sinusoidal day/night load swing around ``base_rate_per_s``.

    ``rate(t) = base * (1 + amplitude * sin(2 pi t / period + phase))``;
    ``amplitude`` must sit in ``[0, 1)`` so the rate stays positive.  The
    period defaults to the whole horizon (one full swing per window).
    """
    check_positive("base_rate_per_s", base_rate_per_s)
    check_positive("duration_s", duration_s)
    if not 0 <= amplitude < 1:
        raise ValueError(f"amplitude must be in [0, 1), got {amplitude}")
    period = duration_s if period_s is None else period_s
    check_positive("period_s", period)
    omega = 2 * math.pi / period

    def rate(t, base=base_rate_per_s, a=amplitude, w=omega, p=phase):
        return base * (1 + a * np.sin(w * np.asarray(t) + p))

    mean = None if phase or period != duration_s else base_rate_per_s
    return RateTrace(
        (
            segment(
                duration_s,
                rate,
                peak_rate=base_rate_per_s * (1 + amplitude),
                mean_rate=mean,
            ),
        )
    )


def bursty_trace(
    rng: np.random.Generator,
    base_rate_per_s: float,
    duration_s: float,
    burst_rate_per_s: float | None = None,
    mean_burst_s: float | None = None,
    mean_gap_s: float | None = None,
) -> RateTrace:
    """An MMPP-style on/off bursty load: one realised modulation path.

    A two-state Markov-modulated Poisson process alternates a quiet state
    at ``base_rate_per_s`` and a burst state at ``burst_rate_per_s``
    (default 4x base); sojourn times are exponential with means
    ``mean_gap_s`` / ``mean_burst_s`` (defaults: 20% / 10% of the
    horizon).  The modulation path is drawn from ``rng`` here, into
    piecewise-constant segments, so the returned trace is a concrete
    realisation — reusable, composable, and deterministic given the seed.
    """
    check_positive("base_rate_per_s", base_rate_per_s)
    check_positive("duration_s", duration_s)
    burst = 4.0 * base_rate_per_s if burst_rate_per_s is None else burst_rate_per_s
    if burst < base_rate_per_s:
        raise ValueError(
            f"burst_rate_per_s {burst} must be >= base_rate_per_s "
            f"{base_rate_per_s}"
        )
    mean_burst = duration_s / 10 if mean_burst_s is None else mean_burst_s
    mean_gap = duration_s / 5 if mean_gap_s is None else mean_gap_s
    check_positive("mean_burst_s", mean_burst)
    check_positive("mean_gap_s", mean_gap)

    traces: list[RateTrace] = []
    elapsed, bursting = 0.0, False
    while elapsed < duration_s:
        mean_sojourn = mean_burst if bursting else mean_gap
        sojourn = min(
            float(rng.exponential(mean_sojourn)), duration_s - elapsed
        )
        if sojourn > 0:
            rate = burst if bursting else base_rate_per_s
            traces.append(RateTrace.constant(rate, sojourn))
            elapsed += sojourn
        bursting = not bursting
    return RateTrace.concat(traces)


def flash_crowd_trace(
    base_rate_per_s: float,
    duration_s: float,
    spike_rate_per_s: float | None = None,
    spike_at_s: float | None = None,
    decay_s: float | None = None,
) -> RateTrace:
    """A flash-crowd spike: steady load, a jump, exponential decay back.

    The rate is ``base_rate_per_s`` until ``spike_at_s`` (default a third
    into the window), jumps to ``spike_rate_per_s`` (default 5x base),
    and decays back towards base with time constant ``decay_s`` (default
    a tenth of the window).
    """
    check_positive("base_rate_per_s", base_rate_per_s)
    check_positive("duration_s", duration_s)
    spike = 5.0 * base_rate_per_s if spike_rate_per_s is None else spike_rate_per_s
    if spike < base_rate_per_s:
        raise ValueError(
            f"spike_rate_per_s {spike} must be >= base_rate_per_s "
            f"{base_rate_per_s}"
        )
    at = duration_s / 3 if spike_at_s is None else spike_at_s
    if not 0 <= at < duration_s:
        raise ValueError(
            f"spike_at_s must be in [0, duration_s), got {at}"
        )
    tau = duration_s / 10 if decay_s is None else decay_s
    check_positive("decay_s", tau)

    def decayed(t, base=base_rate_per_s, s=spike, k=tau):
        return base + (s - base) * np.exp(-np.asarray(t) / k)

    tail = segment(
        duration_s - at, decayed, peak_rate=spike, mean_rate=None
    )
    if at == 0:
        return RateTrace((tail,))
    return RateTrace.constant(base_rate_per_s, at).then(RateTrace((tail,)))


def trace_arrivals(rng: np.random.Generator, trace: RateTrace) -> np.ndarray:
    """Realise a :class:`RateTrace` as arrival timestamps (ns) by thinning.

    Per segment, a homogeneous Poisson stream is drawn at the segment's
    ``peak_rate`` envelope and each candidate at local time ``t`` is kept
    with probability ``rate_fn(t) / peak_rate`` (Lewis & Shedler).  The
    result is a non-homogeneous Poisson process with exactly the trace's
    intensity, covering the full horizon.

    Draw order, segment by segment: all of a segment's exponential gaps
    first (:func:`poisson_arrivals`), then one uniform per candidate in
    candidate order.  The uniforms are drawn a chunk at a time, which
    yields the same doubles as one call per segment, so a seed always
    realises the same stream.  A zero-rate segment draws nothing.
    """
    pieces: list[np.ndarray] = []
    offset_ns = 0.0
    for seg in trace.segments:
        if seg.peak_rate > 0:
            candidates = poisson_arrivals(rng, seg.peak_rate, seg.duration_s)
            if candidates.size:
                kept = candidates[_accepted(rng, seg, candidates)]
                if offset_ns:
                    kept += offset_ns
                pieces.append(kept)
        offset_ns += seg.duration_s * 1e9
    if not pieces:
        return np.empty(0, dtype=np.float64)
    return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)


def _accepted(
    rng: np.random.Generator, seg: RateSegment, candidates: np.ndarray
) -> np.ndarray:
    """Thinning's keep mask over one segment's candidates (ns).

    Candidate ``i`` is kept when its uniform draw falls below
    ``rate_fn(t_i) / peak_rate``.  No clip to ``[0, 1]``: for a uniform
    in ``[0, 1)`` the comparison already reads a ratio above 1 as
    "keep" and one below 0, or NaN, as "drop".  The work runs over
    :data:`_THIN_CHUNK`-candidate slices through reused buffers, one
    ``rng.random`` call per slice; consecutive calls yield the same
    doubles as one call over the whole segment.
    """
    n = candidates.size
    keep = np.empty(n, dtype=bool)
    local_s = np.empty(min(n, _THIN_CHUNK))
    ratio = np.empty_like(local_s)
    for start in range(0, n, _THIN_CHUNK):
        stop = min(start + _THIN_CHUNK, n)
        t = local_s[: stop - start]
        np.divide(candidates[start:stop], 1e9, out=t)
        r = ratio[: t.size]
        np.divide(_eval_rate(seg.rate_fn, t), seg.peak_rate, out=r)
        np.less(rng.random(t.size), r, out=keep[start:stop])
    return keep


def trace_for(
    shape: str,
    rng: np.random.Generator | None,
    rate_per_s: float,
    duration_s: float,
) -> RateTrace:
    """The named trace shape around a base rate — the single source of
    the shapes' default parameters.

    ``shape`` is one of :data:`TRACE_SHAPES`: ``"constant"`` (steady
    control), ``"diurnal"``, ``"bursty"`` (needs ``rng`` for its
    modulation path), or ``"flash"``, each built with this module's
    default shape parameters.  Both :func:`arrivals_for` and the
    autoscaling CLI (``repro autoscale --trace``) resolve shapes here,
    so the two surfaces can never drift apart.
    """
    if shape == "constant":
        return RateTrace.constant(rate_per_s, duration_s)
    if shape == "diurnal":
        return diurnal_trace(rate_per_s, duration_s)
    if shape == "bursty":
        if rng is None:
            raise ValueError(
                "bursty traces draw a modulation path; pass an rng"
            )
        return bursty_trace(rng, rate_per_s, duration_s)
    if shape == "flash":
        return flash_crowd_trace(rate_per_s, duration_s)
    raise ValueError(
        f"unknown trace shape {shape!r}; expected one of {TRACE_SHAPES}"
    )


def arrivals_for(
    process: str,
    rng: np.random.Generator,
    rate_per_s: float,
    duration_s: float,
) -> np.ndarray:
    """Arrivals for a named process at a given mean rate.

    ``process`` is one of :data:`ARRIVAL_PROCESSES`: ``"poisson"`` and
    ``"uniform"`` use the steady generators directly; ``"diurnal"``,
    ``"bursty"``, and ``"flash"`` build the corresponding trace
    (:func:`trace_for`) around ``rate_per_s`` with this module's default
    shape parameters and thin it.  The serving lab and ``repro serve``
    sweep these by name.
    """
    if process not in ARRIVAL_PROCESSES:
        raise ValueError(
            f"unknown arrival process {process!r}; "
            f"expected one of {ARRIVAL_PROCESSES}"
        )
    if process == "poisson":
        return poisson_arrivals(rng, rate_per_s, duration_s)
    if process == "uniform":
        return uniform_arrivals(rate_per_s, duration_s)
    return trace_arrivals(rng, trace_for(process, rng, rate_per_s, duration_s))


#: Processes :func:`arrivals_for` (and the serving lab / CLI) know by name.
ARRIVAL_PROCESSES: Sequence[str] = (
    "poisson",
    "uniform",
    "diurnal",
    "bursty",
    "flash",
)

#: Trace shapes :func:`trace_for` (and ``repro autoscale``) know by name.
TRACE_SHAPES: Sequence[str] = (
    "diurnal",
    "bursty",
    "flash",
    "constant",
)
