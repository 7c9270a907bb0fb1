"""Deterministic, mergeable streaming quantile digest.

The serving stack's whole argument is about tail latency, yet before
this module every consumer of a percentile materialised the full
per-request latency array and called :func:`numpy.percentile` on it.
That is fine for one 50k-query sweep point; it is not fine for
always-on telemetry over ten-million-arrival trace replays, where the
observability layer must not own O(queries) memory per metric.

:class:`QuantileDigest` keeps O(bins) state instead:

* a **fixed log-spaced bin histogram** — bin edges form a geometric
  grid of ratio :data:`BIN_RATIO`, so the worst-case *relative* error
  of any reported quantile is bounded by half a bin width (well under
  the 1% acceptance bound), independent of how many values streamed in;
* an **exact small-sample fallback** — until :data:`EXACT_LIMIT`
  values have been observed the raw samples are kept and quantiles are
  bit-for-bit :func:`numpy.percentile`, so small test paths lose
  nothing;
* an associative, order-invariant :meth:`merge` — shard-local digests
  combine into fleet-wide tails without ever shipping raw samples;
* a stable serialised form (:meth:`to_dict` / :meth:`from_dict`) whose
  JSON encoding is byte-identical across runs.

Everything is deterministic: no randomness, no wall clocks, and the
vectorised :meth:`add_many` bins every value exactly as one-at-a-time
adds would, which the parity tests check against a scalar reference.

The module also hosts :func:`exact_quantile`, the exact percentile
that `ServingResult.percentile_ms`, the FPGA trace report, the serving
labs and the autoscale windows all route through — one place to own
the rank convention instead of four reimplementations.  It computes
NumPy's ``linear`` method itself, from one partition, bit for bit.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

import numpy as np

#: Geometric ratio between consecutive bin edges.  Reported quantiles
#: interpolate within a bin, so the worst-case relative error is about
#: half the bin width — comfortably inside the 1% acceptance bound.
BIN_RATIO = 1.005

#: Magnitude range the log-spaced grid resolves.  Values below
#: :data:`MIN_TRACKED` (including exact zeros) land in the underflow
#: bin; values above :data:`MAX_TRACKED` land in the overflow bin.
#: In the default milliseconds unit this spans sub-nanosecond to ~3
#: hours, far beyond any simulated latency.
MIN_TRACKED = 1e-6
MAX_TRACKED = 1e7

#: Number of interior log-spaced bins implied by the ratio and range.
NUM_BINS = int(np.ceil(np.log(MAX_TRACKED / MIN_TRACKED) / np.log(BIN_RATIO)))

#: Raw samples kept before spilling into bins.  Below this count the
#: digest answers quantiles exactly (bit-for-bit ``np.percentile``).
EXACT_LIMIT = 512

#: Bin edges: ``EDGES[i - 1]..EDGES[i]`` bounds interior bin ``i``.
#: Built once with geomspace so the grid is identical everywhere.
EDGES: np.ndarray = np.geomspace(MIN_TRACKED, MAX_TRACKED, NUM_BINS + 1)

#: Total bin count including the underflow (index 0) and overflow
#: (index ``NUM_BINS + 1``) buckets.
TOTAL_BINS = NUM_BINS + 2

#: Log-domain constants for the O(1)-per-value bin map (see
#: :func:`_bin_index`): one log + one multiply instead of a binary
#: search over the edge grid, which is what keeps always-on telemetry
#: cheap on ten-million-value batches.
_LOG_MIN = float(np.log(MIN_TRACKED))
_INV_LOG_STEP = NUM_BINS / float(
    np.log(MAX_TRACKED) - np.log(MIN_TRACKED)
)

#: Values :func:`_bin_index` maps per pass: its scratch buffer stays in
#: cache across the pass's five operations.
_BIN_CHUNK = 1 << 16

#: :func:`_bin_index`'s clip bounds as NumPy integers: ``np.clip`` checks
#: Python-int bounds against the dtype's range on every call, a few
#: microseconds that one-value adds would pay each time.
_BIN_BOUNDS = (np.int64(0), np.int64(TOTAL_BINS - 1))


def exact_quantile(
    values: np.ndarray | Sequence[float],
    q: float | Sequence[float],
) -> float | np.ndarray:
    """Exact percentile(s) of ``values`` — the stack's one rank convention.

    NumPy's ``linear`` method (Hyndman & Fan's method 7) in NumPy's own
    arithmetic, so every result is bit-identical to
    :func:`numpy.percentile`: the virtual rank ``(n - 1) * q / 100``,
    its floor, and NumPy's ``_lerp`` between the two neighbouring order
    statistics.  Those come from one partition of a copy at the order
    statistics NumPy partitions at (the first, the last, and each
    rank's floor and floor + 1), so even ``-0.0`` and ``0.0`` land
    where NumPy puts them.  Scalar ``q`` returns a float, a sequence an
    array; several percentiles cost one copy and one partition.

    Raises :class:`ValueError` for an empty ``values``, for a NaN or
    infinite value (read off the partition's first and last order
    statistics, so the check costs no extra pass), and for a ``q`` that
    is a bool, NaN or outside ``[0, 100]``.
    """
    arr = np.asarray(values, dtype=np.float64)
    n = arr.size
    if n == 0:
        raise ValueError("exact_quantile needs at least one value")
    qs = np.asarray(q, dtype=object)
    # Per percentile: the order statistics below and above its rank,
    # and the interpolation weight, as NumPy computes them.
    ranks = []
    kth = {0, -1}
    for p in qs.flat:
        if isinstance(p, (bool, np.bool_)) or not 0 <= p <= 100:
            raise ValueError(f"exact_quantile q must be in [0, 100], got {p!r}")
        virtual = (n - 1) * (float(p) / 100)
        if virtual < n - 1:
            low = math.floor(virtual)
            high = low + 1
        else:  # past the last rank NumPy takes the maximum twice
            low = high = -1
        kth.update((low, high))
        ranks.append((low, high, virtual - low))
    part = arr.flatten()
    part.partition(sorted(kth))
    # NaN partitions last, so these two bound every value.
    if not (math.isfinite(part[0]) and math.isfinite(part[-1])):
        raise ValueError("exact_quantile values must be finite")
    out = []
    for low, high, gamma in ranks:
        a, b = float(part[low]), float(part[high])
        diff = b - a
        out.append(b - diff * (1 - gamma) if gamma >= 0.5 else a + diff * gamma)
    if qs.ndim == 0:
        return out[0]
    return np.asarray(out, dtype=np.float64).reshape(qs.shape)


class QuantileDigest:
    """Streaming quantile sketch with bounded relative error.

    State is a fixed histogram over :data:`EDGES` plus scalar
    aggregates (count / sum / min / max); below :data:`EXACT_LIMIT`
    observations the raw samples are retained and quantiles are exact.
    All operations are deterministic and :meth:`merge` is associative
    and order-invariant, so per-shard digests compose into one global
    digest regardless of merge tree shape.
    """

    __slots__ = ("_counts", "_exact", "_count", "_sum", "_min", "_max")

    def __init__(self) -> None:
        self._counts: np.ndarray | None = None  # allocated on first spill
        self._exact: list[float] | None = []  # None once binned
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")

    # -- observation ---------------------------------------------------

    def add(self, value: float) -> None:
        """Observe one value.

        Once binned, the value bumps its one bin, which
        :func:`_bin_index` picks exactly as :meth:`add_many` does, and
        the aggregates move as a one-value batch moves them.
        """
        arr = np.asarray([value], dtype=np.float64)
        if self._counts is None:
            self.add_many(arr)
            return
        v = float(arr[0])
        if not math.isfinite(v):
            raise ValueError("digest values must be finite")
        self._count += 1
        # NumPy sums a one-value batch as 0.0 + v, turning -0.0 into 0.0.
        self._sum += 0.0 + v
        self._min = min(self._min, v)
        self._max = max(self._max, v)
        self._counts[_bin_index(arr)[0]] += 1

    def add_many(self, values: np.ndarray | Sequence[float]) -> None:
        """Observe a batch of values (vectorised hot path).

        One ``searchsorted`` against the shared edge grid plus one
        ``bincount`` — ~O(n log bins) with no Python-level loop, which
        is what keeps always-on telemetry inside the 10M-arrival trace
        replay's wall-clock ceiling.
        """
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 1:
            arr = arr.ravel()
        if arr.size == 0:
            return
        # A finite sum implies finite values, so only a non-finite sum
        # needs the element check.  The guarded sum keeps a non-finite
        # batch from warning before it is rejected; finite values whose
        # sum overflows are summed again unguarded, so NumPy's overflow
        # warning still reaches the caller.
        with np.errstate(over="ignore", invalid="ignore"):
            total = float(arr.sum())
        if not math.isfinite(total):
            if not np.isfinite(arr).all():
                raise ValueError("digest values must be finite")
            total = float(arr.sum())
        self._count += int(arr.size)
        self._sum += total
        self._min = min(self._min, float(arr.min()))
        self._max = max(self._max, float(arr.max()))
        if self._exact is not None:
            if self._count <= EXACT_LIMIT:
                self._exact.extend(float(v) for v in arr)
                return
            self._spill()
        assert self._counts is not None
        self._counts += np.bincount(
            _bin_index(arr), minlength=TOTAL_BINS
        )

    def _spill(self) -> None:
        """Move retained exact samples into the bin histogram."""
        assert self._exact is not None
        self._counts = np.zeros(TOTAL_BINS, dtype=np.int64)
        if self._exact:
            exact = np.asarray(self._exact, dtype=np.float64)
            self._counts += np.bincount(
                _bin_index(exact), minlength=TOTAL_BINS
            )
        self._exact = None

    # -- aggregates ----------------------------------------------------

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        if self._count == 0:
            raise ValueError("empty digest has no mean")
        return self._sum / self._count

    @property
    def min(self) -> float:
        if self._count == 0:
            raise ValueError("empty digest has no min")
        return self._min

    @property
    def max(self) -> float:
        if self._count == 0:
            raise ValueError("empty digest has no max")
        return self._max

    @property
    def is_exact(self) -> bool:
        """Whether quantiles are still answered from raw samples."""
        return self._exact is not None

    # -- quantiles -----------------------------------------------------

    def quantile(self, q: float) -> float:
        """Value at percentile ``q`` (0–100), ``np.percentile`` convention.

        Exact while in the small-sample regime; once binned, the value
        is linearly interpolated inside the bin containing the target
        rank (samples assumed uniform within a bin) and clamped to the
        observed ``[min, max]``, bounding relative error by roughly
        half a bin width.
        """
        if not 0 <= q <= 100:
            raise ValueError(f"q must be in [0, 100], got {q}")
        if self._count == 0:
            raise ValueError("empty digest has no quantiles")
        if self._exact is not None:
            return float(exact_quantile(self._exact, q))
        assert self._counts is not None
        if q == 0:
            return self._min
        if q == 100:
            return self._max
        rank = q / 100.0 * (self._count - 1)
        cumulative = np.cumsum(self._counts)
        # Bin holding the sample at floor(rank) (0-based global order).
        target = int(np.floor(rank))
        bin_idx = int(np.searchsorted(cumulative, target, side="right"))
        in_bin = int(self._counts[bin_idx])
        before = int(cumulative[bin_idx]) - in_bin
        lo, hi = _bin_bounds(bin_idx)
        if bin_idx >= TOTAL_BINS - 1:
            hi = self._max  # overflow bin stretches to the observed max
        # Position of the fractional rank among this bin's samples,
        # mapped linearly across the bin's width.
        position = (rank - before + 0.5) / in_bin
        value = lo + (hi - lo) * min(max(position, 0.0), 1.0)
        return float(min(max(value, self._min), self._max))

    def quantiles(self, qs: Iterable[float]) -> list[float]:
        """:meth:`quantile` over several percentiles."""
        return [self.quantile(q) for q in qs]

    # -- merging -------------------------------------------------------

    def merge(self, other: "QuantileDigest") -> "QuantileDigest":
        """Combine two digests into a new one (associative, commutative).

        Exact + exact stays exact while the combined count fits the
        small-sample budget; any other combination spills to bins,
        where merging is plain count addition.  Because each value's
        bin is decided independently of its neighbours, every merge
        tree over the same multiset of observations yields identical
        state.
        """
        merged = QuantileDigest()
        merged._count = self._count + other._count
        merged._sum = self._sum + other._sum
        merged._min = min(self._min, other._min)
        merged._max = max(self._max, other._max)
        if (
            self._exact is not None
            and other._exact is not None
            and merged._count <= EXACT_LIMIT
        ):
            merged._exact = [*self._exact, *other._exact]
            return merged
        merged._exact = None
        merged._counts = np.zeros(TOTAL_BINS, dtype=np.int64)
        for side in (self, other):
            if side._exact is not None:
                if side._exact:
                    merged._counts += np.bincount(
                        _bin_index(
                            np.asarray(side._exact, dtype=np.float64)
                        ),
                        minlength=TOTAL_BINS,
                    )
            else:
                assert side._counts is not None
                merged._counts += side._counts
        return merged

    # -- serialisation -------------------------------------------------

    def to_dict(self) -> dict[str, object]:
        """Stable JSON-ready form (sorted samples, sparse bins)."""
        payload: dict[str, object] = {
            "ratio": BIN_RATIO,
            "range": [MIN_TRACKED, MAX_TRACKED],
            "count": self._count,
            "sum": self._sum,
            "min": self._min if self._count else None,
            "max": self._max if self._count else None,
        }
        if self._exact is not None:
            payload["exact"] = sorted(self._exact)
            payload["bins"] = None
        else:
            assert self._counts is not None
            occupied = np.flatnonzero(self._counts)
            payload["exact"] = None
            payload["bins"] = {
                str(int(i)): int(self._counts[i]) for i in occupied
            }
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "QuantileDigest":
        """Rebuild a digest from :meth:`to_dict` output."""
        if payload.get("ratio") != BIN_RATIO or list(
            payload.get("range", ())
        ) != [MIN_TRACKED, MAX_TRACKED]:
            raise ValueError(
                "digest payload was serialised with a different bin grid"
            )
        digest = cls()
        digest._count = int(payload["count"])  # type: ignore[arg-type]
        digest._sum = float(payload["sum"])  # type: ignore[arg-type]
        if digest._count:
            digest._min = float(payload["min"])  # type: ignore[arg-type]
            digest._max = float(payload["max"])  # type: ignore[arg-type]
        exact = payload.get("exact")
        if exact is not None:
            digest._exact = [float(v) for v in exact]  # type: ignore[union-attr]
            if len(digest._exact) != digest._count:
                raise ValueError("digest payload count mismatch")
            return digest
        bins = payload.get("bins")
        if not isinstance(bins, Mapping):
            raise ValueError("digest payload needs exact samples or bins")
        digest._exact = None
        digest._counts = np.zeros(TOTAL_BINS, dtype=np.int64)
        for key, value in bins.items():
            index = int(key)
            if not 0 <= index < TOTAL_BINS:
                raise ValueError(f"digest bin index {index} out of range")
            digest._counts[index] = int(value)
        if int(digest._counts.sum()) != digest._count:
            raise ValueError("digest payload count mismatch")
        return digest


def _bin_index(values: np.ndarray) -> np.ndarray:
    """Map finite values onto bin indices: 0 = underflow, last = overflow.

    Computed in the log domain (one vectorised log + multiply + floor)
    rather than by searching the edge grid; a value landing exactly on
    an edge may round to either neighbouring bin, which costs at most
    one bin width of quantile error — inside the stated bound either
    way — and is deterministic, so merges stay order-invariant.  Values
    are first raised to ``MIN_TRACKED / 2``, whose log already lands in
    the underflow bin, so zeros and negatives never reach the log.  The
    passes run over :data:`_BIN_CHUNK`-value slices in one reused
    buffer.
    """
    index = np.empty(values.size, dtype=np.int64)
    logs = np.empty(min(values.size, _BIN_CHUNK))
    for start in range(0, values.size, _BIN_CHUNK):
        part = values[start : start + _BIN_CHUNK]
        buf = logs[: part.size]
        np.maximum(part, MIN_TRACKED / 2, out=buf)
        np.log(buf, out=buf)
        buf -= _LOG_MIN
        buf *= _INV_LOG_STEP
        np.floor(buf, out=buf)
        out = index[start : start + part.size]
        np.copyto(out, buf, casting="unsafe")
        out += 1
        np.clip(out, *_BIN_BOUNDS, out=out)
    return index


def _bin_bounds(index: int) -> tuple[float, float]:
    """The value interval a bin index covers (for interpolation)."""
    if index <= 0:
        # Underflow: everything below the tracked range, floored at 0 —
        # latencies and the other observed quantities are non-negative.
        return 0.0, float(EDGES[0])
    if index >= TOTAL_BINS - 1:
        return float(EDGES[-1]), float(EDGES[-1])
    return float(EDGES[index - 1]), float(EDGES[index])
