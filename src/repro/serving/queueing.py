"""Queueing simulations of the two serving architectures.

:class:`BatchedServerSim` models the CPU engine: queries accumulate into a
batch that is dispatched when either ``batch_size`` queries are waiting or
the oldest query has waited ``batch_timeout_ms``; the whole batch completes
after the engine's batch latency.  Query latency therefore includes the
*batch assembly wait* — the cost section 4.1 eliminates.

:class:`PipelineServerSim` models MicroRec: items enter the pipeline one by
one (spacing >= the bottleneck II) and leave one fill-latency later.  No
assembly wait exists; latency stays near the single-item latency until the
load approaches pipeline capacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.serving.arrivals import check_non_negative, check_positive
from repro.telemetry.digest import exact_quantile


def sorted_arrivals(arrivals_ns: np.ndarray) -> np.ndarray:
    """A sorted float64 copy of an arrival stream, bit-identical to
    ``np.sort``.

    Generated streams arrive sorted, so a non-decreasing stream is
    copied instead of sorted.  The shortcut also needs a first element
    above 0: ``np.sort`` may reorder ``-0.0``/``0.0`` ties, and only
    sorting such a stream reproduces its bits.  A NaN fails both
    checks, so it is sorted too.  The copy keeps a result from aliasing
    the caller's array.
    """
    arrivals = np.asarray(arrivals_ns, dtype=np.float64)
    if (
        arrivals.size
        and arrivals[0] > 0
        and (arrivals[1:] >= arrivals[:-1]).all()
    ):
        return arrivals.copy()
    return np.sort(arrivals)


@dataclass(frozen=True)
class ServingResult:
    """Latency distribution of one serving simulation.

    Empty streams are rejected outright: zero arrivals would make every
    percentile a bare NumPy error and the mean a NaN-with-a-warning, so
    the degenerate case fails loudly here instead of propagating garbage
    into SLA curves (see :meth:`repro.runtime.session.Session.serve`).
    """

    arrivals_ns: np.ndarray
    completions_ns: np.ndarray

    def __post_init__(self) -> None:
        if self.arrivals_ns.size == 0:
            raise ValueError(
                "a ServingResult needs at least one query; the arrival "
                "stream is empty (raise the rate or the duration)"
            )
        if self.arrivals_ns.shape != self.completions_ns.shape:
            raise ValueError("arrivals and completions must align")
        if (self.completions_ns < self.arrivals_ns).any():
            raise ValueError("a query cannot complete before arriving")

    @property
    def count(self) -> int:
        return int(self.arrivals_ns.size)

    @property
    def latencies_ms(self) -> np.ndarray:
        return (self.completions_ns - self.arrivals_ns) / 1e6

    def percentile_ms(self, q: float) -> float:
        return float(exact_quantile(self.latencies_ms, q))

    @property
    def p50_ms(self) -> float:
        return self.percentile_ms(50)

    @property
    def p95_ms(self) -> float:
        return self.percentile_ms(95)

    @property
    def p99_ms(self) -> float:
        return self.percentile_ms(99)

    @property
    def p999_ms(self) -> float:
        return self.percentile_ms(99.9)

    @property
    def mean_ms(self) -> float:
        return float(self.latencies_ms.mean())

    def sla_attainment(self, slo_ms: float) -> float:
        """Fraction of queries answered within ``slo_ms``."""
        check_positive("slo_ms", slo_ms)
        return float((self.latencies_ms <= slo_ms).mean())

    @property
    def achieved_throughput_per_s(self) -> float:
        span_ns = float(self.completions_ns.max() - self.arrivals_ns.min())
        return self.count / (span_ns / 1e9) if span_ns > 0 else float("inf")

    def compact(
        self,
        *,
        slo_ms: float,
        slo_percentile: float = 99.0,
    ) -> "CompactServingResult":
        """Fold this result into summary statistics.

        Everything downstream consumers read — the exact percentile
        set, SLA attainment, achieved throughput — is computed once
        (with the same arithmetic the lazy properties use, so the
        numbers are bit-identical), and the returned object holds
        **no reference to the raw arrays**.  Sweeps over
        many grid points keep one compact record per point instead of
        every point's full latency array (see
        :func:`repro.serving.lab.load_sweep`).
        """
        check_positive("slo_ms", slo_ms)
        if not 0 < slo_percentile < 100:
            raise ValueError(
                f"slo_percentile must be in (0, 100), "
                f"got {slo_percentile}"
            )
        latencies = self.latencies_ms
        # One copy and one partition serve all five percentiles.
        p50, p95, p99, p999, tail = exact_quantile(
            latencies, (50, 95, 99, 99.9, slo_percentile)
        ).tolist()
        return CompactServingResult(
            queries=self.count,
            mean_ms=float(latencies.mean()),
            p50_ms=p50,
            p95_ms=p95,
            p99_ms=p99,
            p999_ms=p999,
            tail_ms=tail,
            slo_percentile=float(slo_percentile),
            sla_attainment=float((latencies <= slo_ms).mean()),
            slo_ms=float(slo_ms),
            achieved_qps=self.achieved_throughput_per_s,
        )


@dataclass(frozen=True)
class CompactServingResult:
    """Summary statistics of one serve, raw arrays dropped.

    Produced by :meth:`ServingResult.compact`: the exact percentile
    figures consumers already relied on.  Holding one of these costs
    O(1), not O(queries).
    """

    queries: int
    mean_ms: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    p999_ms: float
    #: Exact latency at ``slo_percentile`` (what SLO checks judge).
    tail_ms: float
    slo_percentile: float
    #: Fraction of queries answered within ``slo_ms``.
    sla_attainment: float
    slo_ms: float
    achieved_qps: float

    @property
    def meets_slo(self) -> bool:
        return self.tail_ms <= self.slo_ms


class BatchedServerSim:
    """CPU-style server: batch assembly + batched execution.

    ``batch_latency_ms(B)`` supplies the engine's latency for a batch of
    ``B`` (e.g. ``CpuCostModel.end_to_end_latency_ms``).
    """

    def __init__(
        self,
        batch_latency_ms: Callable[[int], float],
        batch_size: int,
        batch_timeout_ms: float = 10.0,
    ):
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        check_non_negative("batch_timeout_ms", batch_timeout_ms)
        self.batch_latency_ms = batch_latency_ms
        self.batch_size = batch_size
        self.batch_timeout_ns = batch_timeout_ms * 1e6

    def run(self, arrivals_ns: np.ndarray) -> ServingResult:
        """Serve a (sorted copy of the) arrival stream batch by batch.

        The loop is inherently sequential — each batch's dispatch time
        depends on when the server freed from the previous one — but it
        advances a whole *batch* per iteration on scalar running state
        (an ``np.searchsorted`` probe per batch, per-batch
        ``(end, finish)`` accumulation expanded once by ``np.repeat``),
        which keeps the per-iteration cost to a handful of float ops
        and never materialises a Python list of the stream.  Arithmetic
        is op-for-op the original per-batch NumPy-scalar loop's (kept as
        the parity tests' reference), so the completion timeline is
        byte-identical.

        ``batch_latency_ms`` is memoised per batch count for the run —
        under sustained load nearly every batch is full, so a cost-model
        callable (a pure function of the batch size) is evaluated a
        handful of times instead of once per batch.
        """
        arrivals = sorted_arrivals(arrivals_ns)
        n = arrivals.size
        batch_size = self.batch_size
        timeout_ns = self.batch_timeout_ns
        latency_cache: dict[int, float] = {}
        raw_latency_ms = self.batch_latency_ms

        def batch_latency_ms(batch: int) -> float:
            cached = latency_cache.get(batch)
            if cached is None:
                cached = latency_cache[batch] = float(raw_latency_ms(batch))
            return cached

        inf = float("inf")
        ends: list[int] = []
        finishes: list[float] = []
        server_free = 0.0
        i = 0
        while i < n:
            first_arrival = arrivals[i]
            # Dispatch when the batch fills or the oldest query times out,
            # and no earlier than when the server frees up.
            fill_idx = i + batch_size - 1
            full_at = arrivals[fill_idx] if fill_idx < n else inf
            timeout_at = first_arrival + timeout_ns
            dispatch = full_at if full_at < timeout_at else timeout_at
            if dispatch < first_arrival:
                dispatch = first_arrival
            if dispatch < server_free:
                dispatch = server_free
            # Everyone who has arrived by the dispatch instant joins.
            j = int(np.searchsorted(arrivals, dispatch, side="right"))
            if j <= i:
                j = i + 1
            if j > i + batch_size:
                j = i + batch_size
            finish = dispatch + batch_latency_ms(j - i) * 1e6
            ends.append(j)
            finishes.append(finish)
            server_free = finish
            i = j
        if not ends:
            completions = np.empty_like(arrivals)
        else:
            completions = np.repeat(
                np.asarray(finishes, dtype=np.float64),
                np.diff(np.asarray(ends), prepend=0),
            )
        return ServingResult(arrivals_ns=arrivals, completions_ns=completions)


class PipelineServerSim:
    """MicroRec-style server: item-by-item pipelined execution."""

    def __init__(self, single_item_latency_us: float, ii_ns: float):
        if single_item_latency_us <= 0:
            raise ValueError("single_item_latency_us must be positive")
        if ii_ns <= 0:
            raise ValueError("ii_ns must be positive")
        self.latency_ns = single_item_latency_us * 1e3
        self.ii_ns = ii_ns

    def run(self, arrivals_ns: np.ndarray) -> ServingResult:
        arrivals = sorted_arrivals(arrivals_ns)
        # The recurrence start[i] = max(arrival[i], start[i-1] + II)
        # unrolls to start[i] = max_{j<=i}(arrival[j] + (i-j) * II), which
        # is a running maximum of (arrival[j] - j * II) shifted back — one
        # vectorised pass instead of a Python loop per query.
        ramp = np.arange(arrivals.size, dtype=np.float64)
        ramp *= self.ii_ns
        completions = np.subtract(arrivals, ramp)
        np.maximum.accumulate(completions, out=completions)
        completions += ramp
        completions += self.latency_ns
        return ServingResult(arrivals_ns=arrivals, completions_ns=completions)
