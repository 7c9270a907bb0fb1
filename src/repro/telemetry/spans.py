"""Per-request trace spans with deterministic seeded sampling.

Digests answer *how bad is the tail*; spans answer *where a request's
time went*.  A :class:`RequestSpan` decomposes one request's latency
into the serving stack's phases — route decision, queue wait, service,
tier lookup, result gather — reconstructed from the simulation's own
timeline arrays after a serve completes (the simulators are vectorised,
so per-request hooks inside the hot loops would defeat the whole
architecture).

Recording every request would reintroduce the O(queries) memory the
digest layer exists to avoid, so the :class:`SpanRecorder` samples:
request indices are drawn by a seeded generator keyed on the recorder
seed plus a caller-supplied stream tag (backend name, serve counter),
and a hard ``max_spans`` cap bounds memory whatever the stream size.
The same seed and the same streams always sample the same requests —
span output is as reproducible as every other artifact in the repo.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.serving.lab import lab_seed

#: Canonical phase order of a serving-stack request span.
SPAN_PHASES: tuple[str, ...] = (
    "route-decision",
    "queue-wait",
    "service",
    "tier-lookup",
    "gather",
)

#: Default fraction of requests sampled into spans.
DEFAULT_SAMPLE_RATE = 0.001

#: Default hard cap on retained spans, whatever the stream sizes.
DEFAULT_MAX_SPANS = 1024


@dataclass(frozen=True)
class RequestSpan:
    """One sampled request's phase breakdown.

    ``phases`` holds ``(phase, duration_ns)`` pairs in
    :data:`SPAN_PHASES` order; phases a path does not exercise (e.g.
    ``tier-lookup`` without an attached hierarchy) are simply absent.
    """

    source: str  # stream tag, e.g. "serve:fpga:0"
    request_index: int
    arrival_ns: float
    phases: tuple[tuple[str, float], ...]

    def __post_init__(self) -> None:
        known = set(SPAN_PHASES)
        for phase, duration_ns in self.phases:
            if phase not in known:
                raise ValueError(
                    f"unknown span phase {phase!r}; "
                    f"expected one of {SPAN_PHASES}"
                )
            if duration_ns < 0:
                raise ValueError(
                    f"span phase {phase!r} has negative duration "
                    f"{duration_ns}"
                )

    @property
    def total_ns(self) -> float:
        return float(sum(d for _, d in self.phases))

    def as_dict(self) -> dict[str, object]:
        return {
            "source": self.source,
            "request_index": self.request_index,
            "arrival_ns": self.arrival_ns,
            "total_ns": self.total_ns,
            "phases": {phase: d for phase, d in self.phases},
        }


class SpanRecorder:
    """Seeded, bounded sampler of per-request spans.

    ``sample_indices(count, *stream)`` decides *which* requests of a
    stream get spans — the caller then builds and :meth:`record`\\ s
    them.  Draws use fixed-size index sampling (``integers`` then
    ``unique``) rather than a per-request coin flip, so the cost is
    O(sampled) not O(stream), which matters on 10M-arrival replays.
    """

    def __init__(
        self,
        sample_rate: float = DEFAULT_SAMPLE_RATE,
        max_spans: int = DEFAULT_MAX_SPANS,
        seed: int = 0,
    ):
        if not 0 < sample_rate <= 1:
            raise ValueError(
                f"sample_rate must be in (0, 1], got {sample_rate}"
            )
        if max_spans <= 0:
            raise ValueError(
                f"max_spans must be positive, got {max_spans}"
            )
        self.sample_rate = sample_rate
        self.max_spans = max_spans
        self.seed = seed
        self._spans: list[RequestSpan] = []

    @property
    def spans(self) -> tuple[RequestSpan, ...]:
        return tuple(self._spans)

    @property
    def remaining(self) -> int:
        return self.max_spans - len(self._spans)

    def sample_indices(self, count: int, *stream: object) -> np.ndarray:
        """Sorted request indices to span for a ``count``-request stream.

        Deterministic in (recorder seed, stream tag, count).  Targets
        ``sample_rate * count`` requests (at least one for non-empty
        streams), clamped to the remaining span budget; duplicate draws
        are deduplicated, so the realised sample can be slightly
        smaller than the target.
        """
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        budget = self.remaining
        target = min(
            max(int(np.ceil(self.sample_rate * count)), 1 if count else 0),
            budget,
            count,
        )
        if target <= 0:
            return np.empty(0, dtype=np.int64)
        rng = np.random.default_rng(lab_seed(self.seed, *stream))
        drawn = rng.integers(0, count, size=target, dtype=np.int64)
        return np.unique(drawn)

    def record(self, span: RequestSpan) -> bool:
        """Retain ``span`` unless the cap is reached; returns success."""
        if self.remaining <= 0:
            return False
        self._spans.append(span)
        return True
