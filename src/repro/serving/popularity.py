"""Per-query key popularity: Zipf skew with diurnal hot-set drift.

Recommendation lookup traffic is heavily skewed — a few embedding rows
(the trending items, the active users) absorb most accesses (RecNMP,
Ke et al. 2020) — but the *identity* of the hot set moves over a day as
regions wake up and content trends.  :class:`PopularityModel` captures
both: ranks are drawn truncated-Zipf (via
:func:`repro.models.distributions.zipf_indices`) and mapped to keys
through a rotation that advances ``drift_rows_per_s`` rows per second,
so yesterday's hot rows cool off at a controlled rate.  A tier
hierarchy under drifting popularity keeps paying a trickle of misses
even at steady state — the realistic warm hit rate the SLA planner
sizes against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.models.distributions import zipf_indices

#: Default Zipf exponent for recommendation traffic (RecNMP uses ~1).
DEFAULT_ALPHA = 1.05


@dataclass(frozen=True)
class PopularityModel:
    """Skewed, optionally drifting key popularity over ``rows`` keys.

    ``alpha`` is the Zipf exponent (``<= 0`` degenerates to uniform);
    ``drift_rows_per_s`` rotates the rank→key mapping through the key
    space, modelling hot-set churn over a diurnal trace.
    """

    rows: int
    alpha: float = DEFAULT_ALPHA
    drift_rows_per_s: float = 0.0

    def __post_init__(self) -> None:
        if self.rows <= 0:
            raise ValueError(f"rows must be positive, got {self.rows}")
        for name in ("alpha", "drift_rows_per_s"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.drift_rows_per_s < 0:
            raise ValueError(
                f"drift_rows_per_s must be >= 0, "
                f"got {self.drift_rows_per_s}"
            )

    def sample(
        self,
        rng: np.random.Generator,
        size: int,
        *,
        t_s: float | np.ndarray = 0.0,
    ) -> np.ndarray:
        """Draw ``size`` keys at time(s) ``t_s`` (seconds).

        ``t_s`` may be a scalar or an array broadcastable to ``size``
        (e.g. per-query arrival times), letting one call span a trace
        window while the hot set drifts through it.
        """
        if size < 0:
            raise ValueError(f"size must be >= 0, got {size}")
        ranks = zipf_indices(rng, self.rows, size, self.alpha)
        if self.drift_rows_per_s == 0.0:
            return ranks
        shift = np.floor(
            np.asarray(t_s, dtype=np.float64) * self.drift_rows_per_s
        ).astype(np.int64)
        return (ranks + shift) % self.rows
