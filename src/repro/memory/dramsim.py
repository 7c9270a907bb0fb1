"""Per-access DRAM channel simulation: row buffers, queuing, refresh.

The analytical :class:`~repro.memory.timing.MemoryTimingModel` charges every
random access one fixed initiation plus the AXI burst.  Real controllers
add three effects the closed form leaves out:

* **row-buffer locality** — an access hitting the currently open row skips
  activation (cheaper); a conflict pays precharge + activation (dearer);
* **command queuing** — consecutive requests to one channel contend for the
  command/data bus even when they target different banks;
* **periodic refresh** — the channel is unavailable a few percent of the
  time.

:class:`DramChannelSim` executes an address trace against an open-page
controller model with per-channel bank state.  It is deliberately compact
(bank-level open-page policy, FR-FCFS-free in-order service) — enough to
quantify how far the idealised model is from a queued one, which is what
``repro experiments queuing`` reports.  On the production placements it
is not far: the queued lookup latency lies within -2.3% to +1.8% of the
idealised one.  So these effects do not explain why Table 3's large-model
latencies sit ~2x below the paper's (1065/868 ns against 2260/1630 ns,
without/with Cartesian products); that gap is still open.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class DramTimingParams:
    """Controller timing in nanoseconds (HBM2-class defaults).

    The split of the analytical model's single ``dram_init_ns`` into
    activate/CAS/precharge follows typical HBM2 datasheet ratios, scaled so
    an isolated row-miss access costs about the calibrated 313 ns end to
    end (the Vitis-generated controller adds substantial AXI latency on
    top of raw DRAM timing, modelled in ``controller_overhead_ns``).
    """

    t_rcd_ns: float = 14.0  # activate -> column command
    t_cas_ns: float = 14.0  # column command -> first data
    t_rp_ns: float = 14.0  # precharge
    controller_overhead_ns: float = 271.0  # AXI + controller pipeline
    row_bytes: int = 1024  # open-page granularity
    banks_per_channel: int = 16
    refresh_period_ns: float = 3900.0  # tREFI
    refresh_duration_ns: float = 160.0  # tRFC
    data_ns_per_byte: float = 5.26 / 4  # 32-bit AXI @ 190 MHz
    queue_overhead_ns: float = 8.0  # per-request command-queue cost

    def hit_ns(self, nbytes: int) -> float:
        """Row-buffer hit: CAS + data, no activation."""
        return (
            self.controller_overhead_ns * 0.35
            + self.t_cas_ns
            + nbytes * self.data_ns_per_byte
        )

    def miss_ns(self, nbytes: int) -> float:
        """Closed-row access: activate + CAS + data."""
        return (
            self.controller_overhead_ns
            + self.t_rcd_ns
            + self.t_cas_ns
            + nbytes * self.data_ns_per_byte
        )

    def conflict_ns(self, nbytes: int) -> float:
        """Row conflict: precharge first, then a full miss."""
        return self.t_rp_ns + self.miss_ns(nbytes)


@dataclass
class AccessStats:
    hits: int = 0
    misses: int = 0
    conflicts: int = 0
    refresh_stalls: int = 0
    total_ns: float = 0.0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses + self.conflicts

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def mean_access_ns(self) -> float:
        return self.total_ns / self.accesses if self.accesses else 0.0


@dataclass
class DramChannelSim:
    """One DRAM channel with open-page banks and in-order service."""

    params: DramTimingParams = field(default_factory=DramTimingParams)

    def __post_init__(self) -> None:
        self._open_rows: dict[int, int] = {}  # bank -> open row
        self._now_ns: float = 0.0
        self._next_refresh_ns: float = self.params.refresh_period_ns
        self.stats = AccessStats()

    def reset(self) -> None:
        self.__post_init__()

    def _bank_and_row(self, byte_addr: int) -> tuple[int, int]:
        row = byte_addr // self.params.row_bytes
        return row % self.params.banks_per_channel, row

    def access(self, byte_addr: int, nbytes: int) -> float:
        """Serve one read; returns its latency and advances channel time."""
        p = self.params
        # Refresh window stalls the whole channel.
        if self._now_ns >= self._next_refresh_ns:
            self._now_ns += p.refresh_duration_ns
            self._next_refresh_ns += p.refresh_period_ns
            self.stats.refresh_stalls += 1
        bank, row = self._bank_and_row(byte_addr)
        open_row = self._open_rows.get(bank)
        if open_row == row:
            latency = p.hit_ns(nbytes)
            self.stats.hits += 1
        elif open_row is None:
            latency = p.miss_ns(nbytes)
            self.stats.misses += 1
        else:
            latency = p.conflict_ns(nbytes)
            self.stats.conflicts += 1
        latency += p.queue_overhead_ns
        self._open_rows[bank] = row
        self._now_ns += latency
        self.stats.total_ns += latency
        return latency

    def run_trace(self, addrs: np.ndarray, nbytes: int) -> float:
        """Serve an in-order address trace; returns the busy time."""
        start = self._now_ns
        for addr in np.asarray(addrs, dtype=np.int64):
            self.access(int(addr), nbytes)
        return self._now_ns - start


def simulate_table_lookups(
    rows: int,
    vector_bytes: int,
    accesses: int,
    rng: np.random.Generator,
    params: DramTimingParams | None = None,
    zipf_alpha: float = 0.0,
) -> AccessStats:
    """Simulate ``accesses`` random lookups into one resident table.

    With uniform indices over a large table nearly every access misses or
    conflicts (the paper's premise: "the resulting DRAM accesses are nearly
    random rather than sequential"); a skewed distribution over a small
    table re-hits open rows.
    """
    from repro.models.distributions import zipf_indices

    sim = DramChannelSim(params or DramTimingParams())
    idx = zipf_indices(rng, rows, accesses, zipf_alpha)
    sim.run_trace(idx * vector_bytes, vector_bytes)
    return sim.stats


