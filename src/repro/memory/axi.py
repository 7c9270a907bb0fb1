"""AXI interface model.

MicroRec's appendix ("Memory controller and AXI interface") explains that the
design uses a narrow 32-bit AXI data width per memory channel: the full
512-bit width would consume over half of the U280's BRAM slices for FIFOs
across the 34 DRAM channels and depress the achievable clock frequency.

This module models the stream-side cost of that choice: how many interface
cycles (and nanoseconds) it takes to move an embedding vector of a given
byte-length across the AXI port once the DRAM row is open.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class AxiConfig:
    """Width/clock configuration of one AXI memory port.

    Parameters
    ----------
    data_width_bits:
        AXI data bus width. MicroRec uses 32; the ablation benches also
        evaluate the 512-bit alternative the appendix argues against.
    clock_mhz:
        Clock of the memory interface logic. The default is a calibration
        constant (see ``repro.experiments.calibration``): together with the
        DRAM initiation latency it reproduces the per-element slope of the
        paper's Table 5 lookup latencies (~5.3 ns per 32-bit element).
    """

    data_width_bits: int = 32
    clock_mhz: float = 190.0

    def __post_init__(self) -> None:
        if self.data_width_bits <= 0 or self.data_width_bits % 8:
            raise ValueError(
                f"data_width_bits must be a positive multiple of 8, "
                f"got {self.data_width_bits}"
            )
        if not (math.isfinite(self.clock_mhz) and self.clock_mhz > 0):
            raise ValueError(
                f"clock_mhz must be positive and finite, got {self.clock_mhz}"
            )

    @property
    def bytes_per_cycle(self) -> int:
        return self.data_width_bits // 8

    @property
    def cycle_ns(self) -> float:
        return 1e3 / self.clock_mhz

    def cycles_for_bytes(self, nbytes: int) -> int:
        """Interface cycles needed to stream ``nbytes`` of payload."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be non-negative, got {nbytes}")
        return math.ceil(nbytes / self.bytes_per_cycle)

    def stream_ns(self, nbytes: int) -> float:
        """Time to stream ``nbytes`` across the port, row already open."""
        return self.cycles_for_bytes(nbytes) * self.cycle_ns
