"""Access-latency model for the hybrid memory system.

The model is deliberately simple because the paper's argument only needs two
facts (section 3.3):

* a random DRAM read costs a large fixed initiation time (row activation +
  controller latency, "a couple of hundreds of nanoseconds" on the U280's
  Vitis-generated controllers) followed by a short sequential burst whose
  cost grows with the vector length; and
* an on-chip (BRAM/URAM) read has no initiation cost and completes in about
  a third of the DRAM time.

With a fixed cost that dominates short transfers, merging two tables via a
Cartesian product almost halves lookup latency — that is the behaviour every
downstream experiment exercises.

Calibration: ``dram_init_ns`` and the AXI stream rate are fit to the paper's
own microbenchmark (Table 5, 8-table row: 334.5 ns at dim 4 rising to
648.4 ns at dim 64, i.e. ~313 ns + ~5.3 ns/element).  See
``repro.experiments.calibration`` for the fit and its provenance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.memory.axi import AxiConfig
from repro.memory.spec import BankKind


@dataclass(frozen=True)
class MemoryTimingModel:
    """Latency model for a single read of ``nbytes`` from one bank.

    Parameters
    ----------
    axi:
        Interface model used for the sequential-burst portion.
    dram_init_ns:
        Fixed initiation cost of a random DRAM (HBM or DDR) access: row
        activation, column access, and controller/AXI handshake.  HBM and
        DDR4 show close access latency on the U280 (section 3.2.2), so one
        constant covers both.
    onchip_latency_fraction:
        On-chip access time as a fraction of the DRAM access time for the
        same payload.  Section 3.2.2: "around 1/3 [the] time of DDR4 or
        HBM".
    """

    axi: AxiConfig = field(default_factory=AxiConfig)
    dram_init_ns: float = 313.0
    onchip_latency_fraction: float = 1.0 / 3.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.dram_init_ns) and self.dram_init_ns >= 0):
            raise ValueError(
                f"dram_init_ns must be finite and >= 0, got {self.dram_init_ns}"
            )
        if not 0 < self.onchip_latency_fraction <= 1:
            raise ValueError(
                "onchip_latency_fraction must be in (0, 1], "
                f"got {self.onchip_latency_fraction}"
            )

    def dram_access_ns(self, nbytes: int) -> float:
        """One random DRAM access returning ``nbytes`` of payload."""
        return self.dram_init_ns + self.axi.stream_ns(nbytes)

    def onchip_access_ns(self, nbytes: int) -> float:
        """One on-chip access: control logic + sequential read, no init."""
        return self.dram_access_ns(nbytes) * self.onchip_latency_fraction

    def access_ns(self, kind: BankKind, nbytes: int) -> float:
        if kind.is_dram:
            return self.dram_access_ns(nbytes)
        return self.onchip_access_ns(nbytes)


def default_timing_model(axi: AxiConfig | None = None) -> MemoryTimingModel:
    """The calibrated U280 timing model used by all experiments."""
    return MemoryTimingModel(axi=axi if axi is not None else AxiConfig())
