"""NumPy MLP for CTR prediction, with the paper's precision options.

MicroRec evaluates the FPGA engine at 16-bit and 32-bit fixed point
(section 5.3) against an fp32 CPU baseline.  :class:`FixedPointFormat`
implements symmetric Qm.n quantisation; :class:`Mlp` runs the top
fully-connected stack (ReLU between layers, sigmoid CTR head) at fp32 or
with weights/activations quantised, so tests can bound the accuracy cost
of the hardware precision choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class FixedPointFormat:
    """Symmetric signed fixed point with ``total_bits`` and ``frac_bits``."""

    total_bits: int
    frac_bits: int

    def __post_init__(self) -> None:
        if self.total_bits not in (8, 16, 32):
            raise ValueError(f"total_bits must be 8/16/32, got {self.total_bits}")
        if not 0 <= self.frac_bits < self.total_bits:
            raise ValueError(
                f"frac_bits must be in [0, {self.total_bits}), got {self.frac_bits}"
            )

    @property
    def scale(self) -> float:
        return float(2**self.frac_bits)

    @property
    def max_int(self) -> int:
        return 2 ** (self.total_bits - 1) - 1

    @property
    def min_int(self) -> int:
        return -(2 ** (self.total_bits - 1))

    @property
    def resolution(self) -> float:
        """Smallest representable increment."""
        return 1.0 / self.scale

    def quantize(self, x: np.ndarray) -> np.ndarray:
        """Round to the grid and saturate, returning float32 values.

        float32 input stays float32: the scale is a power of two, so
        scaling is exact, and every rounded grid value is representable,
        so the result equals rounding in float64 bit for bit.  Other
        input is rounded in float64.
        """
        x = np.asarray(x)
        work = np.float32 if x.dtype == np.float32 else np.float64
        q = np.multiply(x, self.scale, dtype=work)
        np.rint(q, out=q)
        np.clip(q, self.min_int, self.max_int, out=q)
        q *= self.resolution
        return q.astype(np.float32, copy=False)


#: The formats used by the paper's two FPGA configurations.  Embeddings and
#: activations are O(1), so most bits go to the fraction.
FIXED16 = FixedPointFormat(total_bits=16, frac_bits=12)
FIXED32 = FixedPointFormat(total_bits=32, frac_bits=24)

PRECISIONS = {
    "fp32": None,
    "fixed16": FIXED16,
    "fixed32": FIXED32,
}


def check_precision(name: str) -> str:
    """Validate a precision name against :data:`PRECISIONS` and return it."""
    if name not in PRECISIONS:
        raise ValueError(
            f"unknown precision {name!r}; expected one of {sorted(PRECISIONS)}"
        )
    return name


def sigmoid(x: np.ndarray) -> np.ndarray:
    # Split by sign for numerical stability at large |x|.
    out = np.empty_like(x, dtype=np.float32)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class Mlp:
    """Fully-connected CTR head: ReLU hidden layers + sigmoid output."""

    def __init__(self, weights: Sequence[np.ndarray], biases: Sequence[np.ndarray]):
        if len(weights) != len(biases):
            raise ValueError("need one bias per weight matrix")
        if not weights:
            raise ValueError("Mlp needs at least one layer")
        for i, (w, b) in enumerate(zip(weights, biases)):
            if w.ndim != 2 or b.shape != (w.shape[1],):
                raise ValueError(
                    f"layer {i}: weight {w.shape} and bias {b.shape} mismatch"
                )
            if i and weights[i - 1].shape[1] != w.shape[0]:
                raise ValueError(
                    f"layer {i}: input dim {w.shape[0]} does not match "
                    f"previous output {weights[i - 1].shape[1]}"
                )
        self.weights = [np.asarray(w, dtype=np.float32) for w in weights]
        self.biases = [np.asarray(b, dtype=np.float32) for b in biases]

    @classmethod
    def random(
        cls, layer_dims: Sequence[tuple[int, int]], seed: int = 0
    ) -> "Mlp":
        """Glorot-initialised MLP for the given (in, out) layer dims."""
        rng = np.random.default_rng(seed)
        weights, biases = [], []
        for din, dout in layer_dims:
            limit = np.sqrt(6.0 / (din + dout))
            weights.append(
                rng.uniform(-limit, limit, size=(din, dout)).astype(np.float32)
            )
            biases.append(np.zeros(dout, dtype=np.float32))
        return cls(weights, biases)

    @property
    def layer_dims(self) -> list[tuple[int, int]]:
        return [(w.shape[0], w.shape[1]) for w in self.weights]

    @property
    def ops_per_item(self) -> int:
        return sum(2 * din * dout for din, dout in self.layer_dims)

    def quantized(self, fmt: FixedPointFormat) -> "Mlp":
        """Copy with weights and biases snapped to the fixed-point grid."""
        return Mlp(
            [fmt.quantize(w) for w in self.weights],
            [fmt.quantize(b) for b in self.biases],
        )

    def forward(
        self, x: np.ndarray, fmt: FixedPointFormat | None = None
    ) -> np.ndarray:
        """Predict CTR for a batch; shape ``(batch, feature_len) -> (batch,)``.

        With ``fmt`` set, inputs and every intermediate activation are
        quantised, emulating the FPGA datapath (weights should already be
        quantised via :meth:`quantized` for a faithful emulation).
        """
        x = np.asarray(x, dtype=np.float32)
        if x.ndim != 2 or x.shape[1] != self.weights[0].shape[0]:
            raise ValueError(
                f"expected input shape (batch, {self.weights[0].shape[0]}), "
                f"got {x.shape}"
            )
        h = fmt.quantize(x) if fmt else x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ w
            h += b
            if i < last:
                np.maximum(h, 0.0, out=h)
            if fmt:
                h = fmt.quantize(h)
        return sigmoid(h[:, 0])
