"""Functional CPU baseline engine.

A plain NumPy implementation of the full inference path — per-table
gathers, feature concatenation, top MLP — mirroring what TensorFlow Serving
executes on the baseline server.  It serves two purposes:

* it is the *correctness reference* the MicroRec engine is tested against
  (same tables, same queries, same MLP => identical CTR predictions); and
* it is a real, wall-clock-benchmarkable embedding layer, so the repository
  has at least one measured (not modelled) baseline datapoint.
"""

from __future__ import annotations

import numpy as np

from repro.core.tables import EmbeddingTable
from repro.models.mlp import Mlp
from repro.models.spec import ModelSpec
from repro.models.workload import QueryBatch


class CpuBaselineEngine:
    """Reference recommendation inference engine (NumPy)."""

    def __init__(
        self,
        model: ModelSpec,
        tables: dict[int, EmbeddingTable],
        mlp: Mlp,
    ):
        missing = [t.table_id for t in model.tables if t.table_id not in tables]
        if missing:
            raise ValueError(f"missing tables for ids {missing}")
        expected_in = model.feature_len
        if mlp.layer_dims[0][0] != expected_in:
            raise ValueError(
                f"MLP input dim {mlp.layer_dims[0][0]} does not match model "
                f"feature length {expected_in}"
            )
        self.model = model
        self.tables = tables
        self.mlp = mlp

    def embed(self, batch: QueryBatch) -> np.ndarray:
        """Embedding layer: gather + concatenate, ``(batch, feature_len)``."""
        parts: list[np.ndarray] = []
        if self.model.dense_dim:
            parts.append(batch.dense)
        for t in self.model.tables:
            idx = batch.indices[t.table_id]  # (batch, lookups)
            flat = self.tables[t.table_id].lookup(idx.reshape(-1))
            parts.append(flat.reshape(idx.shape[0], -1))
        return np.concatenate(parts, axis=1)

    def infer(self, batch: QueryBatch) -> np.ndarray:
        """Predicted CTR per query, shape ``(batch,)``."""
        return self.mlp.forward(self.embed(batch))
