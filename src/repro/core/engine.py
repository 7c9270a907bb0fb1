"""MicroRec inference engine: plan, functional inference, timed estimates.

:class:`MicroRecEngine` is the library's top-level object.  Building one
runs Algorithm 1 over the model's tables and the target memory system;
the resulting engine exposes

* **functional inference** — the whole embedding row read in a *single*
  stacked gather per call (each merged group's slice of it is the
  Cartesian product row the FPGA reads in one DRAM access) plus the
  quantised top MLP, producing real CTR predictions; and
* **timed estimates** — latency/throughput/resource reports from the FPGA
  accelerator model under the same placement.

The functional path is what makes the reproduction testable: for any query
stream, the engine's predictions must match the plain CPU reference
bit-for-bit at fp32 (and within quantisation error at fixed point).
"""

from __future__ import annotations

import numpy as np

from repro.core.allocation import Placement
from repro.core.planner import Plan, PlannerConfig, plan_tables
from repro.core.tables import EmbeddingTable, VirtualTable, make_tables
from repro.cpu.baseline import CpuBaselineEngine
from repro.fpga.accelerator import (
    FpgaAcceleratorModel,
    FpgaConfig,
    FpgaPerformance,
)
from repro.fpga.resources import ResourceReport
from repro.memory.spec import MemorySystemSpec, u280_memory_system
from repro.memory.timing import MemoryTimingModel, default_timing_model
from repro.models.mlp import (
    PRECISIONS,
    FixedPointFormat,
    Mlp,
    check_precision,
)
from repro.models.spec import ModelSpec
from repro.models.workload import QueryBatch


class MicroRecEngine:
    """High-performance recommendation inference engine (simulated)."""

    def __init__(
        self,
        model: ModelSpec,
        plan: Plan,
        tables: dict[int, EmbeddingTable],
        mlp: Mlp,
        fpga_config: FpgaConfig,
        fixed_point: FixedPointFormat | None,
    ):
        self.model = model
        self.plan = plan
        self.tables = tables
        self.mlp = mlp
        self.fpga_config = fpga_config
        self.fixed_point = fixed_point
        self._mlp_device = mlp.quantized(fixed_point) if fixed_point else mlp
        # Plain virtual tables (the default) are read as one stacked table.
        ordered = [tables[t.table_id] for t in model.tables]
        self._stack = (
            VirtualTable.stack(ordered)
            if all(isinstance(t, VirtualTable) for t in ordered)
            else None
        )
        self.accelerator = FpgaAcceleratorModel(
            model, plan.placement, plan.timing, fpga_config
        )

    # -- construction --------------------------------------------------------

    @classmethod
    def build(
        cls,
        model: ModelSpec,
        memory: MemorySystemSpec | None = None,
        timing: MemoryTimingModel | None = None,
        planner_config: PlannerConfig | None = None,
        fpga_config: FpgaConfig | None = None,
        seed: int = 0,
        materialize_below_bytes: int = 0,
        mlp: Mlp | None = None,
        compress_tables: bool = False,
        precision: str | None = None,
        plan: Plan | None = None,
    ) -> "MicroRecEngine":
        """Plan the model onto the memory system and assemble the engine.

        ``memory`` defaults to the Alveo U280; ``fpga_config`` selects the
        precision (``fixed16`` default).  ``materialize_below_bytes``
        materialises small tables as arrays (virtual otherwise) — both
        representations are functionally identical.

        ``precision`` overrides the *functional* number format independently
        of the accelerator config: any key of
        :data:`repro.models.mlp.PRECISIONS`, including ``"fp32"`` (which the
        hardware model cannot time but the functional path can execute — it
        is the correctness reference).  ``plan`` injects a precomputed
        planner result, skipping Algorithm 1 — useful to build several
        precision variants of one placement without re-planning.

        ``compress_tables`` stores every embedding table as int8 with
        per-row scales (:mod:`repro.core.compression`): the planner sees
        the compressed footprints/burst lengths and the functional lookup
        path dequantises on the fly.  Compression materialises code
        arrays, so it is limited to models whose total embedding storage
        is under 256 MiB (use :meth:`repro.models.ModelSpec.scaled`).
        """
        memory = memory or u280_memory_system()
        timing = timing or default_timing_model(memory.axi)
        fpga_config = fpga_config or FpgaConfig()
        planner_specs = list(model.tables)
        if compress_tables:
            if model.total_embedding_bytes > 2**28:
                raise ValueError(
                    "compress_tables materialises int8 codes; "
                    f"{model.total_embedding_bytes / 2**20:.0f} MiB of "
                    "embeddings exceeds the 256 MiB limit — scale the model"
                )
            from repro.core.compression import compressed_spec

            planner_specs = [compressed_spec(t) for t in model.tables]
        if plan is None:
            plan = plan_tables(
                planner_specs, memory, timing=timing, config=planner_config
            )
        tables = make_tables(
            model.tables,
            seed=seed,
            materialize_below_bytes=materialize_below_bytes,
        )
        if compress_tables:
            from repro.core.compression import QuantizedTable

            tables = {
                tid: QuantizedTable.compress(t) for tid, t in tables.items()
            }
        if mlp is None:
            mlp = Mlp.random(model.layer_dims, seed=seed)
        if precision is None:
            precision = fpga_config.precision
        fmt = PRECISIONS[check_precision(precision)]
        return cls(model, plan, tables, mlp, fpga_config, fmt)

    # -- functional inference -------------------------------------------------

    @property
    def placement(self) -> Placement:
        return self.plan.placement

    def lookup_embeddings(self, batch: QueryBatch) -> np.ndarray:
        """Embedding layer: the whole feature row in one stacked gather.

        Every table's indices, merged or not, go into one lookup on the
        stacked :class:`VirtualTable`, in the model's table order, so the
        MLP input layout matches the unmerged reference exactly.  A merged
        group's slice of the row is by construction its Cartesian product
        row, which the hardware reads in one DRAM access per product.
        Materialised or compressed tables are gathered one by one.
        """
        parts = [batch.dense] if self.model.dense_dim else []
        if self._stack is not None:
            indices = np.concatenate(
                [batch.indices[t.table_id] for t in self.model.tables], axis=1
            )
            parts.append(self._stack.lookup(indices))
        else:
            for t in self.model.tables:
                idx = batch.indices[t.table_id]
                flat = self.tables[t.table_id].lookup(idx.reshape(-1))
                parts.append(flat.reshape(len(idx), -1))
        return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)

    def infer(self, batch: QueryBatch) -> np.ndarray:
        """Predict CTR per query through the planned engine."""
        feats = self.lookup_embeddings(batch)
        return self._mlp_device.forward(feats, fmt=self.fixed_point)

    def reference_engine(self) -> CpuBaselineEngine:
        """CPU reference over the *same* tables and fp32 MLP."""
        return CpuBaselineEngine(self.model, self.tables, self.mlp)

    # -- timed estimates -------------------------------------------------------

    def performance(self, lookup_rounds: int = 1) -> FpgaPerformance:
        return self.accelerator.performance(lookup_rounds=lookup_rounds)

    def resources(self) -> ResourceReport:
        return self.accelerator.resources()

    def summary(self) -> dict[str, object]:
        out = self.plan.summary()
        perf = self.performance()
        out.update(
            {
                "model": self.model.name,
                "precision": self.fpga_config.precision,
                "latency_us": perf.single_item_latency_us,
                "throughput_items_per_s": perf.throughput_items_per_s,
            }
        )
        return out
