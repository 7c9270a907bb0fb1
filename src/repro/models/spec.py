"""Model specifications: the paper's production models and benchmark family.

The paper evaluates two production CTR models from Alibaba (Table 1) whose
exact table inventories are proprietary.  Following the published
aggregates, :func:`production_small` and :func:`production_large` generate
deterministic synthetic inventories that reproduce:

* the table counts (47 / 98) and concatenated feature lengths (352 / 876);
* the storage footprints (~1.3 GB / ~15.1 GB) dominated by a few huge
  tables (section 2.2: "up to hundreds of millions of entries");
* the long small-table tail that makes Cartesian products nearly free
  (section 3.3: "some tables only consist of 100 4-dimensional vectors");
* the planner-relevant structure — enough tiny merge candidates and
  on-chip-cacheable tables that Algorithm 1 reduces DRAM access rounds from
  2 to 1 (small model) and from 3 to 2 (large model), as in Table 3.

:func:`dlrm_rmc2` builds the Facebook benchmark configurations of Table 5
(8-12 small tables, 4 lookups each, embedding dims 4-64).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from repro.core.tables import TableSpec
from repro.models.distributions import log_spaced_rows

MIB = 1024 * 1024
GIB = 1024 * MIB


@dataclass(frozen=True)
class ModelSpec:
    """A deep recommendation (CTR) model: embedding tables + top MLP.

    The paper's production models have no bottom MLP (footnote 1: dense
    features are not used and each table is looked up once), so the MLP
    input is exactly the concatenation of ``dense_dim`` raw dense features
    and one vector per table lookup.
    """

    name: str
    tables: tuple[TableSpec, ...]
    hidden: tuple[int, ...] = (1024, 512, 256)
    dense_dim: int = 0

    def __post_init__(self) -> None:
        ids = [t.table_id for t in self.tables]
        if len(set(ids)) != len(ids):
            raise ValueError(f"{self.name}: duplicate table ids")
        if not self.tables:
            raise ValueError(f"{self.name}: a model needs at least one table")
        if any(h <= 0 for h in self.hidden):
            raise ValueError(f"{self.name}: hidden sizes must be positive")
        if self.dense_dim < 0:
            raise ValueError(f"{self.name}: dense_dim must be >= 0")

    # -- aggregates reported in the paper's Table 1 ------------------------
    # The spec is frozen, so each sum over the tables is computed once
    # (cost models read them on every call).

    @property
    def num_tables(self) -> int:
        return len(self.tables)

    @cached_property
    def embedding_dim_total(self) -> int:
        """Concatenated embedding width for one lookup round per table."""
        return sum(t.dim * t.lookups_per_inference for t in self.tables)

    @property
    def feature_len(self) -> int:
        """Input width of the first MLP layer ("Feat Len" in Table 1)."""
        return self.dense_dim + self.embedding_dim_total

    @cached_property
    def total_embedding_bytes(self) -> int:
        return sum(t.nbytes for t in self.tables)

    @cached_property
    def lookups_per_inference(self) -> int:
        return sum(t.lookups_per_inference for t in self.tables)

    # -- MLP shape ----------------------------------------------------------

    @property
    def layer_dims(self) -> list[tuple[int, int]]:
        """(in, out) of every FC layer, including the scalar CTR head."""
        widths = [self.feature_len, *self.hidden, 1]
        return list(zip(widths[:-1], widths[1:]))

    @cached_property
    def ops_per_inference(self) -> int:
        """Multiply-add operation count of one forward pass (2 ops/MAC).

        The paper's GOP/s figures count the three hidden FC layers; the
        scalar head adds a negligible 0.03 %.
        """
        return sum(2 * din * dout for din, dout in self.layer_dims)

    def specs_by_id(self) -> dict[int, TableSpec]:
        return {t.table_id: t for t in self.tables}

    def scaled(self, max_rows: int, name: str | None = None) -> "ModelSpec":
        """A row-capped copy for functional tests.

        Caps every table at ``max_rows`` rows, keeping table count, dims
        (hence feature length and MLP shape) and the small-table tail
        intact, so functional inference on industrial-shape models fits in
        laptop memory.
        """
        if max_rows <= 0:
            raise ValueError(f"max_rows must be positive, got {max_rows}")
        tables = tuple(
            TableSpec(
                table_id=t.table_id,
                rows=min(t.rows, max_rows),
                dim=t.dim,
                dtype_bytes=t.dtype_bytes,
                lookups_per_inference=t.lookups_per_inference,
            )
            for t in self.tables
        )
        return ModelSpec(
            name=name or f"{self.name}-scaled{max_rows}",
            tables=tables,
            hidden=self.hidden,
            dense_dim=self.dense_dim,
        )


def _tiered_tables(tiers: Sequence[tuple[int, Sequence[int]]]) -> tuple[TableSpec, ...]:
    """Build specs from ``(dim, row_counts)`` tiers with sequential ids."""
    tables: list[TableSpec] = []
    tid = 0
    for dim, rows_list in tiers:
        for rows in rows_list:
            tables.append(TableSpec(table_id=tid, rows=rows, dim=dim))
            tid += 1
    return tuple(tables)


def production_small() -> ModelSpec:
    """The paper's smaller production model: 47 tables, feat len 352, ~1.3 GB.

    Tier structure (dims sum to 352 across 47 tables):

    * 10 tiny dim-4 tables (100-800 rows) — Cartesian merge candidates;
      rule-3 pairing yields 5 products of ~2.6 MB each (~1 % storage
      overhead), cutting the table count as in Table 3 (47 -> 42);
    * 8 dim-4 tables of ~2 600 rows (~41 KiB) — sized to occupy exactly one
      on-chip bank each, reproducing the paper's 8 on-chip tables;
    * 10 medium dim-4 and 11 dim-8 tables — DRAM residents;
    * 5 dim-16 and 3 dim-24 tables up to 4M rows — the bulk of the 1.3 GB.
    """
    tiers = [
        # tiny merge tier
        (4, [100, 128, 160, 200, 256, 320, 400, 512, 640, 800]),
        # on-chip cache tier: 2600..2688 rows = 40.6..42.0 KiB
        (4, [2600, 2612, 2624, 2636, 2648, 2660, 2674, 2688]),
        # medium dim-4
        (4, log_spaced_rows(10, 10_000, 200_000)),
        # dim-8 tier
        (8, log_spaced_rows(11, 100_000, 500_000)),
        # dim-16 tier
        (16, [2_000_000, 1_000_000, 800_000, 500_000, 400_000]),
        # huge tables
        (24, [4_000_000, 3_000_000, 2_000_000]),
    ]
    return ModelSpec(name="production-small", tables=_tiered_tables(tiers))


def production_large() -> ModelSpec:
    """The paper's larger production model: 98 tables, feat len 876, ~15.1 GB.

    Tier structure (dims sum to 876 across 98 tables):

    * 22 tiny dim-4 tables (100-400 rows) and 22 dim-4 tables of ~2 550-
      2 600 rows — together the 44 Cartesian candidates whose rule-3
      pairing yields 22 products (~2.4 % storage overhead), driving the
      DRAM table count to 68 and the access rounds from 3 to 2 (Table 3);
    * 8 dim-8 tables of 1 330-1 344 rows (~42 KiB) — one per on-chip bank;
    * 16 medium dim-8 and 26 dim-16 tables — DRAM residents;
    * 4 dim-23 tables of 30-42M rows — the ~13 GB bulk ("hundreds of
      millions of entries" scale, section 2.2).
    """
    tiny = log_spaced_rows(22, 100, 400)
    merge_tier = log_spaced_rows(22, 2_550, 2_600)
    tiers = [
        (4, tiny),
        (4, merge_tier),
        # on-chip cache tier: 1330..1344 rows x 32 B = 41.6..42.0 KiB
        (8, [1330, 1332, 1334, 1336, 1338, 1340, 1342, 1344]),
        # medium dim-8
        (8, log_spaced_rows(16, 200_000, 800_000)),
        # dim-16 tier
        (16, [2_000_000] * 4 + [1_500_000] * 4 + [1_000_000] * 4
             + [750_000] * 4 + [500_000] * 10),
        # huge tables
        (23, [42_000_000, 38_000_000, 35_000_000, 30_000_000]),
    ]
    return ModelSpec(name="production-large", tables=_tiered_tables(tiers))


def dlrm_rmc2(
    num_tables: int = 8,
    dim: int = 32,
    lookups_per_table: int = 4,
    rows: int = 1_000_000,
) -> ModelSpec:
    """A DLRM-RMC2 configuration from the Facebook benchmark (Table 5).

    The benchmark publishes ranges, not exact parameters (section 5.4.2):
    8-12 "small" tables, each looked up 4 times (32-48 lookups total).  As
    in the paper we assume each table fits one HBM bank (<= 256 MB) and
    sweep embedding dims over {4, 8, 16, 32, 64}.  The default 1M rows x
    dim 64 x 4 B = 244 MB respects the bank bound at every swept dim.
    """
    if not 1 <= num_tables:
        raise ValueError(f"num_tables must be >= 1, got {num_tables}")
    tables = tuple(
        TableSpec(
            table_id=i,
            rows=rows,
            dim=dim,
            lookups_per_inference=lookups_per_table,
        )
        for i in range(num_tables)
    )
    return ModelSpec(
        name=f"dlrm-rmc2-t{num_tables}-d{dim}",
        tables=tables,
        hidden=(512, 256, 128),
        dense_dim=13,
    )


#: Named model factories: the canonical string -> spec registry used by the
#: runtime API (:func:`repro.deploy_model`), the CLI, and the experiment
#: harness.  Each factory takes no required arguments.
MODEL_FACTORIES = {
    "small": production_small,
    "large": production_large,
    "dlrm-rmc2": dlrm_rmc2,
}


def resolve_model(model: "ModelSpec | str") -> ModelSpec:
    """Resolve a model name or pass a spec through.

    Accepts either a :class:`ModelSpec` (returned unchanged) or one of the
    registered names in :data:`MODEL_FACTORIES`.
    """
    if isinstance(model, ModelSpec):
        return model
    try:
        return MODEL_FACTORIES[model]()
    except KeyError:
        raise KeyError(
            f"unknown model {model!r}; expected a ModelSpec or one of "
            f"{sorted(MODEL_FACTORIES)}"
        ) from None
