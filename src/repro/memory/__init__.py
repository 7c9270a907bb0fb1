"""Hybrid memory system substrate.

Models the memory hierarchy of the Xilinx Alveo U280 card used by MicroRec
(MLSys'21, section 3.2): 32 HBM2 pseudo-channels (256 MB each), 2 DDR4
channels (16 GB each), and on-chip BRAM/URAM, all accessed through narrow
32-bit AXI interfaces (paper appendix).

The timing model captures the single property the paper's data-structure
contribution relies on: a random DRAM access pays a large fixed
row-initiation cost followed by a short sequential burst, so fetching one
*merged* (Cartesian-product) vector is far cheaper than fetching its two
halves separately.
"""

from repro.memory.axi import AxiConfig
from repro.memory.spec import (
    BankKind,
    BankSpec,
    MemorySystemSpec,
    u280_memory_system,
)
from repro.memory.timing import MemoryTimingModel, default_timing_model
from repro.memory.dramsim import (
    AccessStats,
    DramChannelSim,
    DramTimingParams,
    simulate_table_lookups,
)
from repro.memory.tiers import (
    DEFAULT_ROW_BYTES,
    CachePolicy,
    TierHierarchy,
    TierLookupStats,
    TierSpec,
    UnknownCachePolicyError,
    available_cache_policies,
    default_tier_hierarchy,
    get_cache_policy,
    register_cache_policy,
    scaled_tier_hierarchy,
)

__all__ = [
    "AxiConfig",
    "BankKind",
    "BankSpec",
    "MemorySystemSpec",
    "u280_memory_system",
    "MemoryTimingModel",
    "default_timing_model",
    "AccessStats",
    "DramChannelSim",
    "DramTimingParams",
    "simulate_table_lookups",
    "DEFAULT_ROW_BYTES",
    "CachePolicy",
    "TierHierarchy",
    "TierLookupStats",
    "TierSpec",
    "UnknownCachePolicyError",
    "available_cache_policies",
    "default_tier_hierarchy",
    "get_cache_policy",
    "register_cache_policy",
    "scaled_tier_hierarchy",
]
