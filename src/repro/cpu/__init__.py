"""CPU baseline substrate: server spec, cost model, functional engine."""

from repro.cpu.server import CpuServerSpec
from repro.cpu.costmodel import (
    CpuCostModel,
    CpuCostParams,
    facebook_rmc2_embedding_us_per_item,
)
from repro.cpu.baseline import CpuBaselineEngine

__all__ = [
    "CpuServerSpec",
    "CpuCostModel",
    "CpuCostParams",
    "facebook_rmc2_embedding_us_per_item",
    "CpuBaselineEngine",
]
