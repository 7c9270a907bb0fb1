"""FPGA accelerator substrate: pipeline, GEMM PEs, lookup unit, resources."""

from repro.fpga.pipeline import PipelineModel, PipelineStage
from repro.fpga.gemm import GemmStageModel, PeArrayConfig
from repro.fpga.lookup import placement_lookup_stage, replicated_lookup_ns
from repro.fpga.resources import (
    PE_COSTS,
    U280_TOTALS,
    ResourceReport,
    achieved_frequency_mhz,
    estimate_resources,
)
from repro.fpga.accelerator import (
    LANES_PER_PE,
    FpgaAcceleratorModel,
    FpgaConfig,
    FpgaPerformance,
)
from repro.fpga.eventsim import (
    PipelineSimulator,
    SimResult,
    SimStage,
    validate_against_analytical,
)

__all__ = [
    "PipelineModel",
    "PipelineStage",
    "GemmStageModel",
    "PeArrayConfig",
    "placement_lookup_stage",
    "replicated_lookup_ns",
    "ResourceReport",
    "estimate_resources",
    "achieved_frequency_mhz",
    "U280_TOTALS",
    "PE_COSTS",
    "FpgaAcceleratorModel",
    "FpgaConfig",
    "FpgaPerformance",
    "LANES_PER_PE",
    "PipelineSimulator",
    "SimStage",
    "SimResult",
    "validate_against_analytical",
]
