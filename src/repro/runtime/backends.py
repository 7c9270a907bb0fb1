"""Built-in inference backends: ``fpga``, ``fpga-compressed``, ``cpu``,
``gpu``, ``nmp``.

Each backend maps the uniform ``build(model, *, memory, precision, seed,
**knobs)`` surface onto one of the repository's engines:

* ``fpga`` — :class:`~repro.core.engine.MicroRecEngine`: Algorithm 1
  planning onto the hybrid memory system, Cartesian-merged functional
  lookups, and the pipelined accelerator timing model;
* ``fpga-compressed`` — the same engine over int8-compressed embedding
  tables (smaller footprints seen by the planner, on-the-fly dequantise on
  the functional path);
* ``cpu`` — :class:`~repro.cpu.baseline.CpuBaselineEngine` (the measured
  NumPy reference) timed by the calibrated TensorFlow-Serving cost model;
* ``gpu`` — the same functional reference timed by the DeepRecSys-style
  GPU cost model (:mod:`repro.baselines.gpu`), served batched at the very
  large batches GPUs need;
* ``nmp`` — the same functional reference timed by the TensorDIMM/RecNMP
  cost model (:mod:`repro.baselines.nmp`), served pipeline-style by the
  near-memory gather units.

The three cost-modelled backends share one build,
:meth:`ModeledBackend.build`: each names only its cost model and the
knobs that model takes, its session type, and its operating batch.  All
five are registered at import time; :func:`repro.deploy_model` is the
one-call entry point above them.
"""

from __future__ import annotations

from repro.baselines.gpu import GpuCostModel, GpuSpec
from repro.baselines.nmp import NmpCostModel, NmpSpec
from repro.core.engine import MicroRecEngine
from repro.core.planner import Plan, PlannerConfig
from repro.core.tables import make_tables
from repro.cpu.baseline import CpuBaselineEngine
from repro.cpu.costmodel import CpuCostModel, CpuCostParams
from repro.cpu.server import CpuServerSpec
from repro.deploy.capacity import accelerator_rate
from repro.fpga.accelerator import FpgaConfig
from repro.memory.spec import MemorySystemSpec
from repro.memory.timing import MemoryTimingModel
from repro.models.mlp import PRECISIONS, Mlp, check_precision
from repro.models.spec import ModelSpec
from repro.runtime.backend import register_backend
from repro.runtime.perf import CostModel
from repro.runtime.session import (
    CpuSession,
    FpgaSession,
    GpuSession,
    ModeledSession,
    NmpSession,
    Session,
)

#: The batch size the paper selects for the CPU baseline comparisons
#: ("larger batch sizes can break inference latency constraints").
DEFAULT_CPU_SERVING_BATCH = 2048

#: The GPU operating batch: "GPUs can only outperform CPUs when ... very
#: large batch sizes are used" (Gupta et al. 2020a) — at the CPU's 2048
#: the GPU is barely ahead, so its serving point doubles it.
DEFAULT_GPU_SERVING_BATCH = 4096


class FpgaBackend:
    """MicroRec on the hybrid-memory FPGA (optionally compressed tables)."""

    name = "fpga"
    compress_tables = False

    def build(
        self,
        model: ModelSpec,
        *,
        memory: MemorySystemSpec | None = None,
        timing: MemoryTimingModel | None = None,
        precision: str | None = None,
        seed: int = 0,
        planner_config: PlannerConfig | None = None,
        fpga_config: FpgaConfig | None = None,
        plan: Plan | None = None,
        materialize_below_bytes: int = 0,
        mlp: Mlp | None = None,
        usd_per_hour: float = accelerator_rate("fpga"),
        **knobs: object,
    ) -> Session:
        """Plan, place, and assemble a MicroRec session.

        ``precision`` selects the functional number format (``fixed16``
        default, ``fp32`` allowed for reference runs — timed estimates then
        use the closest realisable build, fixed32).  Unknown knobs are
        rejected; knobs of other backends are not accepted here because
        every FPGA knob is meaningful.
        """
        if knobs:
            raise TypeError(
                f"{self.name} backend got unexpected knobs {sorted(knobs)}"
            )
        precision = check_precision(precision or "fixed16")
        if fpga_config is None:
            hardware = "fixed32" if precision == "fp32" else precision
            fpga_config = FpgaConfig(precision=hardware)
        engine = MicroRecEngine.build(
            model,
            memory=memory,
            timing=timing,
            planner_config=planner_config,
            fpga_config=fpga_config,
            seed=seed,
            materialize_below_bytes=materialize_below_bytes,
            mlp=mlp,
            compress_tables=self.compress_tables,
            precision=precision,
            plan=plan,
        )
        return FpgaSession(self.name, engine, precision, usd_per_hour)


class FpgaCompressedBackend(FpgaBackend):
    """MicroRec over int8 per-row-scale compressed embedding tables.

    Compression materialises code arrays, so models must keep total
    embedding storage under 256 MiB — use ``deploy_model(...,
    max_rows=...)`` or :meth:`repro.models.ModelSpec.scaled`.
    """

    name = "fpga-compressed"
    compress_tables = True


class ModeledBackend:
    """The one build of the cost-modelled baselines (cpu / gpu / nmp).

    A subclass names its session type, its default operating batch, and
    its analytical cost model with the knobs that model takes
    (:meth:`cost_model`); the session type names the serving knobs it
    takes (:attr:`ModeledSession.session_knobs`).
    """

    name: str
    session_type: type[ModeledSession]
    default_serving_batch: int
    #: The backend's own knobs that :meth:`cost_model` takes.
    cost_knobs: tuple[str, ...]

    def cost_model(self, model: ModelSpec, **knobs: object) -> CostModel:
        """The analytical cost model timing ``model`` under ``knobs``."""
        raise NotImplementedError

    def build(
        self,
        model: ModelSpec,
        *,
        memory: MemorySystemSpec | None = None,
        timing: MemoryTimingModel | None = None,
        precision: str | None = None,
        seed: int = 0,
        planner_config: PlannerConfig | None = None,
        serving_batch: int | None = None,
        materialize_below_bytes: int = 0,
        mlp: Mlp | None = None,
        usd_per_hour: float | None = None,
        **knobs: object,
    ) -> Session:
        """Assemble the session: real tables + MLP, modelled timing.

        ``memory``, ``timing``, and ``planner_config`` do not apply to the
        modelled engines (no placement problem); they are accepted and
        ignored so one knob set can sweep every backend.  The engine uses
        the *same* deterministic tables and MLP as the FPGA backends under
        the same ``seed``, so cross-backend predictions agree bit-for-bit
        at fp32.  ``serving_batch`` and ``usd_per_hour`` default to the
        backend's operating batch and hourly node rate.  A knob that is
        neither shared nor the backend's own is rejected by name.
        """
        own = {*self.cost_knobs, *self.session_type.session_knobs}
        unexpected = sorted(knobs.keys() - own)
        if unexpected:
            raise TypeError(
                f"{self.name} backend got unexpected knobs {unexpected}"
            )
        del memory, timing, planner_config  # no placement problem
        precision = check_precision(precision or "fp32")
        tables = make_tables(
            model.tables,
            seed=seed,
            materialize_below_bytes=materialize_below_bytes,
        )
        if mlp is None:
            mlp = Mlp.random(model.layer_dims, seed=seed)
        if serving_batch is None:
            serving_batch = self.default_serving_batch
        if usd_per_hour is None:
            usd_per_hour = accelerator_rate(self.name)
        cost = self.cost_model(
            model, **{k: knobs.pop(k) for k in self.cost_knobs if k in knobs}
        )
        return self.session_type(
            self.name,
            model,
            CpuBaselineEngine(model, tables, mlp),
            cost,
            precision,
            PRECISIONS[precision],
            serving_batch,
            usd_per_hour,
            **knobs,
        )


class CpuBackend(ModeledBackend):
    """The batched TensorFlow-Serving-style CPU baseline.

    Timed by the calibrated :class:`~repro.cpu.costmodel.CpuCostModel`
    (``server``, ``params``); served batched at the paper's batch.
    """

    name = "cpu"
    session_type = CpuSession
    default_serving_batch = DEFAULT_CPU_SERVING_BATCH
    cost_knobs = ("server", "params")

    def cost_model(
        self,
        model: ModelSpec,
        server: CpuServerSpec | None = None,
        params: CpuCostParams | None = None,
    ) -> CpuCostModel:
        return CpuCostModel(
            model,
            server=server or CpuServerSpec(),
            params=params or CpuCostParams(),
        )


class GpuBackend(ModeledBackend):
    """The GPU serving stack of the DeepRecSys observations.

    ``gpu`` selects the device (:class:`~repro.baselines.gpu.GpuSpec`, a
    V100-class part by default); tables live whole in device HBM.
    """

    name = "gpu"
    session_type = GpuSession
    default_serving_batch = DEFAULT_GPU_SERVING_BATCH
    cost_knobs = ("gpu",)

    def cost_model(
        self, model: ModelSpec, gpu: GpuSpec | None = None
    ) -> GpuCostModel:
        return GpuCostModel(model, gpu=gpu or GpuSpec())


class NmpBackend(ModeledBackend):
    """A CPU server with near-memory-processing DIMMs (TensorDIMM/RecNMP).

    ``nmp`` selects the DIMM configuration
    (:class:`~repro.baselines.nmp.NmpSpec`); ``params`` the host CPU cost
    constants the NMP model adjusts.  The serving operating point matches
    the CPU baseline's batch so the comparison isolates the memory system.
    """

    name = "nmp"
    session_type = NmpSession
    default_serving_batch = DEFAULT_CPU_SERVING_BATCH
    cost_knobs = ("nmp", "params")

    def cost_model(
        self,
        model: ModelSpec,
        nmp: NmpSpec | None = None,
        params: CpuCostParams | None = None,
    ) -> NmpCostModel:
        return NmpCostModel(
            model,
            nmp=nmp or NmpSpec(),
            cpu_params=params or CpuCostParams(),
        )


register_backend(FpgaBackend())
register_backend(FpgaCompressedBackend())
register_backend(CpuBackend())
register_backend(GpuBackend())
register_backend(NmpBackend())
