"""Unified runtime API: backends, sessions, and one-call deployment.

This package is the seam between "what engine" and "what you do with it".
Engines register as named :class:`InferenceBackend` s; every backend builds
a :class:`Session` with the same surface — ``infer``, ``perf``, ``serve``,
``fleet``, ``summary`` — and :func:`deploy_model` is the one-line frontend.

Migration — before (hand-wiring each layer)::

    from repro import MicroRecEngine, production_small
    from repro.serving import PipelineServerSim

    engine = MicroRecEngine.build(production_small().scaled(max_rows=4096))
    preds = engine.infer(queries)
    perf = engine.performance()
    sim = PipelineServerSim(perf.single_item_latency_us, perf.ii_ns)

After (one registry, one facade)::

    import repro
    from repro.deploy import plan_fleet_for

    session = repro.deploy_model("small", backend="fpga", max_rows=4096)
    preds = session.infer(queries)        # same predictions, bit-for-bit
    estimate = session.perf()             # backend-agnostic PerfEstimate
    result = session.serve(arrivals_ns)   # routed to the right queue sim
    fleet = session.fleet(1e6)            # nodes/cost for a target load
    cpu = repro.deploy_model("small", backend="cpu")
    fleets = plan_fleet_for(1e6, [estimate, cpu.perf()])  # FPGA vs CPU

Swapping ``backend="cpu"`` (or any future registered backend) changes the
engine, not the code around it.
"""

from repro.runtime.api import deploy_model
from repro.runtime.backend import (
    InferenceBackend,
    UnknownBackendError,
    available_backends,
    get_backend,
    register_backend,
)
from repro.runtime.backends import (
    CpuBackend,
    FpgaBackend,
    FpgaCompressedBackend,
    GpuBackend,
    NmpBackend,
)
from repro.runtime.perf import PerfEstimate
from repro.runtime.session import (
    CpuSession,
    FpgaSession,
    GpuSession,
    NmpSession,
    ServingSurface,
    Session,
)

__all__ = [
    "deploy_model",
    "InferenceBackend",
    "UnknownBackendError",
    "available_backends",
    "get_backend",
    "register_backend",
    "PerfEstimate",
    "ServingSurface",
    "Session",
    "FpgaSession",
    "CpuSession",
    "GpuSession",
    "NmpSession",
    "FpgaBackend",
    "FpgaCompressedBackend",
    "CpuBackend",
    "GpuBackend",
    "NmpBackend",
]
