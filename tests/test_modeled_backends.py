"""Pinned numbers and knob contract of the cost-modelled backends.

``cpu``, ``gpu`` and ``nmp`` deploy the NumPy reference engine timed by
an analytical cost model.  :data:`PINNED` holds, bit for bit (floats as
``float.hex``), what each of them reports — ``perf().as_dict()``,
``summary()`` in key order, and ``batch_latency_ms`` at batches 1, 64
and 2048 — on every registered model, plus one knobbed build each.  A
change to a cost model, the shared build or the normalising
``PerfEstimate`` constructor that moves any figure fails here, even when
the raw cost model it is compared against moves with it.

The knob tests pin each backend's knob set: every backend takes the
shared knobs, each takes its own, and each rejects the others' by name.
A bad ``serving_batch`` or ``batch_timeout_ms`` fails at
``deploy_model`` with a ``ValueError`` naming the knob.
"""

import math
import re

import pytest

import repro
from repro.baselines import GpuSpec, NmpSpec
from repro.core.planner import PlannerConfig
from repro.cpu import CpuCostParams, CpuServerSpec
from repro.memory.spec import u280_memory_system
from repro.memory.timing import MemoryTimingModel
from repro.models.mlp import Mlp
from repro.models.spec import production_small

PARAMS = CpuCostParams(t_op_us=1.8, t_lookup_ns=120.0)

#: The backend-specific knobs each modelled backend accepts; the pinned
#: ``knobbed`` builds set all of them.
OWN_KNOBS = {
    "cpu": {
        "server": CpuServerSpec(physical_cores=16),
        "params": PARAMS,
        "batch_timeout_ms": 5.0,
    },
    "gpu": {"gpu": GpuSpec(pcie_gb_s=24.0), "batch_timeout_ms": 5.0},
    "nmp": {
        "nmp": NmpSpec(lookup_speedup=8.0, op_overhead_fraction=0.3),
        "params": PARAMS,
    },
}

PINNED = {
    ("cpu", "small", "default"): {
        "perf": {
            "backend": "cpu",
            "precision": "fp32",
            "latency_us": "0x1.bda7ced916873p+11",
            "serving_latency_ms": "0x1.ce2a7e251164dp+4",
            "ii_ns": "0x1.b8c17e3511ca8p+13",
            "throughput_items_per_s": "0x1.14f4ef0365ba1p+16",
            "throughput_gops": "0x1.2028d7f08088fp+7",
            "serving_batch": 2048,
            "usd_per_hour": "0x1.d1eb851eb851fp+0",
            "bottleneck": "mlp",
            "usd_per_million_queries": "0x1.d34d19257ad4ep-8",
        },
        "summary": [
            ("backend", "cpu"),
            ("model", "production-small"),
            ("precision", "fp32"),
            ("latency_us", "0x1.bda7ced916873p+11"),
            ("throughput_items_per_s", "0x1.14f4ef0365ba1p+16"),
            ("usd_per_hour", "0x1.d1eb851eb851fp+0"),
            ("serving_batch", 2048),
            ("serving_latency_ms", "0x1.ce2a7e251164dp+4"),
            ("embedding_fraction", "0x1.d25efd983f7bcp-2"),
            ("bottleneck", "mlp"),
        ],
        "batch_latency_ms": {
            1: "0x1.c859ea57214f1p+1",
            64: "0x1.462fd5769cc42p+2",
            2048: "0x1.ce2a7e251164dp+4",
        },
    },
    ("cpu", "large", "default"): {
        "perf": {
            "backend": "cpu",
            "precision": "fp32",
            "latency_us": "0x1.9d89fbe76c8b4p+12",
            "serving_latency_ms": "0x1.8fce2587e0c6ep+5",
            "ii_ns": "0x1.7d48b4c2c9593p+14",
            "throughput_items_per_s": "0x1.4027e6f2d27e7p+15",
            "throughput_gops": "0x1.fd0452e4ae8b7p+6",
            "serving_batch": 2048,
            "usd_per_hour": "0x1.d1eb851eb851fp+0",
            "bottleneck": "embedding",
            "usd_per_million_queries": "0x1.943f5ed630131p-7",
        },
        "summary": [
            ("backend", "cpu"),
            ("model", "production-large"),
            ("precision", "fp32"),
            ("latency_us", "0x1.9d89fbe76c8b4p+12"),
            ("throughput_items_per_s", "0x1.4027e6f2d27e7p+15"),
            ("usd_per_hour", "0x1.d1eb851eb851fp+0"),
            ("serving_batch", 2048),
            ("serving_latency_ms", "0x1.8fce2587e0c6ep+5"),
            ("embedding_fraction", "0x1.0c7351e1e6007p-1"),
            ("bottleneck", "embedding"),
        ],
        "batch_latency_ms": {
            1: "0x1.a776c4827b6fep+2",
            64: "0x1.20d50048465b6p+3",
            2048: "0x1.8fce2587e0c6ep+5",
        },
    },
    ("cpu", "dlrm-rmc2", "default"): {
        "perf": {
            "backend": "cpu",
            "precision": "fp32",
            "latency_us": "0x1.3e4cccccccccdp+10",
            "serving_latency_ms": "0x1.2e936a26e587fp+4",
            "ii_ns": "0x1.208f0de8003dep+13",
            "throughput_items_per_s": "0x1.a708d0f948aadp+16",
            "throughput_gops": "0x1.2d06eb5cc5edfp+7",
            "serving_batch": 2048,
            "usd_per_hour": "0x1.d1eb851eb851fp+0",
            "bottleneck": "mlp",
            "usd_per_million_queries": "0x1.31f01327542b9p-8",
        },
        "summary": [
            ("backend", "cpu"),
            ("model", "dlrm-rmc2-t8-d32"),
            ("precision", "fp32"),
            ("latency_us", "0x1.3e4cccccccccdp+10"),
            ("throughput_items_per_s", "0x1.a708d0f948aadp+16"),
            ("usd_per_hour", "0x1.d1eb851eb851fp+0"),
            ("serving_batch", 2048),
            ("serving_latency_ms", "0x1.2e936a26e587fp+4"),
            ("embedding_fraction", "0x1.b0e9c842df19fp-2"),
            ("bottleneck", "mlp"),
        ],
        "batch_latency_ms": {
            1: "0x1.45f06f6944674p+0",
            64: "0x1.30000f1f99a1cp+1",
            2048: "0x1.2e936a26e587fp+4",
        },
    },
    ("gpu", "small", "default"): {
        "perf": {
            "backend": "gpu",
            "precision": "fp32",
            "latency_us": "0x1.3e8c5db06da9ep+13",
            "serving_latency_ms": "0x1.6dc9dd1ff2d65p+4",
            "ii_ns": "0x1.5cd7d7258bf27p+12",
            "throughput_items_per_s": "0x1.5dedd05262b5fp+17",
            "throughput_gops": "0x1.6c155b475c2acp+8",
            "serving_batch": 4096,
            "usd_per_hour": "0x1.87ae147ae147bp+1",
            "bottleneck": "embedding",
            "usd_per_million_queries": "0x1.36eb958e5b363p-8",
        },
        "summary": [
            ("backend", "gpu"),
            ("model", "production-small"),
            ("precision", "fp32"),
            ("latency_us", "0x1.3e8c5db06da9ep+13"),
            ("throughput_items_per_s", "0x1.5dedd05262b5fp+17"),
            ("usd_per_hour", "0x1.87ae147ae147bp+1"),
            ("serving_batch", 4096),
            ("serving_latency_ms", "0x1.6dc9dd1ff2d65p+4"),
            ("pcie_transfer_ms", "0x1.09a3a61b40869p-3"),
            ("bottleneck", "embedding"),
        ],
        "batch_latency_ms": {
            1: "0x1.463186d986d2dp+3",
            64: "0x1.4c6e1d4d5124fp+3",
            2048: "0x1.086afa582ea39p+4",
        },
    },
    ("gpu", "large", "default"): {
        "perf": {
            "backend": "gpu",
            "precision": "fp32",
            "latency_us": "0x1.36d5a612c37a1p+14",
            "serving_latency_ms": "0x1.6e09b5be89145p+5",
            "ii_ns": "0x1.5d14ba972972ap+13",
            "throughput_items_per_s": "0x1.5db0c7035257fp+16",
            "throughput_gops": "0x1.15fcb1401e2f6p+8",
            "serving_batch": 4096,
            "usd_per_hour": "0x1.87ae147ae147bp+1",
            "bottleneck": "embedding",
            "usd_per_million_queries": "0x1.3721da7b8e1e1p-7",
        },
        "summary": [
            ("backend", "gpu"),
            ("model", "production-large"),
            ("precision", "fp32"),
            ("latency_us", "0x1.36d5a612c37a1p+14"),
            ("throughput_items_per_s", "0x1.5db0c7035257fp+16"),
            ("usd_per_hour", "0x1.87ae147ae147bp+1"),
            ("serving_batch", 4096),
            ("serving_latency_ms", "0x1.6e09b5be89145p+5"),
            ("pcie_transfer_ms", "0x1.136d0be3aaa68p-2"),
            ("bottleneck", "embedding"),
        ],
        "batch_latency_ms": {
            1: "0x1.3e4b6a92309dcp+4",
            64: "0x1.44a913f063590p+4",
            2048: "0x1.06913dfc548e4p+5",
        },
    },
    ("gpu", "dlrm-rmc2", "default"): {
        "perf": {
            "backend": "gpu",
            "precision": "fp32",
            "latency_us": "0x1.609ed74f257c0p+11",
            "serving_latency_ms": "0x1.6ef4b82f8cf90p+3",
            "ii_ns": "0x1.5df4d9f7390d3p+11",
            "throughput_items_per_s": "0x1.5cd0d33c0064ep+18",
            "throughput_gops": "0x1.f06d6f82f7830p+8",
            "serving_batch": 4096,
            "usd_per_hour": "0x1.87ae147ae147bp+1",
            "bottleneck": "embedding",
            "usd_per_million_queries": "0x1.37e99c8ed16d4p-9",
        },
        "summary": [
            ("backend", "gpu"),
            ("model", "dlrm-rmc2-t8-d32"),
            ("precision", "fp32"),
            ("latency_us", "0x1.609ed74f257c0p+11"),
            ("throughput_items_per_s", "0x1.5cd0d33c0064ep+18"),
            ("usd_per_hour", "0x1.87ae147ae147bp+1"),
            ("serving_batch", 4096),
            ("serving_latency_ms", "0x1.6ef4b82f8cf90p+3"),
            ("pcie_transfer_ms", "0x1.b43526527a206p-4"),
            ("bottleneck", "embedding"),
        ],
        "batch_latency_ms": {
            1: "0x1.6915575b49333p+1",
            64: "0x1.7a1c3215ea595p+1",
            2048: "0x1.c928c1fb790bcp+2",
        },
    },
    ("nmp", "small", "default"): {
        "perf": {
            "backend": "nmp",
            "precision": "fp32",
            "latency_us": "0x1.3bab0e560418ap+11",
            "serving_latency_ms": "0x1.4c62c5943bbf2p+4",
            "ii_ns": "0x1.3cfce23511ca9p+13",
            "throughput_items_per_s": "0x1.81183a39e5206p+16",
            "throughput_gops": "0x1.90abe9e870d0ep+7",
            "serving_batch": 2048,
            "usd_per_hour": "0x1.170a3d70a3d71p+1",
            "bottleneck": "mlp",
            "usd_per_million_queries": "0x1.928e611164cdep-8",
        },
        "summary": [
            ("backend", "nmp"),
            ("model", "production-small"),
            ("precision", "fp32"),
            ("latency_us", "0x1.3bab0e560418ap+11"),
            ("throughput_items_per_s", "0x1.81183a39e5206p+16"),
            ("usd_per_hour", "0x1.170a3d70a3d71p+1"),
            ("serving_batch", 2048),
            ("serving_latency_ms", "0x1.4c62c5943bbf2p+4"),
            ("lookup_speedup", "0x1.0000000000000p+2"),
            ("embedding_fraction", "0x1.f14a0ef905215p-3"),
            ("bottleneck", "mlp"),
        ],
        "batch_latency_ms": {
            1: "0x1.433e8576cce60p+1",
            64: "0x1.eb68dbee6353ep+1",
            2048: "0x1.4c62c5943bbf2p+4",
        },
    },
    ("nmp", "large", "default"): {
        "perf": {
            "backend": "nmp",
            "precision": "fp32",
            "latency_us": "0x1.1605333333334p+12",
            "serving_latency_ms": "0x1.0880a6790cee8p+5",
            "ii_ns": "0x1.f87fa18592b23p+13",
            "throughput_items_per_s": "0x1.e3ed6381718eep+15",
            "throughput_gops": "0x1.80b2e5dac967cp+7",
            "serving_batch": 2048,
            "usd_per_hour": "0x1.170a3d70a3d71p+1",
            "bottleneck": "mlp",
            "usd_per_million_queries": "0x1.40578b0a12819p-7",
        },
        "summary": [
            ("backend", "nmp"),
            ("model", "production-large"),
            ("precision", "fp32"),
            ("latency_us", "0x1.1605333333334p+12"),
            ("throughput_items_per_s", "0x1.e3ed6381718eep+15"),
            ("usd_per_hour", "0x1.170a3d70a3d71p+1"),
            ("serving_batch", 2048),
            ("serving_latency_ms", "0x1.0880a6790cee8p+5"),
            ("lookup_speedup", "0x1.0000000000000p+2"),
            ("embedding_fraction", "0x1.1fbb6178df21dp-2"),
            ("bottleneck", "mlp"),
        ],
        "batch_latency_ms": {
            1: "0x1.1cb15b573eab4p+2",
            64: "0x1.99d9b660bdbc2p+2",
            2048: "0x1.0880a6790cee8p+5",
        },
    },
    ("nmp", "dlrm-rmc2", "default"): {
        "perf": {
            "backend": "nmp",
            "precision": "fp32",
            "latency_us": "0x1.119ba5e353f7cp+10",
            "serving_latency_ms": "0x1.bd5d9e0e73e20p+3",
            "ii_ns": "0x1.a8bbdbd0007bbp+12",
            "throughput_items_per_s": "0x1.1f677df64d19dp+17",
            "throughput_gops": "0x1.990726fbd060ap+7",
            "serving_batch": 2048,
            "usd_per_hour": "0x1.170a3d70a3d71p+1",
            "bottleneck": "mlp",
            "usd_per_million_queries": "0x1.0db194558d48ep-8",
        },
        "summary": [
            ("backend", "nmp"),
            ("model", "dlrm-rmc2-t8-d32"),
            ("precision", "fp32"),
            ("latency_us", "0x1.119ba5e353f7cp+10"),
            ("throughput_items_per_s", "0x1.1f677df64d19dp+17"),
            ("usd_per_hour", "0x1.170a3d70a3d71p+1"),
            ("serving_batch", 2048),
            ("serving_latency_ms", "0x1.bd5d9e0e73e20p+3"),
            ("lookup_speedup", "0x1.0000000000000p+2"),
            ("embedding_fraction", "0x1.b9b13d8243f14p-3"),
            ("bottleneck", "mlp"),
        ],
        "batch_latency_ms": {
            1: "0x1.182cb20fb224ap+0",
            64: "0x1.0626c211c9d56p+1",
            2048: "0x1.bd5d9e0e73e20p+3",
        },
    },
    ("cpu", "small", "knobbed"): {
        "perf": {
            "backend": "cpu",
            "precision": "fp32",
            "latency_us": "0x1.e56353f7ced92p+11",
            "serving_latency_ms": "0x1.7ed5c8e1a6704p+4",
            "ii_ns": "0x1.6d199987525e7p+13",
            "throughput_items_per_s": "0x1.4e58fd0ce1d75p+16",
            "throughput_gops": "0x1.5bdf2f65c475fp+7",
            "serving_batch": 2048,
            "usd_per_hour": "0x1.d1eb851eb851fp+0",
            "bottleneck": "embedding",
            "usd_per_million_queries": "0x1.8316bce42849ap-8",
        },
        "summary": [
            ("backend", "cpu"),
            ("model", "production-small"),
            ("precision", "fp32"),
            ("latency_us", "0x1.e56353f7ced92p+11"),
            ("throughput_items_per_s", "0x1.4e58fd0ce1d75p+16"),
            ("usd_per_hour", "0x1.d1eb851eb851fp+0"),
            ("serving_batch", 2048),
            ("serving_latency_ms", "0x1.7ed5c8e1a6704p+4"),
            ("embedding_fraction", "0x1.525af5687adefp-1"),
            ("bottleneck", "embedding"),
        ],
        "batch_latency_ms": {
            1: "0x1.f1098d477bbfap+1",
            64: "0x1.3c943d1c44463p+2",
            2048: "0x1.7ed5c8e1a6704p+4",
        },
    },
    ("gpu", "small", "knobbed"): {
        "perf": {
            "backend": "gpu",
            "precision": "fp32",
            "latency_us": "0x1.3e8c3d4333a31p+13",
            "serving_latency_ms": "0x1.6cc03979d795cp+4",
            "ii_ns": "0x1.5bda81d0369d1p+12",
            "throughput_items_per_s": "0x1.5eeca897ccd23p+17",
            "throughput_gops": "0x1.6d1e827d14b1cp+8",
            "serving_batch": 4096,
            "usd_per_hour": "0x1.87ae147ae147bp+1",
            "bottleneck": "embedding",
            "usd_per_million_queries": "0x1.3609ca745da5cp-8",
        },
        "summary": [
            ("backend", "gpu"),
            ("model", "production-small"),
            ("precision", "fp32"),
            ("latency_us", "0x1.3e8c3d4333a31p+13"),
            ("throughput_items_per_s", "0x1.5eeca897ccd23p+17"),
            ("usd_per_hour", "0x1.87ae147ae147bp+1"),
            ("serving_batch", 4096),
            ("serving_latency_ms", "0x1.6cc03979d795cp+4"),
            ("pcie_transfer_ms", "0x1.09a3a61b40869p-4"),
            ("bottleneck", "embedding"),
        ],
        "batch_latency_ms": {
            1: "0x1.463165a5120f7p+3",
            64: "0x1.4c65d030204aep+3",
            2048: "0x1.07e6288521034p+4",
        },
    },
    ("nmp", "small", "knobbed"): {
        "perf": {
            "backend": "nmp",
            "precision": "fp32",
            "latency_us": "0x1.dd52c083126eap+10",
            "serving_latency_ms": "0x1.33e7bc74018cfp+4",
            "ii_ns": "0x1.25a42c3511ca9p+13",
            "throughput_items_per_s": "0x1.9fb65c1486031p+16",
            "throughput_gops": "0x1.b0871842084cfp+7",
            "serving_batch": 2048,
            "usd_per_hour": "0x1.170a3d70a3d71p+1",
            "bottleneck": "mlp",
            "usd_per_million_queries": "0x1.74e84d7b6df79p-8",
        },
        "summary": [
            ("backend", "nmp"),
            ("model", "production-small"),
            ("precision", "fp32"),
            ("latency_us", "0x1.dd52c083126eap+10"),
            ("throughput_items_per_s", "0x1.9fb65c1486031p+16"),
            ("usd_per_hour", "0x1.170a3d70a3d71p+1"),
            ("serving_batch", 2048),
            ("serving_latency_ms", "0x1.33e7bc74018cfp+4"),
            ("lookup_speedup", "0x1.0000000000000p+3"),
            ("embedding_fraction", "0x1.75ff3b2873088p-3"),
            ("bottleneck", "mlp"),
        ],
        "batch_latency_ms": {
            1: "0x1.e8c76d117b529p+0",
            64: "0x1.98f44da70d540p+1",
            2048: "0x1.33e7bc74018cfp+4",
        },
    },
}


def _hexed(value):
    return value.hex() if isinstance(value, float) else value


@pytest.mark.parametrize("case", sorted(PINNED), ids="-".join)
def test_pinned_numbers(case):
    backend, model, label = case
    knobs = OWN_KNOBS[backend] if label == "knobbed" else {}
    session = repro.deploy_model(model, backend=backend, **knobs)
    pinned = PINNED[case]
    perf = {k: _hexed(v) for k, v in session.perf().as_dict().items()}
    assert perf == pinned["perf"]
    summary = [(k, _hexed(v)) for k, v in session.summary().items()]
    assert summary == pinned["summary"]
    for batch, latency in pinned["batch_latency_ms"].items():
        assert session.batch_latency_ms(batch).hex() == latency


@pytest.mark.parametrize("backend", sorted(OWN_KNOBS))
def test_accepts_shared_knobs(backend):
    model = production_small().scaled(max_rows=256)
    mlp = Mlp.random(model.layer_dims, seed=3)
    session = repro.deploy_model(
        model,
        backend=backend,
        memory=u280_memory_system(),
        timing=MemoryTimingModel(),
        precision="fixed16",
        seed=3,
        planner_config=PlannerConfig(),
        serving_batch=64,
        materialize_below_bytes=1 << 20,
        mlp=mlp,
        usd_per_hour=1.5,
    )
    assert session.precision == "fixed16"
    assert session.serving_batch == 64
    assert session.engine.mlp is mlp
    assert session.perf().serving_batch == 64
    assert session.perf().usd_per_hour == 1.5


@pytest.mark.parametrize("backend", sorted(OWN_KNOBS))
def test_accepts_own_knobs(backend):
    knobs = OWN_KNOBS[backend]
    session = repro.deploy_model("small", backend=backend, **knobs)
    cost = session.cost
    if "batch_timeout_ms" in knobs:
        assert session.batch_timeout_ms == knobs["batch_timeout_ms"]
    if backend == "cpu":
        assert (cost.server, cost.params) == (knobs["server"], PARAMS)
    elif backend == "gpu":
        assert cost.gpu == knobs["gpu"]
    else:
        assert (cost.nmp, cost.cpu_params) == (knobs["nmp"], PARAMS)


#: (backend, knob) for every knob that another modelled backend, or
#: ``fpga`` (``fpga_config``, ``plan``), takes and this one does not.
FOREIGN_KNOBS = sorted(
    {
        (backend, knob)
        for backend in OWN_KNOBS
        for knobs in OWN_KNOBS.values()
        for knob in [*knobs, "fpga_config", "plan"]
        if knob not in OWN_KNOBS[backend]
    }
)


@pytest.mark.parametrize(
    ("backend", "knob"), FOREIGN_KNOBS, ids=[f"{b}-{k}" for b, k in FOREIGN_KNOBS]
)
def test_rejects_other_backends_knobs(backend, knob):
    message = f"{backend} backend got unexpected knobs ['{knob}']"
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        repro.deploy_model("small", backend=backend, **{knob: None})


#: Each serving knob's deploy-time check, and values it rejects.
SERVING_KNOB_CHECKS = {
    "serving_batch": (
        "must be a positive integer", (math.nan, math.inf, 2.5, -4)
    ),
    "batch_timeout_ms": ("must be finite and >= 0", (math.nan, math.inf, -4)),
}

BAD_SERVING_KNOBS = [
    (backend, knob, value)
    for backend in sorted(OWN_KNOBS)
    for knob, (_rule, values) in SERVING_KNOB_CHECKS.items()
    if knob == "serving_batch" or knob in OWN_KNOBS[backend]
    for value in values
]


def _knob_error(knob, value):
    rule, _values = SERVING_KNOB_CHECKS[knob]
    return f"^{re.escape(f'{knob} {rule}, got {value}')}$"


@pytest.mark.parametrize("backend", sorted(OWN_KNOBS))
def test_serving_batch_zero_fails(backend):
    with pytest.raises(ValueError, match=_knob_error("serving_batch", 0)):
        repro.deploy_model("small", backend=backend, serving_batch=0)


@pytest.mark.parametrize("value", [True, False])
@pytest.mark.parametrize("backend", ["cpu", "gpu"])
def test_serving_batch_bool_fails(backend, value):
    # A bool is a numbers.Integral but no count: True would serve as a
    # batch of 1 and report a JSON boolean as the payload's batch.
    with pytest.raises(ValueError, match=_knob_error("serving_batch", value)):
        repro.deploy_model("small", backend=backend, serving_batch=value)


@pytest.mark.parametrize(
    ("backend", "knob", "value"),
    BAD_SERVING_KNOBS,
    ids=[f"{b}-{k}-{v}" for b, k, v in BAD_SERVING_KNOBS],
)
def test_bad_serving_knob_fails_at_deploy(backend, knob, value):
    with pytest.raises(ValueError, match=_knob_error(knob, value)):
        repro.deploy_model("small", backend=backend, **{knob: value})
