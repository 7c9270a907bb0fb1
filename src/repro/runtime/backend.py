"""Inference backend protocol and string-keyed registry.

A *backend* knows how to turn a :class:`~repro.models.spec.ModelSpec` into
a live :class:`~repro.runtime.session.Session` — a deployed engine with a
uniform inference/performance/serving surface.  Backends register under
short names (``"fpga"``, ``"fpga-compressed"``, ``"cpu"``, ...) in a
:class:`repro.registry.Registry`; everything above this layer —
:func:`repro.deploy_model`, the CLI, experiments — selects engines by name
and never touches engine constructors directly.

Third-party or experimental backends plug in with::

    from repro.runtime import register_backend

    class MyBackend:
        name = "my-accelerator"

        def build(self, model, *, memory=None, timing=None,
                  precision=None, seed=0, planner_config=None, **knobs):
            ...  # return a Session

    register_backend(MyBackend())
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, runtime_checkable

from repro.registry import Registry, UnknownNameError

if TYPE_CHECKING:
    from repro.core.planner import PlannerConfig
    from repro.memory.spec import MemorySystemSpec
    from repro.memory.timing import MemoryTimingModel
    from repro.models.spec import ModelSpec
    from repro.runtime.session import Session


class UnknownBackendError(UnknownNameError):
    """Raised when a backend name is not in the registry."""


@runtime_checkable
class InferenceBackend(Protocol):
    """Uniform constructor surface every registered backend implements.

    ``build`` accepts the *shared* knobs below on every backend — those
    that do not apply (e.g. ``planner_config`` on ``cpu``) are accepted
    and ignored, so one shared-knob set can sweep all backends.  Each
    backend may add its own keyword knobs on top; unknown or
    other-backend knobs are rejected with :class:`TypeError` to catch
    typos early.
    """

    name: str

    def build(
        self,
        model: "ModelSpec",
        *,
        memory: "MemorySystemSpec | None" = None,
        timing: "MemoryTimingModel | None" = None,
        precision: str | None = None,
        seed: int = 0,
        planner_config: "PlannerConfig | None" = None,
        **knobs: object,
    ) -> "Session":
        """Deploy ``model`` on this backend and return a live session."""
        ...


_REGISTRY: Registry[InferenceBackend] = Registry(
    "backend", "backends", UnknownBackendError
)
register_backend = _REGISTRY.register
get_backend = _REGISTRY.get
available_backends = _REGISTRY.names
