"""Outside-in span tracing for the end-to-end benchmark.

The benchmark never edits the program to trace it.  Instead it rebinds a
fixed list of public ``repro`` callables to thin wrappers for the length
of a traced phase: every ``repro.*`` module global that holds the same
function object, and the class attribute for methods.  Each wrapper
records one span (name, start, end, parent span, op id) in memory, and
:meth:`Instrumentation.uninstall` puts every original object back.

A layer's *self time* is a span's duration minus the time its direct
child spans cover; :func:`span_table` computes it per span name.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from types import ModuleType
from typing import Any, Callable, Iterator

import numpy as np


class Tracer:
    """Nested spans kept in parallel lists, which are cheap to append to."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.items: list[int] = []
        #: Id of the timed op the next spans belong to (-1 outside ops).
        self.op = -1
        self.paused = False
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.names)

    def _open(self, name: str, items: int) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op)
        self.items.append(items)
        self.ends.append(0)
        self._stack.append(index)
        # Read the clock last on entry and first on exit, so the
        # bookkeeping stays outside the span.
        self.starts.append(time.perf_counter_ns())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around a block of the benchmark's own code."""
        index = self._open(name, 0)
        try:
            yield
        finally:
            self._close(index)

    @contextmanager
    def pause(self) -> Iterator[None]:
        """Record nothing inside the block (output checks run here)."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        items: Callable[[tuple], int] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` recording one span per call; ``items`` sizes the call."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if self.paused:
                return fn(*args, **kwargs)
            index = self._open(name, items(args) if items else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return traced

    def payload(self) -> dict[str, object]:
        """JSON-ready columnar dump; times in ns from the first span."""
        names = sorted(set(self.names))
        code = {name: i for i, name in enumerate(names)}
        origin = self.starts[0] if self.starts else 0
        return {
            "names": names,
            "name": [code[name] for name in self.names],
            "start_ns": [t - origin for t in self.starts],
            "end_ns": [t - origin for t in self.ends],
            "parent": self.parents,
            "op": self.ops,
            "items": self.items,
        }


@dataclass(frozen=True)
class Target:
    """One traced callable: ``owner.attr`` is a module function or a method."""

    span: str
    owner: type | ModuleType
    attr: str
    items: Callable[[tuple], int] | None = None


def _array_size(args: tuple) -> int:
    # Methods: args[0] is self, args[1] the array the call works on.
    return int(np.size(args[1]))


def targets() -> list[Target]:
    """The fixed list of public callables the traced run wraps."""
    import repro
    from repro.autoscale import simulator
    from repro.cluster import api as cluster_api
    from repro.cluster import get_policy
    from repro.core import planner
    from repro.memory import get_cache_policy
    from repro.memory.tiers import TierHierarchy
    from repro.runtime import api as runtime_api
    from repro.runtime.session import ModeledSession
    from repro.serving import arrivals
    from repro.serving.popularity import PopularityModel
    from repro.serving.queueing import BatchedServerSim, PipelineServerSim
    from repro.telemetry.metrics import Counter, Histogram

    listed = [
        Target("runtime.deploy_model", runtime_api, "deploy_model"),
        Target("runtime.deploy_cluster", cluster_api, "deploy_cluster"),
        Target("runtime.serve", repro.ServingSurface, "serve"),
        Target("runtime.infer", repro.FpgaSession, "infer"),
        Target("runtime.infer", ModeledSession, "infer"),
        Target("core.plan_tables", planner, "plan_tables"),
        Target(
            "core.lookup_embeddings", repro.MicroRecEngine, "lookup_embeddings"
        ),
        Target("core.cartesian_lookup", repro.CartesianTable, "lookup"),
        Target("core.table_lookup", repro.VirtualTable, "lookup"),
        Target("core.table_lookup", repro.MaterializedTable, "lookup"),
        Target("models.mlp_forward", repro.Mlp, "forward"),
        Target("serving.trace_arrivals", arrivals, "trace_arrivals"),
        Target("serving.poisson_arrivals", arrivals, "poisson_arrivals"),
        Target("serving.pipeline_run", PipelineServerSim, "run", _array_size),
        Target("serving.batched_run", BatchedServerSim, "run", _array_size),
        Target("serving.popularity_sample", PopularityModel, "sample"),
        Target(
            "memory.assign_tiers", TierHierarchy, "assign_tiers", _array_size
        ),
        Target("telemetry.observe_many", Histogram, "observe_many"),
        Target("telemetry.counter_inc", Counter, "inc"),
        Target(
            "autoscale.simulate_autoscale", simulator, "simulate_autoscale"
        ),
    ]
    for name in repro.available_policies():
        listed.append(
            Target(f"cluster.route.{name}", type(get_policy(name)), "route")
        )
    for name in repro.memory.available_cache_policies():
        listed.append(
            Target(
                f"memory.hits.{name}", type(get_cache_policy(name)), "hits"
            )
        )
    return listed


def _repro_modules() -> list[ModuleType]:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


class Instrumentation:
    """Rebinds :func:`targets` to tracing wrappers and restores them."""

    def __init__(self, tracer: Tracer, listed: list[Target]) -> None:
        self._wrapped: list[tuple[Target, Any, Callable[..., Any]]] = []
        for target in listed:
            original = vars(target.owner)[target.attr]
            wrapper = tracer.wrap(target.span, original, target.items)
            self._wrapped.append((target, original, wrapper))
        self._bindings: list[tuple[Any, str, Any]] = []

    def install(self) -> None:
        if self._bindings:
            raise RuntimeError("instrumentation is already installed")
        for target, original, wrapper in self._wrapped:
            if isinstance(target.owner, type):
                sites = [(target.owner, target.attr)]
            else:
                # A function is bound under its own name wherever a
                # module imported it, and sometimes under an alias too.
                sites = [
                    (module, attr)
                    for module in _repro_modules()
                    for attr, value in list(vars(module).items())
                    if value is original
                ]
            for owner, attr in sites:
                setattr(owner, attr, wrapper)
                self._bindings.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._bindings):
            setattr(owner, attr, original)
        self._bindings = []

    @contextmanager
    def installed(self) -> Iterator[None]:
        self.install()
        try:
            yield
        finally:
            self.uninstall()


@dataclass
class SpanStats:
    """Per-name totals over a slice of spans."""

    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    items: int = 0


def span_table(
    tracer: Tracer, begin: int, end: int
) -> defaultdict[str, SpanStats]:
    """Calls, self time, inclusive time and items per span name.

    ``[begin, end)`` must hold whole span trees (a round or a build), so
    every parent of a span in the slice is in the slice or outside it as
    a root.  Names with no span read as zeros.
    """
    starts = np.asarray(tracer.starts[begin:end], dtype=np.int64)
    ends = np.asarray(tracer.ends[begin:end], dtype=np.int64)
    parents = np.asarray(tracer.parents[begin:end], dtype=np.int64) - begin
    duration = (ends - starts) / 1e9
    covered = np.zeros(duration.size)
    inside = parents >= 0
    np.add.at(covered, parents[inside], duration[inside])
    self_s = duration - covered
    table: defaultdict[str, SpanStats] = defaultdict(SpanStats)
    for i, name in enumerate(tracer.names[begin:end]):
        stats = table[name]
        stats.calls += 1
        stats.self_s += float(self_s[i])
        stats.total_s += float(duration[i])
        stats.items += tracer.items[begin + i]
    return table
