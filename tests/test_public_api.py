"""The public surface: what ``repro`` and its subpackages export.

Every name a package lists in ``__all__`` must resolve on it, and names
whose code was removed must not come back through a re-export.
"""

import importlib
import importlib.util
import pkgutil

import pytest

import repro

SUBPACKAGES = sorted(
    f"repro.{info.name}"
    for info in pkgutil.iter_modules(repro.__path__)
    if info.ispkg
)

#: Names of removed code: single-node row sharding, placement
#: refinement, the bank-state model, the two-engine SLA sweep, the
#: two-engine fleet wrapper and two Cartesian helpers.
REMOVED_NAMES = (
    "refine_placement",
    "shard_oversized",
    "ShardedTable",
    "ShardMap",
    "ShardInfo",
    "BankState",
    "MemorySystemState",
    "sla_capacity_sweep",
    "SlaReport",
    "plan_fleet",
    "build_cartesian_tables",
    "storage_overhead_bytes",
    "FACEBOOK_BASELINE",
)

REMOVED_MODULES = (
    "repro.core.refine",
    "repro.core.sharding",
    "repro.memory.banks",
    "repro.serving.sla",
)


def _exports(name):
    module = importlib.import_module(name)
    return module, tuple(getattr(module, "__all__", ()))


def test_every_subpackage_is_found():
    assert {"repro.core", "repro.memory", "repro.serving"} <= set(SUBPACKAGES)


@pytest.mark.parametrize("name", ["repro", *SUBPACKAGES])
def test_every_exported_name_resolves(name):
    module, exported = _exports(name)
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists unresolvable {missing}"
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats"


@pytest.mark.parametrize("name", ["repro", *SUBPACKAGES])
def test_removed_names_are_not_exported(name):
    _, exported = _exports(name)
    assert not set(REMOVED_NAMES) & set(exported)


@pytest.mark.parametrize("name", REMOVED_MODULES)
def test_removed_modules_are_gone(name):
    assert importlib.util.find_spec(name) is None
