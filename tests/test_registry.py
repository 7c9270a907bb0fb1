"""The contract every plug-in registry shares (``repro.registry``).

Each case is one registry: its package, the module that owns it, and its
``register_*``, ``get_*`` and ``available_*`` functions and
``Unknown*Error`` class by name.  Registrations a test makes are
discarded with a copy of the registry's mapping.
"""

from __future__ import annotations

import importlib

import pytest

from repro.registry import Registry, UnknownNameError

REGISTRIES = {
    "backend": (
        "repro.runtime", "repro.runtime.backend",
        ("register_backend", "get_backend", "available_backends",
         "UnknownBackendError"),
    ),
    "routing-policy": (
        "repro.cluster", "repro.cluster.routing",
        ("register_policy", "get_policy", "available_policies",
         "UnknownRoutingPolicyError"),
    ),
    "scaler": (
        "repro.autoscale", "repro.autoscale.policies",
        ("register_scaler", "get_scaler", "available_scalers",
         "UnknownScalerError"),
    ),
    "sharding-strategy": (
        "repro.distplan", "repro.distplan.strategies",
        ("register_strategy", "get_strategy", "available_strategies",
         "UnknownShardingStrategyError"),
    ),
    "cache-policy": (
        "repro.memory", "repro.memory.tiers",
        ("register_cache_policy", "get_cache_policy",
         "available_cache_policies", "UnknownCachePolicyError"),
    ),
    "exporter": (
        "repro.telemetry", "repro.telemetry.metrics",
        ("register_exporter", "get_exporter", "available_exporters",
         "UnknownExporterError"),
    ),
    "lint-rule": (
        "repro.analysis", "repro.analysis.registry",
        ("register_rule", "get_rule", "available_rules", "UnknownRuleError"),
    ),
}

#: A fresh key every registry accepts (lint rules need ``RPR###``).
FRESH = "RPR997"


class Item:
    def __init__(self, name: object) -> None:
        self.name = name


@pytest.fixture(params=list(REGISTRIES.values()), ids=list(REGISTRIES))
def reg(request, monkeypatch):
    """(register, get, available, error) of one registry, isolated."""
    _package, module_name, names = request.param
    module = importlib.import_module(module_name)
    registry = module._REGISTRY
    monkeypatch.setattr(registry, "entries", dict(registry.entries))
    return tuple(getattr(module, name) for name in names)


@pytest.mark.parametrize(
    ("package", "module", "names"),
    list(REGISTRIES.values()),
    ids=list(REGISTRIES),
)
def test_public_names_are_the_modules(package, module, names):
    package, module = (importlib.import_module(m) for m in (package, module))
    for name in names:
        assert getattr(package, name) is getattr(module, name)
    assert issubclass(getattr(module, names[-1]), UnknownNameError)


@pytest.mark.parametrize(
    "item",
    [object(), Item(None), Item(7), Item(b"x"), Item("")],
    ids=["missing", "None", "int", "bytes", "empty"],
)
def test_a_missing_non_str_or_empty_name_is_rejected(reg, item):
    register, _get, available, _error = reg
    before = available()
    with pytest.raises(ValueError):
        register(item)
    assert available() == before


def test_a_duplicate_needs_replace_and_replace_takes_over(reg):
    register, get, available, _error = reg
    builtins = available()
    assert builtins
    for name in builtins:
        original = get(name)
        with pytest.raises(ValueError, match="replace=True"):
            register(Item(name))
        assert get(name) is original
    assert available() == builtins
    first, second = Item(FRESH), Item(FRESH)
    assert register(first) is first
    with pytest.raises(ValueError, match="replace=True"):
        register(second)
    assert get(FRESH) is first
    assert register(second, replace=True) is second
    assert get(FRESH) is second


def test_the_listing_is_sorted(reg):
    register, _get, available, _error = reg
    register(Item(FRESH))
    names = available()
    assert isinstance(names, tuple)
    assert FRESH in names
    assert list(names) == sorted(names)


def test_an_unknown_name_lists_every_registered_name(reg):
    register, get, available, error = reg
    register(Item(FRESH))
    with pytest.raises(error) as err:
        get("no-such-name")
    assert isinstance(err.value, UnknownNameError)
    assert isinstance(err.value, LookupError)
    message = str(err.value)
    assert message.startswith("unknown ")
    assert "'no-such-name'; registered " in message
    assert message.endswith(": " + ", ".join(available()))


def test_an_empty_registry_says_none():
    class UnknownWidgetError(UnknownNameError):
        pass

    widgets: Registry[Item] = Registry(
        "widget", "widgets", UnknownWidgetError
    )
    with pytest.raises(
        UnknownWidgetError,
        match=r"^unknown widget 'x'; registered widgets: \(none\)$",
    ):
        widgets.get("x")
    assert widgets.names() == ()
