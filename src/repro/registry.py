"""One plug-in registry: the ``name → object`` contract every extension
point shares.

Inference backends, routing policies, scaler policies, sharding
strategies, cache policies, telemetry exporters and lint rules are each
picked by name from one :class:`Registry`.  Each owning module binds its
three public functions to its instance::

    _REGISTRY = Registry("backend", "backends", UnknownBackendError)
    register_backend = _REGISTRY.register
    get_backend = _REGISTRY.get
    available_backends = _REGISTRY.names

(``register_rule`` adds its ``RPR###`` code check in front), so all
seven keep the same rules:

* an object registers under its ``name`` attribute, which must be a
  non-empty ``str``, and ``register`` returns the object;
* re-registering a name raises unless ``replace=True``, so a plug-in
  cannot shadow a built-in by accident;
* ``get`` of an unregistered name raises the registry's own
  :class:`UnknownNameError` subclass, naming every registered key so a
  typo's fix is in the message;
* ``names`` is sorted, so every listing is deterministic.

This module imports nothing from :mod:`repro`, so any layer can use it.
"""

from __future__ import annotations

from typing import Generic, TypeVar

T = TypeVar("T")


class UnknownNameError(LookupError):
    """Base class of every registry's unknown-name error."""


class Registry(Generic[T]):
    """Objects keyed by their ``name`` attribute.

    ``kind`` and ``plural`` word the errors (``unknown backend 'x';
    registered backends: ...``); ``error`` is the
    :class:`UnknownNameError` subclass that :meth:`get` raises.
    """

    def __init__(
        self, kind: str, plural: str, error: type[UnknownNameError]
    ) -> None:
        self.kind = kind
        self.plural = plural
        self.error = error
        #: The ``name → object`` mapping itself.
        self.entries: dict[str, T] = {}

    def register(self, item: T, *, replace: bool = False) -> T:
        """Register ``item`` under ``item.name`` and return it."""
        name = getattr(item, "name", None)
        if not isinstance(name, str) or not name:
            raise ValueError(
                f"{self.kind} {item!r} must expose a non-empty str .name"
            )
        if name in self.entries and not replace:
            raise ValueError(
                f"{self.kind} {name!r} is already registered; pass "
                "replace=True to override"
            )
        self.entries[name] = item
        return item

    def get(self, name: str) -> T:
        """The object registered under ``name``."""
        try:
            return self.entries[name]
        except KeyError:
            raise self.error(
                f"unknown {self.kind} {name!r}; registered {self.plural}: "
                f"{', '.join(self.names()) or '(none)'}"
            ) from None

    def names(self) -> tuple[str, ...]:
        """Sorted names of every registered object."""
        return tuple(sorted(self.entries))
