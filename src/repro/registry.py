"""One name -> item registry for every plugin axis.

Protocol plugins, execution backends, measurement probes and invariant
checkers all register the same way: an item carries its own key (a
``name`` or ``code`` attribute), duplicates need an explicit
``replace=True``, lookups of unknown keys name the known ones, and
iteration follows registration order.  Each axis binds one
:class:`Registry` and re-exports its methods as module-level functions
(``protocols.get``, ``probes.register``...); only domain extras — the
probe kind union, the checker code format, backend construction — live
with their domain.
"""

from __future__ import annotations

from typing import Generic, Iterable, TypeVar

T = TypeVar("T")


class Registry(Generic[T]):
    """Items keyed on their ``key`` attribute, in registration order.

    ``what`` names the item kind in error messages; every error is
    raised as the domain's ``error`` type (``ConfigError`` for the
    harness axes, ``AnalysisError`` for the linter).
    """

    def __init__(
        self, what: str, *, error: type[Exception], key: str = "name"
    ) -> None:
        self.what = what
        self.error = error
        self.key = key
        self._items: dict[str, T] = {}

    def register(self, item: T, *, replace: bool = False) -> T:
        """Add ``item`` under its key; returns it, so it can be used as a
        decorator.  Duplicate keys are an error unless ``replace=True``
        (shadowing a builtin in tests)."""
        name = getattr(item, self.key, "")
        if not name:
            raise self.error(f"{self.what} {item!r} has no {self.key}")
        if name in self._items and not replace:
            raise self.error(
                f"{self.what} {name!r} is already registered; "
                f"pass replace=True to override"
            )
        self._items[name] = item
        return item

    def unregister(self, name: str) -> None:
        """Remove an item if present (primarily for test teardown)."""
        self._items.pop(name, None)

    def get(self, name: str) -> T:
        """Look up an item by key."""
        try:
            return self._items[name]
        except KeyError:
            raise self.error(
                f"unknown {self.what} {name!r}; known: {self.names()}"
            ) from None

    def names(self) -> tuple[str, ...]:
        """Registered keys, in registration order."""
        return tuple(self._items)

    def values(self) -> tuple[T, ...]:
        """Registered items, in registration order."""
        return tuple(self._items.values())

    def validate(self, selected: Iterable[str]) -> tuple[str, ...]:
        """Check every key resolves and none repeats; returns the tuple.

        A repeat would only surface after a full run (as a metric
        collision, or a checker running twice), so reject it at
        selection time.
        """
        selected = tuple(selected)
        repeats = sorted({name for name in selected if selected.count(name) > 1})
        if repeats:
            raise self.error(f"{self.what} selection repeats {repeats}")
        for name in selected:
            self.get(name)
        return selected
