"""The measurement-probe registry.

Maps probe names to :class:`~repro.harness.probes.base.Probe`
*classes* (instances are per-run) through one
:class:`~repro.registry.Registry`, like the protocol, executor and
checker axes.  The paper's three probes register on package import; a
new probe registers with :func:`register` and is immediately
selectable from ``SweepTask(probes=...)``, scenario specs, every CLI
``--probes`` flag and ``python -m repro probes``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.errors import ConfigError
from repro.harness.probes.base import Probe, ProbeContext
from repro.registry import Registry

#: Probe name -> :class:`Probe` subclass.
REGISTRY: Registry[type[Probe]] = Registry("probe", error=ConfigError)
register = REGISTRY.register
unregister = REGISTRY.unregister
get = REGISTRY.get
names = REGISTRY.names
all_probes = REGISTRY.values
validate_names = REGISTRY.validate


def create_all(
    selected: Sequence[str], context: ProbeContext
) -> tuple[Probe, ...]:
    """Instantiate the named probes against one run's context."""
    return tuple(get(name)(context) for name in selected)


def kinds_union(selected: Iterable[str]) -> frozenset[str]:
    """Union of the named probes' declared trace kinds — the derived
    keep-filter for a run measured by exactly those probes."""
    kinds: set[str] = set()
    for name in selected:
        kinds |= get(name).kinds
    return frozenset(kinds)


def metric_direction(metric: str) -> str | None:
    """Gate direction for a metric name, consulting probe declarations.

    Accepts both bare names (``latency_mean`` — scanned across every
    registered probe) and probe-qualified names (``order-latency.
    latency_mean`` — the namespaced form scenario probe metrics use).
    Returns ``None`` when no registered probe claims the metric.
    """
    probe_part, _, bare = metric.rpartition(".")
    if probe_part in names():
        return dict(get(probe_part).directions).get(bare)
    for probe in all_probes():
        direction = dict(probe.directions).get(metric)
        if direction is not None:
            return direction
    return None
