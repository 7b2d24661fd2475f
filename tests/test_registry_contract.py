"""The one registry contract, checked on every plugin axis.

Protocols, execution backends, probes and invariant checkers share
:class:`repro.registry.Registry`; each axis binds one instance with its
own key attribute and domain error.  Domain extras (probe kind unions
and metric directions, the checker code format, backend construction)
are tested next to their domain.
"""

from __future__ import annotations

import pytest

import repro.analysis as analysis
import repro.harness.exec as exec_backends
import repro.harness.probes as probes
import repro.protocols as protocols
from repro.analysis import Checker
from repro.errors import AnalysisError, ConfigError
from repro.harness.exec import Executor
from repro.harness.probes import Probe
from repro.protocols import OrderProtocol


def _protocol(key):
    return type("TestProtocol", (OrderProtocol,), {"name": key})()


def _executor(key):
    return type("TestExecutor", (Executor,), {
        "name": key, "run": lambda self, tasks, progress=None: [],
    })


def _probe(key):
    return type("TestProbe", (Probe,), {"name": key})


def _checker(key):
    return type("TestChecker", (Checker,), {
        "code": key, "check_file": lambda self, file: iter(()),
    })


#: (axis module, item factory, unused keys, domain error)
AXES = {
    "protocols": (protocols, _protocol, ("test-a", "test-b"), ConfigError),
    "executors": (exec_backends, _executor, ("test-a", "test-b"), ConfigError),
    "probes": (probes, _probe, ("test-a", "test-b"), ConfigError),
    "checkers": (analysis, _checker, ("XYZ901", "XYZ902"), AnalysisError),
}


@pytest.mark.parametrize("axis", list(AXES))
def test_registry_contract(axis):
    module, make, (key_a, key_b), error = AXES[axis]
    registry = module.REGISTRY
    # The module-level functions are the registry's own methods
    # (``register`` too, except where the domain checks its key format).
    for fn in ("get", "names", "unregister"):
        assert getattr(module, fn) == getattr(registry, fn)
    builtins = registry.names()
    assert builtins, "the axis registers its builtins on import"
    item_a, item_b = make(key_a), make(key_b)
    try:
        # Iteration follows registration order.
        module.register(item_a)
        module.register(item_b)
        assert registry.names() == (*builtins, key_a, key_b)
        assert registry.values()[-2:] == (item_a, item_b)
        assert registry.get(key_a) is item_a

        # A duplicate key needs replace=True, which shadows.
        with pytest.raises(error, match="already registered"):
            module.register(make(key_a))
        shadow = make(key_a)
        assert module.register(shadow, replace=True) is shadow
        assert registry.get(key_a) is shadow
        assert registry.names() == (*builtins, key_a, key_b)

        # A selection validates to a tuple; repeats and unknowns fail.
        assert registry.validate([key_b, key_a]) == (key_b, key_a)
        with pytest.raises(error, match="repeats"):
            registry.validate([key_a, key_b, key_a])
        with pytest.raises(error, match="unknown"):
            registry.validate([key_a, "no-such-item"])
    finally:
        registry.unregister(key_a)
        registry.unregister(key_b)
    assert registry.names() == builtins

    # An item without a key is rejected.
    with pytest.raises(error):
        module.register(make(""))
    assert registry.names() == builtins

    # An unknown key names the known ones.
    with pytest.raises(error, match=f"unknown .*{builtins[0]}"):
        registry.get(key_a)

    # Unregistering a missing key is a no-op.
    registry.unregister(key_a)
    assert registry.names() == builtins
