"""The executor registry and the ``execute()`` facade's dispatch.

The registration contract itself is tested once for every axis in
``tests/test_registry_contract.py``.
"""

import pytest

from repro.errors import ConfigError
from repro.harness import exec as exec_backends
from repro.harness.exec.base import Executor
from repro.harness.runner import execute


def test_builtin_backends_are_registered():
    assert exec_backends.names() == ("serial", "pool", "sockets")
    for name in exec_backends.names():
        cls = exec_backends.get(name)
        assert issubclass(cls, Executor)
        assert cls.name == name


def test_unknown_backend_is_a_config_error():
    with pytest.raises(ConfigError, match="unknown executor"):
        execute([], executor="carrier-pigeon")


def test_create_passes_options_through():
    backend = exec_backends.create("pool", jobs=7)
    assert backend.jobs == 7
    assert exec_backends.create("serial", jobs=0).jobs == 1  # floor


def test_custom_backend_reaches_the_facade(grid, serial_reference):
    """Anything registered becomes selectable through execute() —
    the plugin contract that makes the layer extensible."""

    class Reversing(Executor):
        """Runs the grid back-to-front (results must still be in
        submission order, which this backend honours)."""

        name = "test-reversing"

        def run(self, tasks, progress=None):
            serial = exec_backends.create("serial")
            return list(reversed(serial.run(list(reversed(tasks)), progress)))

    exec_backends.register(Reversing)
    try:
        results = execute(grid, executor="test-reversing")
        assert [p.result for p in results] == [p.result for p in serial_reference]
    finally:
        exec_backends.unregister("test-reversing")
    assert "test-reversing" not in exec_backends.names()


def test_facade_defaults_preserve_historical_selection(grid):
    """jobs<=1 serial, jobs>1 pool — unchanged from the monolith."""
    assert execute([], jobs=4) == []
    single = execute(grid[:1], jobs=4)  # 1 task: serial path, no pool
    assert len(single) == 1
