"""Pluggable sweep-execution backends.

The execution half of the sweep runner, split out behind a small
registry (mirroring :mod:`repro.protocols`): an
:class:`~repro.harness.exec.base.Executor` maps a grid of pure
:class:`~repro.harness.runner.SweepTask` values to
:class:`~repro.harness.runner.PointResult` lists **in submission
order**, and three backends register on import —

* ``serial`` — in-process loop, the reference implementation;
* ``pool`` — the local ``ProcessPoolExecutor`` fan-out;
* ``sockets`` — a fault-tolerant TCP coordinator streaming tasks to
  ``python -m repro worker`` subprocesses, rescheduling the tasks of
  dead or timed-out workers.

All three are regression-tested byte-identical for the same grid.
Orthogonal layers that compose with any backend:

* :mod:`~repro.harness.exec.schedule` — cost-aware dispatch
  (expensive tasks first; prior-artifact ``events`` telemetry as the
  cost oracle when available);
* :mod:`~repro.harness.exec.checkpoint` — journal finished points and
  resume interrupted sweeps.

Most callers go through the stable facade
:func:`repro.harness.runner.execute`; this package is the extension
surface.
"""

from repro.harness.exec.base import (
    REGISTRY,
    Executor,
    create,
    get,
    names,
    register,
    unregister,
)
from repro.harness.exec.checkpoint import Checkpoint, run_with_checkpoint
from repro.harness.exec.schedule import (
    dispatch_order,
    load_cost_hints,
    predicted_cost,
)

# Importing the backend modules registers them.
from repro.harness.exec.serial import SerialExecutor
from repro.harness.exec.pool import PoolExecutor
from repro.harness.exec.sockets import SocketExecutor

__all__ = [
    "Checkpoint",
    "Executor",
    "PoolExecutor",
    "REGISTRY",
    "SerialExecutor",
    "SocketExecutor",
    "create",
    "dispatch_order",
    "get",
    "load_cost_hints",
    "names",
    "predicted_cost",
    "register",
    "run_with_checkpoint",
    "unregister",
]
