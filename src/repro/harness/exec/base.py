"""The :class:`Executor` protocol and the backend registry.

An executor turns a list of pure :class:`~repro.harness.runner.
SweepTask` values into the matching list of
:class:`~repro.harness.runner.PointResult`, in **submission order** —
the contract every backend must honour so that ``serial``, ``pool``
and ``sockets`` are byte-identical for the same grid and the baseline
gate never sees a scheduling artefact.

Backends register by class (keyed on their ``name``) in one
:class:`~repro.registry.Registry`, like the protocol plugins of
:mod:`repro.protocols`: the three builtin backends register on package
import, and anything else — an SSH fan-out, a batch-queue submitter —
becomes reachable from :func:`repro.harness.runner.execute` and every
CLI ``--executor`` flag the moment it calls :func:`register`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Sequence

from repro.errors import ConfigError
from repro.harness.runner import PointResult, Progress, SweepTask
from repro.harness.telemetry import Stopwatch
from repro.registry import Registry

#: Per-completion callback type (``None`` disables reporting).
ProgressCallback = Callable[[Progress], None]


class Executor(ABC):
    """One strategy for executing a sweep-task grid.

    Subclasses accept their options as keyword arguments — every
    backend takes ``jobs`` (its parallelism budget; serial ignores it)
    and ``cost_hints`` (optional ``{point_id: relative cost}`` used to
    dispatch expensive tasks first) so the :func:`~repro.harness.
    runner.execute` facade can construct any of them uniformly.
    """

    #: Registry key; subclasses must override.
    name: str = ""

    def __init__(
        self, jobs: int = 1, cost_hints: dict[str, float] | None = None
    ) -> None:
        self.jobs = max(1, int(jobs))
        self.cost_hints = cost_hints

    @abstractmethod
    def run(
        self,
        tasks: Sequence[SweepTask],
        progress: ProgressCallback | None = None,
    ) -> list[PointResult]:
        """Execute every task; results in submission order."""

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def _start_clock(self) -> None:
        self._watch = Stopwatch()
        self._done = 0

    def _report(
        self,
        progress: ProgressCallback | None,
        point: PointResult,
        total: int,
    ) -> None:
        """Emit one completion snapshot (call under the backend's lock
        when completions may race)."""
        self._done += 1
        if progress is not None:
            progress(Progress(
                done=self._done,
                total=total,
                elapsed=self._watch.elapsed,
                last=point,
            ))


#: Backend name -> :class:`Executor` subclass.
REGISTRY: Registry[type[Executor]] = Registry("executor", error=ConfigError)
register = REGISTRY.register
unregister = REGISTRY.unregister
get = REGISTRY.get
names = REGISTRY.names


def create(name: str, **options: object) -> Executor:
    """Instantiate a backend with the given options."""
    return get(name)(**options)
