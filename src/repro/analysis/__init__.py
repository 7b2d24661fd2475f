"""Static analysis of the tree's determinism and safety invariants.

The fourth plugin registry (after protocols, execution backends and
measurement probes): a :class:`~repro.analysis.base.Checker` is one
machine-enforced invariant, registered by code and run by ``python -m
repro lint``.  Five ship built in —

* ``RPR001`` determinism — no ambient randomness or wall-clock reads
  in sim/protocol code; harness telemetry goes through
  :mod:`repro.harness.telemetry`;
* ``RPR002`` registry dispatch — no protocol string dispatch and no
  concrete plugin-class imports outside the owning packages;
* ``RPR003`` trace-kind consistency — probe ``kinds`` declarations,
  emit sites and ``Tracer.wants()`` guards agree;
* ``RPR004`` wire safety — ``pickle.loads`` only in the framing
  module, every frame reader bounded by ``MAX_FRAME_BYTES``;
* ``RPR005`` async hygiene — nothing blocks the live event loop.

Suppression is explicit and reviewable: ``# repro: allow[CODE]
reason`` line pragmas, plus the committed near-empty baseline
(:mod:`~repro.analysis.baseline`).  The CI job ``lint-invariants``
gates ``repro lint --format json src tests`` on every push.
"""

from repro.analysis.base import Checker, Finding, SourceFile
from repro.analysis.engine import (
    JSON_SCHEMA_VERSION,
    LintReport,
    lint_files,
    lint_paths,
    lint_sources,
)
from repro.analysis.registry import (
    REGISTRY,
    all_checkers,
    get,
    names,
    register,
    unregister,
)

# Importing the checker modules registers them.
from repro.analysis.determinism import DeterminismChecker
from repro.analysis.dispatch import DispatchChecker
from repro.analysis.tracekinds import TraceKindChecker
from repro.analysis.wire import WireSafetyChecker
from repro.analysis.asynchygiene import AsyncHygieneChecker

__all__ = [
    "AsyncHygieneChecker",
    "Checker",
    "DeterminismChecker",
    "DispatchChecker",
    "Finding",
    "JSON_SCHEMA_VERSION",
    "LintReport",
    "REGISTRY",
    "SourceFile",
    "TraceKindChecker",
    "WireSafetyChecker",
    "all_checkers",
    "get",
    "lint_files",
    "lint_paths",
    "lint_sources",
    "names",
    "register",
    "unregister",
]
