"""The invariant-checker registry.

Maps checker codes (``RPR001``...) to
:class:`~repro.analysis.base.Checker` *classes* (instances are
per-run) through one :class:`~repro.registry.Registry`, like the
protocol, executor and probe axes.  The five built-in invariants
register on package import; a new invariant registers with
:func:`register` and is immediately selectable from ``repro lint
--select`` and listed by ``repro lint --list``.
"""

from __future__ import annotations

import re

from repro.analysis.base import Checker
from repro.errors import AnalysisError
from repro.registry import Registry

#: Checker code -> :class:`Checker` subclass.
REGISTRY: Registry[type[Checker]] = Registry(
    "checker", error=AnalysisError, key="code"
)
unregister = REGISTRY.unregister
get = REGISTRY.get
names = REGISTRY.names
all_checkers = REGISTRY.values

_CODE_RE = re.compile(r"^[A-Z]{2,8}[0-9]{3}$")


def register(checker: type[Checker], *, replace: bool = False) -> type[Checker]:
    """Add a checker class under its ``code``, which must look like
    ``RPR001``; returns it, so it can be used as a decorator."""
    if not _CODE_RE.match(checker.code or ""):
        raise AnalysisError(
            f"checker class {checker!r} needs a code like 'RPR001'"
        )
    return REGISTRY.register(checker, replace=replace)
