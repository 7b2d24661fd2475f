"""The benchmark's arithmetic, kept free of I/O so it can be tested.

* :func:`percentile` — nearest-rank percentile (the value at rank
  ``ceil(q * n)``), so every reported percentile is a sample that was
  actually measured; :func:`tail_samples` says how many samples lie
  beyond it (a percentile needs ten).
* :func:`quartile_spread` — ``(q3 - q1) / median`` with the quartiles
  of :func:`statistics.quantiles` (``n=4``, the default exclusive
  method): the steadiness figure a run set is judged by.
* :func:`due_time_latencies` — latency from each request's *due* time
  to its commit, so a generator or a cluster stall that delays later
  sends is charged to every request it delayed.
* :func:`self_times` — a span's duration minus the part of it its child
  spans cover.
* :func:`calibration_ratios` — each timed execution's CPU divided by
  the mean CPU of the calibration loops run right before and after it.
* :func:`fail_frac` — the share of issued requests never committed.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Sequence


def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` for ``0 < q <= 1``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"percentile rank {q} outside (0, 1]")
    rank = math.ceil(q * len(ordered))
    return ordered[max(rank, 1) - 1]


def tail_samples(n: int, q: float) -> int:
    """Samples ranked above the ``q`` percentile of ``n`` samples.

    A percentile is reported only with at least ten samples beyond it;
    below that it is one outlier's value, not a property of the run.
    """
    return n - math.ceil(q * n)


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as :func:`statistics.quantiles` gives them."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def quartile_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, mid, q3 = quartiles(values)
    if mid == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(mid)


def due_time_latencies(
    due: dict[int, float], committed: dict[int, float]
) -> list[float]:
    """Latency of every committed request, from due time to commit.

    ``due`` maps request id to the time the request was due to be sent
    (open loop: its scheduled arrival; closed loop: its send time);
    ``committed`` maps request id to the time its ``f + 1``-th matching
    reply arrived.  Requests never committed have no latency; they count
    in :func:`fail_frac` instead.
    """
    return [committed[rid] - due[rid] for rid in committed if rid in due]


def fail_frac(issued: int, committed: int) -> float:
    """Share of issued requests that never committed."""
    if issued <= 0:
        raise ValueError("fail_frac of no issued requests")
    if not 0 <= committed <= issued:
        raise ValueError(f"{committed} committed of {issued} issued")
    return (issued - committed) / issued


def self_times(
    spans: Sequence[tuple[int, float, float, int]]
) -> list[float]:
    """Self time of every span: duration minus its children's cover.

    ``spans`` holds ``(name_id, start, end, parent)`` rows where
    ``parent`` is the index of the enclosing span or ``-1``.  Children
    of one parent never overlap (they run one after the other on one
    thread), so the covered part is the sum of their durations.
    """
    own = [end - start for _name, start, end, _parent in spans]
    for _name, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def calibration_ratios(
    executions: Sequence[float], loops: Sequence[float]
) -> list[float]:
    """CPU of each execution over the mean CPU of its adjacent loops.

    The schedule is ``loop, exec, loop, exec, ..., exec, loop``: one
    more loop than executions, execution ``i`` sitting between loops
    ``i`` and ``i + 1``.
    """
    if len(loops) != len(executions) + 1:
        raise ValueError(
            f"{len(executions)} executions need {len(executions) + 1} "
            f"calibration loops, got {len(loops)}"
        )
    return [
        cpu / ((loops[i] + loops[i + 1]) / 2.0)
        for i, cpu in enumerate(executions)
    ]


def longest_gap(times: Sequence[float], start: float, end: float) -> float:
    """Longest interval without a commit inside ``[start, end]``.

    The first gap runs from ``start`` to the first commit after it, so
    a fault at ``start`` that stops every commit is charged in full;
    ``times`` must be sorted.
    """
    previous = start
    worst = 0.0
    for t in times:
        if t <= start:
            continue
        if t > end:
            break
        worst = max(worst, t - previous)
        previous = t
    return worst
