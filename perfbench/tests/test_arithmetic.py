"""The benchmark's own arithmetic.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import asyncio
import statistics
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import stats, tracing  # noqa: E402


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------
def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))  # 1..100, unsorted
    assert stats.percentile(values, 0.50) == 50
    assert stats.percentile(values, 0.99) == 99
    assert stats.percentile(values, 1.0) == 100
    assert stats.percentile([7.5], 0.99) == 7.5
    # rank ceil(0.5 * 3) = 2: a measured sample, never an interpolation
    assert stats.percentile([1.0, 2.0, 4.0], 0.5) == 2.0


def test_percentile_rejects_no_samples_and_bad_ranks():
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 0.0)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 1.5)


def test_tail_samples_counts_samples_beyond_the_percentile():
    # p99 of 1,000 samples is rank 990: ten samples lie beyond it, the
    # fewest that make a p99 reportable.
    assert stats.tail_samples(1000, 0.99) == 10
    assert stats.tail_samples(999, 0.99) == 9
    assert stats.tail_samples(12_000, 0.99) == 120


def test_quartile_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 10.5, 12.0, 9.5, 10.2, 10.1, 9.9, 10.4]
    q1, mid, q3 = statistics.quantiles(values, n=4)
    assert stats.quartiles(values) == (q1, mid, q3)
    assert stats.quartile_spread(values) == pytest.approx((q3 - q1) / mid)
    assert stats.quartile_spread([3.0, 3.0, 3.0]) == 0.0


# ----------------------------------------------------------------------
# Latency from due time, failures
# ----------------------------------------------------------------------
def test_due_time_latency_charges_a_stall_to_every_delayed_request():
    # Due every 10 ms; the cluster stalls from 15 ms to 50 ms, so the
    # requests due at 20 and 30 ms commit at 50 ms and wait 30 and 20 ms.
    due = {1: 0.000, 2: 0.010, 3: 0.020, 4: 0.030, 5: 0.040}
    committed = {1: 0.004, 2: 0.014, 3: 0.050, 4: 0.050}
    latencies = stats.due_time_latencies(due, committed)
    assert latencies == pytest.approx([0.004, 0.004, 0.030, 0.020])
    # request 5 never committed: no latency, it is a failure instead
    assert stats.fail_frac(len(due), len(committed)) == pytest.approx(0.2)


def test_fail_frac_bounds():
    assert stats.fail_frac(100, 100) == 0.0
    assert stats.fail_frac(100, 97) == pytest.approx(0.03)
    with pytest.raises(ValueError):
        stats.fail_frac(0, 0)
    with pytest.raises(ValueError):
        stats.fail_frac(10, 11)


def test_longest_gap_starts_at_the_fault():
    commits = [0.1, 0.2, 0.3, 1.0, 1.05, 1.1, 3.0]
    assert stats.longest_gap(commits, 0.25, 2.0) == pytest.approx(0.7)
    # a fault after the last commit in range: the gap runs to the next
    assert stats.longest_gap(commits, 1.1, 5.0) == pytest.approx(1.9)
    assert stats.longest_gap(commits, 1.1, 2.0) == 0.0


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def test_self_time_subtracts_direct_children_only():
    spans = [
        (0, 0.0, 10.0, -1),  # root
        (1, 1.0, 4.0, 0),    # child of root
        (2, 2.0, 3.0, 1),    # grandchild
        (1, 5.0, 6.0, 0),    # second child of root
    ]
    assert stats.self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


class _FakeClock:
    """Advances one unit per reading, so span bounds are exact."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


def test_recorder_self_time_round_trip(tmp_path, monkeypatch):
    monkeypatch.setattr(tracing, "_clock", _FakeClock())
    recorder = tracing.SpanRecorder()

    def leaf():
        return 1

    traced_leaf = recorder.wrap("leaf", leaf)

    def outer():
        return traced_leaf() + traced_leaf()

    traced_outer = recorder.wrap("outer", outer)
    assert traced_outer() == 2
    path = tmp_path / "spans.json"
    recorder.dump(path)
    summary = tracing.load_summary(path)
    assert summary["calls"] == {"leaf": 2, "outer": 1}
    # clock readings: outer opens at 1, leaves span 2-3 and 4-5, outer
    # closes at 6; outer's own time is 5 - 2 * 1 = 3.
    assert summary["self_s"] == {"leaf": 2.0, "outer": 3.0}


def test_async_spans_cover_only_the_running_steps(tmp_path, monkeypatch):
    monkeypatch.setattr(tracing, "_clock", _FakeClock())
    recorder = tracing.SpanRecorder()

    async def waits_twice():
        await asyncio.sleep(0)
        await asyncio.sleep(0)
        return "done"

    traced = recorder.wrap_async("waiter", waits_twice, wall=True)
    assert asyncio.run(traced()) == "done"
    path = tmp_path / "spans.json"
    recorder.dump(path)
    summary = tracing.load_summary(path)
    # one call, three resumed steps of one clock unit each
    assert summary["calls"] == {"waiter": 1}
    assert summary["spans"] == 3
    assert summary["self_s"] == {"waiter": 3.0}
    assert len(summary["walls"]) == 1


def test_patch_function_replaces_every_import_site_and_restores():
    import repro.crypto as crypto
    import repro.crypto.canon as canon
    import repro.crypto.encoding as encoding

    original = canon.encode_canonical
    assert encoding.encode_canonical is original  # bound by name
    recorder = tracing.SpanRecorder()
    recorder.patch_function("repro.crypto.canon", "encode_canonical", "enc")
    try:
        wrapper = canon.encode_canonical
        assert wrapper is not original
        assert encoding.encode_canonical is wrapper
        assert crypto.encode_canonical is wrapper
        assert encoding.encode_canonical(("x", 1)) == original(("x", 1))
        assert recorder.calls == [1]
    finally:
        recorder.uninstall()
    assert canon.encode_canonical is original
    assert encoding.encode_canonical is original
    assert crypto.encode_canonical is original


# ----------------------------------------------------------------------
# Calibration
# ----------------------------------------------------------------------
def test_calibration_ratio_uses_the_loops_on_both_sides():
    executions = [10.0, 20.0]
    loops = [1.0, 3.0, 2.0]
    assert stats.calibration_ratios(executions, loops) == pytest.approx(
        [10.0 / 2.0, 20.0 / 2.5]
    )


def test_calibration_ratio_cancels_a_uniform_slowdown():
    fast = stats.calibration_ratios([0.30, 0.31], [0.05, 0.05, 0.05])
    slow = stats.calibration_ratios([0.39, 0.403], [0.065, 0.065, 0.065])
    assert fast == pytest.approx(slow)


def test_calibration_ratio_needs_one_loop_more_than_executions():
    with pytest.raises(ValueError):
        stats.calibration_ratios([1.0, 2.0], [1.0, 1.0])
