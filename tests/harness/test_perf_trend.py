"""The perf-record schema and the sustained-regression trend gate."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigError
from repro.harness.perf import (
    PERF_SCHEMA,
    load_history,
    trend_verdict,
    write_perf_record,
)


# ----------------------------------------------------------------------
# trend_verdict: fail only on *sustained* regression
# ----------------------------------------------------------------------
def test_insufficient_history_passes():
    ok, why = trend_verdict([100.0, 90.0, 80.0], window=3)
    assert ok
    assert "insufficient history" in why


def test_single_dip_is_transient_and_passes():
    ok, why = trend_verdict(
        [100.0, 101.0, 99.0, 100.0, 60.0], tolerance_pct=15.0, window=3
    )
    assert ok
    assert "transient" in why


def test_two_of_three_below_still_passes():
    ok, _ = trend_verdict(
        [100.0, 101.0, 99.0, 60.0, 61.0, 100.0], tolerance_pct=15.0, window=3
    )
    assert ok


def test_sustained_regression_fails():
    ok, why = trend_verdict(
        [100.0, 101.0, 99.0, 60.0, 61.0, 59.0], tolerance_pct=15.0, window=3
    )
    assert not ok
    assert "sustained regression" in why


def test_reference_is_median_of_points_before_window():
    # History [100, 10, 100] has median 100: a one-off historical
    # outlier must not drag the reference (a mean would).
    ok, _ = trend_verdict(
        [100.0, 10.0, 100.0, 80.0, 80.0, 80.0], tolerance_pct=15.0, window=3
    )
    assert not ok  # floor is 85; the tail sits below it
    ok, _ = trend_verdict(
        [100.0, 10.0, 100.0, 90.0, 90.0, 90.0], tolerance_pct=15.0, window=3
    )
    assert ok


def test_tolerance_scales_the_floor():
    points = [100.0, 100.0, 100.0, 88.0, 88.0, 88.0]
    ok_tight, _ = trend_verdict(points, tolerance_pct=5.0, window=3)
    ok_loose, _ = trend_verdict(points, tolerance_pct=15.0, window=3)
    assert not ok_tight and ok_loose


def test_window_one_gates_on_the_newest_point_alone():
    ok, _ = trend_verdict([100.0, 100.0, 50.0], tolerance_pct=15.0, window=1)
    assert not ok


def test_invalid_window_rejected():
    with pytest.raises(ConfigError):
        trend_verdict([1.0, 2.0], window=0)


# ----------------------------------------------------------------------
# Record persistence and history loading
# ----------------------------------------------------------------------
def _record(eps: float, created: float, sha: str = "abc") -> dict:
    return {
        "schema": PERF_SCHEMA,
        "created_unix": created,
        "git_sha": sha,
        "reference_point": "order/sc/...",
        "repeats": 1,
        "reference": {
            "default": {
                "wall_time_s": 30_000 / eps,
                "events": 30_000,
                "events_per_second": eps,
            },
        },
    }


def _legacy_record(eps: float, created: float) -> dict:
    """A record as earlier builds wrote it: a second reference row, for
    a sim crypto mode since removed, next to the default one."""
    record = _record(eps, created, sha="old")
    record["reference"]["retired_mode"] = {
        "wall_time_s": 20_000 / eps,
        "events": 30_000,
        "events_per_second": 1.5 * eps,
    }
    return record


def test_write_and_load_history_roundtrip(tmp_path):
    for i, eps in enumerate([100.0, 120.0, 110.0]):
        write_perf_record(_record(eps, created=i), tmp_path / f"r{i}.json")
    records = load_history(tmp_path)
    eps = [r["reference"]["default"]["events_per_second"] for r in records]
    assert eps == [100.0, 120.0, 110.0]  # oldest first by created_unix


def test_load_history_orders_by_time_not_filename(tmp_path):
    write_perf_record(_record(1.0, created=5), tmp_path / "a.json")
    write_perf_record(_record(2.0, created=1), tmp_path / "z.json")
    records = load_history(tmp_path)
    assert [r["created_unix"] for r in records] == [1, 5]


def test_load_history_skips_foreign_and_corrupt_files(tmp_path):
    write_perf_record(_record(100.0, created=1), tmp_path / "good.json")
    (tmp_path / "other.json").write_text(json.dumps({"schema": "else/9"}))
    (tmp_path / "broken.json").write_text("{nope")
    (tmp_path / "notes.txt").write_text("ignored")
    records = load_history(tmp_path)
    assert len(records) == 1


def test_load_history_missing_directory_raises(tmp_path):
    with pytest.raises(ConfigError):
        load_history(tmp_path / "absent")


def test_write_perf_record_creates_parents(tmp_path):
    path = write_perf_record(_record(1.0, created=0), tmp_path / "a/b/c.json")
    assert path.exists()
    assert json.loads(path.read_text())["schema"] == PERF_SCHEMA


# ----------------------------------------------------------------------
# cmd_perf_compare: sparse history is "no trend yet", never an error
# ----------------------------------------------------------------------
def _compare_args(history, markdown=False):
    import argparse

    return argparse.Namespace(
        history=str(history), tolerance=15.0, window=3, markdown=markdown
    )


def test_compare_missing_history_dir_passes_with_no_trend(tmp_path, capsys):
    from repro.harness.perf import cmd_perf_compare

    assert cmd_perf_compare(_compare_args(tmp_path / "absent")) == 0
    out = capsys.readouterr().out
    assert "no trend yet" in out and "gate passes" in out


def test_compare_empty_history_passes_with_no_trend(tmp_path, capsys):
    from repro.harness.perf import cmd_perf_compare

    assert cmd_perf_compare(_compare_args(tmp_path)) == 0
    out = capsys.readouterr().out
    assert "0 perf record(s)" in out and "no trend yet" in out


def test_compare_single_record_passes_with_no_trend(tmp_path, capsys):
    from repro.harness.perf import cmd_perf_compare

    write_perf_record(_record(100.0, created=1), tmp_path / "r1.json")
    assert cmd_perf_compare(_compare_args(tmp_path)) == 0
    out = capsys.readouterr().out
    assert "1 perf record(s)" in out and "no trend yet" in out


def test_compare_two_records_renders_the_trend_table(tmp_path, capsys):
    from repro.harness.perf import cmd_perf_compare

    write_perf_record(_record(100.0, created=1), tmp_path / "r1.json")
    write_perf_record(_record(101.0, created=2), tmp_path / "r2.json")
    assert cmd_perf_compare(_compare_args(tmp_path)) == 0
    out = capsys.readouterr().out
    assert "Perf trend" in out and "no trend yet" not in out


@pytest.mark.parametrize("markdown", [False, True])
def test_compare_mixed_history_with_retired_reference_rows(
    tmp_path, capsys, markdown
):
    """CI's cached rolling history mixes records carrying a reference
    row this build no longer writes with records lacking it; the gate
    must read both and render one table over all of them."""
    from repro.harness.perf import cmd_perf_compare

    for i, eps in enumerate([100.0, 102.0, 98.0]):
        write_perf_record(_legacy_record(eps, created=i), tmp_path / f"old{i}.json")
    for i, eps in enumerate([101.0, 99.0], start=3):
        write_perf_record(_record(eps, created=i), tmp_path / f"new{i}.json")
    assert cmd_perf_compare(_compare_args(tmp_path, markdown=markdown)) == 0
    out = capsys.readouterr().out
    assert "Perf trend" in out and "no trend yet" not in out
    assert "no sustained regression" in out
    assert out.count("old") >= 3 and out.count("abc") >= 2
    if markdown:
        assert "| commit | when (UTC) | wall (s) | events/s | Δ vs oldest |" in out
