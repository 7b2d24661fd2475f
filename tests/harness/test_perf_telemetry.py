"""Wall-time telemetry (artifact schema v3) and cache-safety tests.

The hot-path optimisation runs on caches (canonical-fragment memo,
``signing_bytes`` LRU, payload-size memo, per-link rng streams).  The
load-bearing invariant: **caches change wall time only, never virtual
time** — a warm process must reproduce every simulated metric bit for
bit.  The telemetry side: artifacts round-trip through the baseline
comparator, and the reader accepts only the schema version it writes.
"""

import dataclasses
from pathlib import Path

import pytest

from repro.errors import ConfigError
from repro.harness.artifact import (
    SCHEMA_VERSION,
    from_results,
    load_artifact,
    validate,
    write_artifact,
)
from repro.harness.baseline import compare
from repro.harness.perf import REFERENCE_TASK, microbench, run_reference_point
from repro.harness.runner import SweepTask, execute, run_task

BASELINE_DIR = Path(__file__).resolve().parents[2] / "benchmarks" / "baselines"

#: A fast sweep point (sub-second) for determinism and artifact tests.
QUICK_TASK = SweepTask(
    kind="order", protocol="sc", scheme="md5-rsa1024",
    batching_interval=0.1, n_batches=8, warmup_batches=2,
)


# ----------------------------------------------------------------------
# Warm caches never perturb virtual time
# ----------------------------------------------------------------------
def test_warm_caches_reproduce_metrics_exactly():
    """Run the same point twice in one process: the first run warms the
    signing/encoding/size caches, the second must reproduce the
    identical result object (simulated metrics and event count)."""
    cold = run_task(QUICK_TASK)
    warm = run_task(QUICK_TASK)
    assert warm.result == cold.result
    assert warm.metrics() == cold.metrics()
    assert warm.events_processed == cold.events_processed > 0


def test_events_processed_is_deterministic_and_positive():
    first = run_task(QUICK_TASK)
    again = run_task(QUICK_TASK)
    assert first.events_processed == again.events_processed
    assert first.events_processed > 0
    # wall_time is the only field allowed to differ between the runs
    assert first.result == again.result


# ----------------------------------------------------------------------
# Falsy progress arguments disable reporting (satellite regression)
# ----------------------------------------------------------------------
def test_execute_accepts_falsy_progress():
    results = execute([QUICK_TASK], jobs=1, progress=False)
    assert len(results) == 1
    assert results[0].result is not None


def test_execute_progress_true_uses_default_reporter(capsys):
    execute([QUICK_TASK], jobs=1, progress=True)
    assert QUICK_TASK.point_id in capsys.readouterr().err


# ----------------------------------------------------------------------
# Artifact schema v3
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def quick_results():
    return execute([QUICK_TASK], jobs=1)


def test_v2_artifact_carries_wall_time_telemetry(quick_results, tmp_path):
    artifact = from_results("fig4", quick_results)
    assert artifact.schema_version == SCHEMA_VERSION == 3
    assert artifact.events_total == quick_results[0].events_processed > 0
    assert artifact.events_per_second > 0
    point = artifact.points[0]
    assert point["events"] == artifact.events_total
    assert point["events_per_second"] > 0
    assert point["wall_time_s"] > 0
    # Telemetry never leaks into the gated metric dictionary.
    assert "events" not in point["metrics"]
    assert not any(key.startswith("wall") for key in point["metrics"])


def test_v2_round_trips_through_baseline_comparator(quick_results, tmp_path):
    artifact = from_results("fig4", quick_results)
    loaded = load_artifact(write_artifact(artifact, tmp_path))
    assert loaded.schema_version == 3
    assert loaded.events_total == artifact.events_total
    assert loaded.events_per_second == pytest.approx(artifact.events_per_second)
    report = compare(loaded, artifact)
    assert report.ok
    assert report.suite_events_per_s[1] == pytest.approx(
        artifact.events_per_second
    )
    rendered = report.render()
    assert "Wall-time telemetry" in rendered
    assert "not gated" in rendered


def test_committed_baselines_are_v3_with_probes():
    """The committed quick-mode baselines are schema v3: telemetry
    present and probe names per point."""
    for figure in ("fig4", "fig5", "fig6", "f3"):
        baseline = load_artifact(BASELINE_DIR / f"BENCH_{figure}.json")
        assert baseline.schema_version == 3
        assert baseline.events_total > 0
        assert all(p["events"] > 0 for p in baseline.points)
        assert all(p["probes"] for p in baseline.points)


def test_unsupported_schema_version_rejected(quick_results):
    """Only the current version reads: the v1/v2 layouts (no telemetry,
    no per-point probe names) are rejected like any unknown one."""
    doc = from_results("fig4", quick_results).to_dict()
    for version in (1, 2, 99):
        doc["schema_version"] = version
        with pytest.raises(ConfigError, match="schema version"):
            validate(doc)


def test_v3_requires_per_point_probes(quick_results):
    doc = from_results("fig4", quick_results).to_dict()
    del doc["points"][0]["probes"]
    with pytest.raises(ConfigError, match="probes"):
        validate(doc)


# ----------------------------------------------------------------------
# The perf harness itself
# ----------------------------------------------------------------------
def test_reference_point_is_the_profiled_sweep_point():
    assert REFERENCE_TASK.protocol == "sc"
    assert REFERENCE_TASK.scheme == "md5-rsa1024"
    assert REFERENCE_TASK.batching_interval == pytest.approx(0.01)
    assert REFERENCE_TASK.n_batches == 60
    # stays pure/picklable like every sweep task
    assert dataclasses.replace(REFERENCE_TASK, seed=2) != REFERENCE_TASK


def test_microbench_reports_positive_rates():
    rows = microbench()
    assert {name for name, _, _ in rows} >= {
        "canonical encode (fast, memo-warm)",
        "signing_bytes (cached)",
    }
    assert all(rate > 0 for _, rate, _ in rows)


def test_run_reference_point_measures_events():
    perf = run_reference_point()
    assert perf.events > 0
    assert perf.events_per_second > 0
    assert perf.wall_time_s > 0
