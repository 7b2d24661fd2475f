"""Machine-readable benchmark artifacts (``BENCH_<figure>.json``).

Every suite run emits one artifact per figure: a versioned JSON
document carrying the per-point measurement series plus enough context
(git SHA, environment fingerprint, sweep parameters, wall time) to
interpret a number months later.  Artifacts are the interface between
benchmark runs and the regression gate in
:mod:`repro.harness.baseline` — CI uploads them and diffs them against
committed baselines.

Schema (version 3)::

    {
      "schema_version": 3,
      "figure": "fig4",
      "git_sha": "<40 hex chars or 'unknown'>",
      "created_at": "2026-07-29T12:00:00Z",
      "wall_time_s": 12.34,
      "events_total": 1234567,          # simulator events, all points
      "events_per_second": 430000.0,    # events_total / wall_time_s
      "env": {"python": ..., "implementation": ..., "platform": ...,
              "machine": ..., "cpu_count": ...},
      "params": {...sweep parameters, free-form...},
      "points": [
        {"id": "order/sc/md5-rsa1024/f2/i0.04/s1",
         "kind": "order", "protocol": "sc", "scheme": "md5-rsa1024",
         "f": 2, "x": 0.04,
         "probes": ["order-latency", "throughput"],
         "metrics": {"latency_mean": ..., "throughput": ...},
         "wall_time_s": 1.2,
         "events": 56789,               # deterministic event count
         "events_per_second": 47324.2}, # events / wall_time_s
        ...
      ]
    }

``points[*].id`` is the stable join key the baseline comparator
matches on; ``metrics`` values are deterministic simulation outputs.
The **wall-time telemetry** (``events``/``events_per_second`` per
point and per suite) makes a harness slowdown visible in the artifact
trail; these fields are informational and never gated — only
``metrics`` is — because wall time varies between machines.  The
metric map is **probe-emitted**: each point records which registered
measurement probes (:mod:`repro.harness.probes`) produced its metrics,
so a document is self-describing about *what* was measured, and the
baseline gate keys purely on metric names whichever probes emitted
them.  The reader accepts only this version.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable

from repro.errors import ConfigError
from repro.harness.runner import PointResult

#: Version written and read by this build.  Bump on incompatible
#: layout change.
SCHEMA_VERSION = 3

_REQUIRED_KEYS = (
    "schema_version", "figure", "git_sha", "created_at",
    "wall_time_s", "env", "params", "points",
)
_REQUIRED_POINT_KEYS = ("id", "kind", "protocol", "scheme", "f", "x", "metrics")


def env_fingerprint() -> dict[str, object]:
    """Where the numbers came from: interpreter and machine identity."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


def current_git_sha(cwd: str | Path | None = None) -> str:
    """The repository HEAD, or ``"unknown"`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


@dataclass(frozen=True)
class BenchArtifact:
    """One figure's measurement series plus provenance."""

    figure: str
    points: list[dict]
    params: dict = field(default_factory=dict)
    wall_time_s: float = 0.0
    git_sha: str = "unknown"
    created_at: str = ""
    env: dict = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION
    events_total: int = 0
    events_per_second: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)

    def point_by_id(self) -> dict[str, dict]:
        return {point["id"]: point for point in self.points}


def from_results(
    figure: str,
    results: Iterable[PointResult],
    params: dict | None = None,
    wall_time_s: float | None = None,
    git_sha: str | None = None,
) -> BenchArtifact:
    """Package executed sweep points as an artifact.

    ``wall_time_s`` defaults to the sum of per-point worker times
    (under a pool, elapsed wall time is smaller — pass it explicitly
    when the figure-level timing matters).
    """
    results = list(results)
    points = [
        {
            "id": r.task.point_id,
            "kind": r.task.kind,
            "protocol": r.task.protocol,
            "scheme": r.task.scheme,
            "f": r.task.f,
            "x": r.task.x,
            "probes": list(r.probes),
            "metrics": r.metrics(),
            "wall_time_s": r.wall_time,
            "events": r.events_processed,
            "events_per_second": (
                r.events_processed / r.wall_time if r.wall_time > 0 else 0.0
            ),
        }
        for r in results
    ]
    wall = (
        wall_time_s if wall_time_s is not None
        else sum(r.wall_time for r in results)
    )
    events_total = sum(r.events_processed for r in results)
    return BenchArtifact(
        figure=figure,
        points=points,
        params=dict(params or {}),
        wall_time_s=wall,
        git_sha=git_sha if git_sha is not None else current_git_sha(),
        created_at=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        env=env_fingerprint(),
        events_total=events_total,
        events_per_second=events_total / wall if wall > 0 else 0.0,
    )


def from_points(
    figure: str,
    points: Iterable[dict],
    params: dict | None = None,
    wall_time_s: float = 0.0,
    git_sha: str | None = None,
) -> BenchArtifact:
    """Package pre-shaped point dicts as a schema-current artifact.

    The seam for producers that measure outside the sweep runner — the
    live cluster (:mod:`repro.live.validate`) builds its points from
    probe reports over real trace records, not :class:`PointResult`
    objects.  Points must already carry the schema's required keys;
    the document is validated before it is returned, so a malformed
    producer fails here rather than at the comparator months later.
    """
    points = [dict(point) for point in points]
    events_total = int(sum(point.get("events", 0) for point in points))
    artifact = BenchArtifact(
        figure=figure,
        points=points,
        params=dict(params or {}),
        wall_time_s=wall_time_s,
        git_sha=git_sha if git_sha is not None else current_git_sha(),
        created_at=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        env=env_fingerprint(),
        events_total=events_total,
        events_per_second=(
            events_total / wall_time_s if wall_time_s > 0 else 0.0
        ),
    )
    validate(artifact.to_dict())
    return artifact


def validate(data: dict) -> dict:
    """Check an artifact document against the schema; returns it."""
    if not isinstance(data, dict):
        raise ConfigError("artifact must be a JSON object")
    missing = [key for key in _REQUIRED_KEYS if key not in data]
    if missing:
        raise ConfigError(f"artifact missing keys: {missing}")
    if data["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported artifact schema version {data['schema_version']!r} "
            f"(this build reads version {SCHEMA_VERSION})"
        )
    if not isinstance(data["points"], list):
        raise ConfigError("artifact 'points' must be a list")
    for i, point in enumerate(data["points"]):
        missing = [key for key in _REQUIRED_POINT_KEYS if key not in point]
        if missing:
            raise ConfigError(f"artifact point {i} missing keys: {missing}")
        if not isinstance(point["metrics"], dict):
            raise ConfigError(f"artifact point {i} 'metrics' must be an object")
        if not isinstance(point.get("probes"), list):
            raise ConfigError(f"artifact point {i} needs a 'probes' list")
    ids = [point["id"] for point in data["points"]]
    if len(set(ids)) != len(ids):
        duplicates = sorted({pid for pid in ids if ids.count(pid) > 1})
        raise ConfigError(f"artifact has duplicate point ids: {duplicates}")
    return data


def events_by_point(artifact: BenchArtifact) -> dict[str, float]:
    """``{point_id: events}`` for every point carrying telemetry.

    The deterministic per-point event counts double as a perfect
    relative-cost oracle for the dispatch scheduler
    (:mod:`repro.harness.exec.schedule`).
    """
    return {
        point["id"]: float(point["events"])
        for point in artifact.points
        if point.get("events")
    }


def artifact_path(json_dir: str | Path, figure: str) -> Path:
    """The canonical on-disk name: ``<dir>/BENCH_<figure>.json``."""
    return Path(json_dir) / f"BENCH_{figure}.json"


def write_artifact(artifact: BenchArtifact, json_dir: str | Path) -> Path:
    """Serialise to ``<json_dir>/BENCH_<figure>.json``; returns the path."""
    path = artifact_path(json_dir, artifact.figure)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(artifact.to_dict(), indent=2, sort_keys=True) + "\n")
    return path


def load_artifact(path: str | Path) -> BenchArtifact:
    """Read and validate an artifact document."""
    try:
        data = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"no artifact at {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"artifact {path} is not valid JSON: {exc}") from None
    validate(data)
    return BenchArtifact(
        figure=data["figure"],
        points=data["points"],
        params=data["params"],
        wall_time_s=data["wall_time_s"],
        git_sha=data["git_sha"],
        created_at=data["created_at"],
        env=data["env"],
        schema_version=data["schema_version"],
        events_total=data.get("events_total", 0),
        events_per_second=data.get("events_per_second", 0.0),
    )
