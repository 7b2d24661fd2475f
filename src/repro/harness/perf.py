"""Hot-path performance measurement: ``python -m repro perf``.

The simulated metrics of this repository are deterministic, so the
only way the harness itself can regress is in *wall time* — and until
artifact schema v2 nothing recorded it.  This module makes the
harness's speed a first-class, reproducible number:

* :func:`run_reference_point` executes the committed reference sweep
  point (the profile subject of the hot-path optimisation work: SC,
  md5-rsa1024, 10 ms batching, 60 batches) and reports wall seconds
  and simulator events per second;
* :func:`microbench` times the individual hot-path ingredients —
  canonical encoding (cold and memo-warm), ``signing_bytes`` with its
  cache, and the MD5 digest — so a regression can be localised
  without re-profiling;
* ``--profile`` wraps the reference run in :mod:`cProfile` and prints
  the top of the table, which is exactly how the optimisation targets
  were found in the first place.

Wall numbers are machine-dependent: compare them across commits on
one machine (CI prints them in the job summary), never across
machines.
"""

from __future__ import annotations

import cProfile
import io
import json
import os
import pstats
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ConfigError
from repro.harness.report import render_table
from repro.harness.runner import SweepTask, run_task
from repro.harness.telemetry import Stopwatch, unix_now

#: Version tag of the ``BENCH_perf.json`` record this module emits.
#: Bump on any field rename/removal; the trend comparator skips
#: records whose schema it does not recognise rather than guessing.
PERF_SCHEMA = "repro.perf/1"

#: The committed reference point: saturating SC run, 10 ms batching.
#: Small enough to run in seconds, busy enough (~30k simulator events,
#: ~2.4k signature operations) to exercise every hot path.
REFERENCE_TASK = SweepTask(
    kind="order",
    protocol="sc",
    scheme="md5-rsa1024",
    batching_interval=0.01,
    n_batches=60,
)


@dataclass(frozen=True)
class PerfPoint:
    """One timed execution of the reference point."""

    wall_time_s: float
    events: int
    events_per_second: float


def run_reference_point() -> PerfPoint:
    """Execute the reference point once and time it."""
    point = run_task(REFERENCE_TASK)
    events = point.events_processed
    return PerfPoint(
        wall_time_s=point.wall_time,
        events=events,
        events_per_second=(
            events / point.wall_time if point.wall_time > 0 else 0.0
        ),
    )


def _ops_per_second(fn, min_time: float = 0.2) -> float:
    """Run ``fn`` repeatedly for at least ``min_time`` seconds."""
    count = 0
    watch = Stopwatch()
    elapsed = 0.0
    while elapsed < min_time:
        fn()
        count += 1
        elapsed = watch.elapsed
    return count / elapsed


def sample_hotpath_message(n_entries: int = 25):
    """A representative doubly-signed order batch (~1 KB).

    The shared fixture for this module's microbench *and*
    ``benchmarks/bench_hotpath.py`` — one builder, so the two reports
    measure the same object shape and stay comparable.
    """
    from repro.core.messages import OrderBatch, OrderEntry
    from repro.crypto.schemes import MD5_RSA_1024
    from repro.crypto.signed import countersign, sign_message
    from repro.crypto.signing import SimulatedSignatureProvider

    provider = SimulatedSignatureProvider(MD5_RSA_1024, ["p1", "p1'"])
    entries = tuple(
        OrderEntry(seq=i, req_digest=bytes(range(16)), client="c1", req_id=i)
        for i in range(1, n_entries + 1)
    )
    batch = OrderBatch(rank=1, batch_id=7, entries=entries)
    return countersign(provider, "p1'", sign_message(provider, "p1", batch))


def microbench() -> list[tuple[str, float, str]]:
    """Per-ingredient hot-path rates: ``(name, ops_or_mb_per_s, unit)``."""
    import copy

    from repro.crypto.canon import encode_canonical, strip_memo
    from repro.crypto.digests import digest
    from repro.crypto.encoding import reference_canonical_bytes
    from repro.crypto.signed import signing_bytes

    message = sample_hotpath_message()
    results: list[tuple[str, float, str]] = []
    results.append((
        "canonical encode (reference oracle)",
        _ops_per_second(lambda: reference_canonical_bytes(message)),
        "msg/s",
    ))
    # Cold: every memo in the object graph is stripped before each
    # encode, so the measured rate is the no-cache single-pass encoder
    # (the stripping itself is a few attribute deletes, noise-level).
    cold = copy.deepcopy(message)

    def encode_cold():
        strip_memo(cold)
        encode_canonical(cold)

    results.append((
        "canonical encode (fast, cold)", _ops_per_second(encode_cold), "msg/s"
    ))
    results.append((
        "canonical encode (fast, memo-warm)",
        _ops_per_second(lambda: encode_canonical(message)),
        "msg/s",
    ))
    results.append((
        "signing_bytes (cached)",
        _ops_per_second(
            lambda: signing_bytes(message.body, message.signatures)
        ),
        "msg/s",
    ))
    data = bytes(range(256)) * 4  # 1 KB
    rate = _ops_per_second(lambda: digest("md5", data))
    results.append(("md5 1KB (hashlib)", rate / 1024.0, "MB/s"))
    # The streaming-measurement overhead: one probe consuming one
    # commit record — the per-record cost every probed sweep pays on
    # the emit path.
    from repro.harness.probes import OrderLatencyProbe, ProbeContext
    from repro.sim.trace import TraceRecord

    probe = OrderLatencyProbe(ProbeContext(window_end=1.0))
    record = TraceRecord(0.5, "order_committed",
                         {"rank": 1, "batch_id": 3, "actor": "p2",
                          "n_requests": 25})
    results.append((
        "probe consume (order-latency)",
        _ops_per_second(lambda: probe.consume(record)),
        "rec/s",
    ))
    return results


def profile_reference_point(task: SweepTask = REFERENCE_TASK, top: int = 20) -> str:
    """cProfile the reference point; returns the formatted top table."""
    profiler = cProfile.Profile()
    profiler.enable()
    run_task(task)
    profiler.disable()
    stream = io.StringIO()
    pstats.Stats(profiler, stream=stream).sort_stats("cumulative").print_stats(top)
    return stream.getvalue()


# ----------------------------------------------------------------------
# Versioned perf records (``repro perf --json``) and the trend gate
# (``repro perf compare --history DIR``)
# ----------------------------------------------------------------------
def _git_sha() -> str:
    """The current commit, for labelling perf records.

    Falls back to ``GITHUB_SHA`` (checkout actions sometimes run from
    a detached worktree state) and then ``"unknown"`` — a record is
    still comparable without provenance, just harder to bisect.
    """
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except OSError:
        pass
    return os.environ.get("GITHUB_SHA", "unknown")


def collect_perf_record(repeats: int = 3, include_micro: bool = True) -> dict:
    """Measure the reference point plus the microbench rows, as one
    versioned, JSON-ready record.

    Best-of-``repeats`` wall time is recorded (minimum is the right
    statistic for a deterministic workload on a noisy machine: every
    run does identical work, so the fastest run is the one with the
    least interference).
    """
    repeats = max(1, repeats)
    runs = [run_reference_point() for _ in range(repeats)]
    top = min(runs, key=lambda r: r.wall_time_s)
    record = {
        "schema": PERF_SCHEMA,
        "created_unix": unix_now(),
        "git_sha": _git_sha(),
        "reference_point": REFERENCE_TASK.point_id,
        "repeats": repeats,
        "reference": {
            "default": {
                "wall_time_s": top.wall_time_s,
                "events": top.events,
                "events_per_second": top.events_per_second,
            },
        },
    }
    if include_micro:
        record["microbench"] = [
            {"name": name, "rate": rate, "unit": unit}
            for name, rate, unit in microbench()
        ]
    return record


def write_perf_record(record: dict, path: str | Path) -> Path:
    """Write one perf record as JSON, creating parent directories."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path


def load_history(directory: str | Path) -> list[dict]:
    """Load every recognisable perf record under ``directory``,
    oldest first (by recorded creation time, then filename for
    stability when clocks collide)."""
    directory = Path(directory)
    if not directory.is_dir():
        raise ConfigError(f"perf history directory {directory} does not exist")
    records = []
    for path in sorted(directory.glob("*.json")):
        try:
            record = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        if not isinstance(record, dict) or record.get("schema") != PERF_SCHEMA:
            continue
        record["_path"] = str(path)
        records.append(record)
    records.sort(key=lambda r: (r.get("created_unix", 0.0), r["_path"]))
    return records


def trend_verdict(
    eps_history: list[float],
    tolerance_pct: float = 15.0,
    window: int = 3,
) -> tuple[bool, str]:
    """Gate a sequence of events/s measurements against *sustained*
    regression.

    A single slow point is expected on shared CI runners, so one bad
    sample never fails the gate.  The gate trips only when the last
    ``window`` points (including the newest) **all** fall below
    ``(1 - tolerance) × reference``, where the reference is the median
    of the points *before* that window — a sustained, not transient,
    slowdown.  With fewer than ``window + 1`` points there is no
    before-window reference yet, so the gate passes while history
    accumulates.

    Returns ``(ok, explanation)``.
    """
    if window < 1:
        raise ConfigError("trend window must be >= 1")
    n = len(eps_history)
    if n < window + 1:
        return True, (
            f"insufficient history ({n} point(s), need {window + 1}); "
            f"gate passes while history accumulates"
        )
    earlier = sorted(eps_history[:-window])
    mid = len(earlier) // 2
    if len(earlier) % 2:
        reference = earlier[mid]
    else:
        reference = (earlier[mid - 1] + earlier[mid]) / 2.0
    floor = reference * (1.0 - tolerance_pct / 100.0)
    tail = eps_history[-window:]
    below = [eps < floor for eps in tail]
    if all(below):
        return False, (
            f"sustained regression: last {window} points "
            f"({', '.join(f'{e:,.0f}' for e in tail)} events/s) all below "
            f"{floor:,.0f} events/s ({tolerance_pct:g}% under the "
            f"reference median {reference:,.0f})"
        )
    slow = sum(below)
    note = (
        f"{slow} of the last {window} below the floor (transient, not "
        f"sustained)" if slow else f"last {window} points at or above the floor"
    )
    return True, (
        f"no sustained regression: {note}; reference median "
        f"{reference:,.0f} events/s, floor {floor:,.0f}"
    )


def _record_eps(record: dict) -> float:
    return float(record["reference"]["default"]["events_per_second"])


def cmd_perf_compare(args) -> int:
    """CLI entry: trend-gate the perf history directory.

    The newest record is the point under test; everything older is
    history.  Prints a per-point table (markdown with ``--markdown``,
    for ``$GITHUB_STEP_SUMMARY``) and exits 1 on a sustained
    regression.
    """
    directory = Path(args.history)
    if not directory.is_dir():
        # First run on a fresh branch/cache: not an error, just no
        # baseline to trend against yet.
        print(f"no perf history at {directory}: no trend yet — gate passes")
        return 0
    records = load_history(directory)
    if len(records) < 2:
        count = f"{len(records)} perf record(s)"
        print(f"{count} under {directory}: no trend yet — gate passes "
              f"(need at least 2 records to compare)")
        return 0
    eps = [_record_eps(r) for r in records]
    ok, why = trend_verdict(eps, tolerance_pct=args.tolerance,
                            window=args.window)
    newest = eps[-1]
    rows = []
    for record, value in zip(records, eps):
        sha = str(record.get("git_sha", "unknown"))[:10]
        created = time.strftime(
            "%Y-%m-%d %H:%M", time.gmtime(record.get("created_unix", 0))
        )
        delta = (value / eps[0] - 1.0) * 100.0 if eps[0] else 0.0
        wall = record["reference"]["default"]["wall_time_s"]
        rows.append((
            sha, created, f"{wall:.3f}", f"{value:,.0f}", f"{delta:+.1f}%",
        ))
    header = ("commit", "when (UTC)", "wall (s)", "events/s", "Δ vs oldest")
    if args.markdown:
        print(f"### Perf trend — {records[-1]['reference_point']}")
        print()
        print("| " + " | ".join(header) + " |")
        print("|" + "|".join(" --- " for _ in header) + "|")
        for row in rows:
            print("| " + " | ".join(row) + " |")
        print()
        print(("✅ " if ok else "❌ ") + why)
    else:
        print(render_table(
            f"Perf trend — {records[-1]['reference_point']} "
            f"(newest: {newest:,.0f} events/s)",
            header, rows,
        ))
        print(("PASS: " if ok else "FAIL: ") + why)
    return 0 if ok else 1


def cmd_perf(args) -> int:
    """CLI entry: time the reference point (and optionally profile it)."""
    if getattr(args, "perf_command", None) == "compare":
        return cmd_perf_compare(args)
    if args.json:
        record = collect_perf_record(
            repeats=max(1, args.repeat), include_micro=not args.no_micro
        )
        path = write_perf_record(record, args.json)
        default = record["reference"]["default"]
        print(
            f"wrote {path}: {default['wall_time_s']:.3f}s "
            f"({default['events_per_second']:,.0f} events/s)"
        )
        return 0
    repeats = max(1, args.repeat)
    runs = [run_reference_point() for _ in range(repeats)]
    best = min(runs, key=lambda r: r.wall_time_s)
    rows = [
        (
            f"run {i + 1}",
            f"{r.wall_time_s:.3f}",
            f"{r.events}",
            f"{r.events_per_second:,.0f}",
        )
        for i, r in enumerate(runs)
    ]
    rows.append((
        "best", f"{best.wall_time_s:.3f}", f"{best.events}",
        f"{best.events_per_second:,.0f}",
    ))
    print(render_table(
        f"Reference point — {REFERENCE_TASK.point_id}",
        ("run", "wall (s)", "events", "events/s"),
        rows,
    ))
    # The dispatch scheduler's shape-derived cost key next to the
    # measured event count: a sanity anchor for the heuristic in
    # repro.harness.exec.schedule (units are arbitrary; only the
    # ordering across tasks matters).
    from repro.harness.exec.schedule import predicted_cost

    print(f"  scheduler cost key (shape heuristic): "
          f"{predicted_cost(REFERENCE_TASK):,.0f} slots; "
          f"measured events: {best.events:,}")
    if not args.no_micro:
        micro = [
            (name, f"{rate:,.0f}", unit) for name, rate, unit in microbench()
        ]
        print()
        print(render_table(
            "Hot-path microbenchmarks",
            ("ingredient", "rate", "unit"),
            micro,
        ))
    if args.profile:
        print()
        print(profile_reference_point(top=args.profile_top))
    return 0


def add_perf_arguments(parser) -> None:
    """Install ``perf`` options on an argparse subparser."""
    parser.add_argument("--repeat", type=int, default=3,
                        help="timed executions of the reference point "
                             "(default %(default)s; best is reported)")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="emit a versioned BENCH_perf.json record "
                             "(reference point, microbench rows, git sha) "
                             "instead of the human tables")
    parser.add_argument("--profile", action="store_true",
                        help="cProfile the reference point and print the top")
    parser.add_argument("--profile-top", type=int, default=20,
                        help="rows of cProfile output (default %(default)s)")
    parser.add_argument("--no-micro", action="store_true",
                        help="skip the per-ingredient microbenchmarks")
    sub = parser.add_subparsers(dest="perf_command")
    compare = sub.add_parser(
        "compare",
        help="trend-gate a directory of BENCH_perf.json records "
             "(fails only on a sustained regression)",
    )
    compare.add_argument("--history", required=True, metavar="DIR",
                         help="directory of perf records; the newest is "
                              "the point under test")
    compare.add_argument("--tolerance", type=float, default=15.0,
                         help="allowed events/s drop vs the reference "
                              "median, percent (default %(default)s)")
    compare.add_argument("--window", type=int, default=3,
                         help="consecutive below-floor points that "
                              "constitute a sustained regression "
                              "(default %(default)s)")
    compare.add_argument("--markdown", action="store_true",
                         help="emit a GitHub-flavoured markdown table "
                              "(for $GITHUB_STEP_SUMMARY)")
