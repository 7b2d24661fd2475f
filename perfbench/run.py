"""The repository benchmark: one command, every metric, checked outputs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload live-steady --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --workload live-steady --steady 10   # steadiness check

Every run has two phases, each measured from outside the program:

1. **Sim control** (:mod:`perfbench.simref`): the committed reference
   point ``REFERENCE_TASK`` (SC, md5-rsa1024, 10 ms batching, 60
   batches, 29,358 events, ``paper_testbed()`` message delays) run back
   to back in fresh child processes, each execution between two runs
   of a fixed calibration loop.  It reports ``sim_ref_cost`` and is the
   same in every workload: no live layer runs while it is measured, so
   it is the no-change control for wire and transport work.
2. **Live** (:mod:`perfbench.live`): a 4-replica SC cluster (f=1,
   md5-rsa1024, 2 ms batching) on loopback with no injected delay, one
   client process with one connection per replica.  The cluster is
   launched :data:`LAUNCHES` times, each launch measuring a window of
   ``seconds / LAUNCHES`` after a half-second warm-up, and the windows
   are pooled: latency varies from launch to launch by more than it
   varies inside one, so several short launches measure it more
   steadily than one long one.  The workload picks the load:

   * ``live-steady`` — open loop, Poisson arrivals at 1,200 req/s:
     latency at moderate load with small batches, where per-batch and
     per-frame costs dominate and nothing queues.
   * ``live-saturate`` — closed loop, 64 requests outstanding: the
     knee, CPU-bound with full batches, so per-request CPU (canonical
     encoding, pickling, transport) sets the throughput.  An open loop
     past the knee collapses instead of measuring capacity.
   * ``live-failover`` — the live-steady load with coordinator p1
     crashed 30% into each launch's window and restarted 2 s later; the
     restarted p1 rejoins through committed-prefix state transfer.  The
     paper's Fig. 6 case: failover to p2, heartbeat suspicion,
     reconnects and ``live/recovery.py`` all run.

``--seed`` seeds the open-loop arrival stream and the replicas' trusted
dealer; the sim reference point is fixed and ignores it.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` reruns the
same phases with the layer wrappers of :mod:`perfbench.tracing`
installed and prints the per-layer metrics.  The run exits 1 (after
printing ``"correct": false``) when an output is wrong: the sim event
count or probe metrics differ, replicas disagree on the committed
prefix, two requests commit at one sequence number, or the restarted p1
does not rejoin.  It exits 2 without a result when the program is not
there to run.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import live, simref, stats  # noqa: E402
from perfbench.metrics import end_to_end, per_layer  # noqa: E402

WORKLOADS = {
    "live-steady": live.LoadShape("open", 0.002, rate=1200.0),
    "live-saturate": live.LoadShape("closed", 0.002, outstanding=64),
    "live-failover": live.LoadShape("open", 0.002, rate=1200.0,
                                    crash_at=0.3, restart_after=2.0),
}
#: Sim control: fresh child processes, timed executions in each (in a
#: traced run: untraced and traced executions, this many of each).
SIM_CHILDREN = 2
SIM_EXECUTIONS = 6
SIM_TRACED_EXECUTIONS = 2
#: Cluster launches per run; each measures ``seconds / LAUNCHES``.
LAUNCHES = 3
#: Where traced runs write their spans.
TRACE_DIR = ROOT / ".perfbench" / "trace"


def _program_present() -> bool:
    return (ROOT / "src" / "repro" / "__init__.py").is_file()


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("REPRO_AUTH_KEY", None)  # loopback cluster: no handshake key
    return env


async def _live_phase(shape: live.LoadShape, seed: int, seconds: float,
                      env: dict[str, str], trace_dir: Path | None):
    window = seconds / LAUNCHES
    return [await live.run_load(shape, seed, launch, window, env, trace_dir)
            for launch in range(LAUNCHES)]


def _verdict(shape: live.LoadShape, results: list[live.LiveResult]) -> list[str]:
    """What is wrong with the live outputs (empty: nothing)."""
    problems = []
    for launch, result in enumerate(results):
        summary = result.summary
        if summary.get("histories_agree") is not True:
            problems.append(f"launch {launch}: replica histories disagree: "
                            f"{summary.get('divergence')}")
        if shape.crash_at is not None:
            if summary.get("killed") != ["p1"]:
                problems.append(f"launch {launch}: p1 was not crashed: "
                                f"{summary.get('killed')}")
            if "p1" not in summary.get("rejoined", ()):
                problems.append(f"launch {launch}: the restarted p1 did not "
                                f"rejoin")
    return problems


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> int:
    shape = WORKLOADS[workload]
    env = _child_env()
    trace_dir = None
    if trace:
        shutil.rmtree(TRACE_DIR, ignore_errors=True)
        TRACE_DIR.mkdir(parents=True)
        trace_dir = TRACE_DIR
    sim = simref.run_phase(
        SIM_CHILDREN, SIM_TRACED_EXECUTIONS if trace else SIM_EXECUTIONS,
        trace_dir, env,
    )
    results = asyncio.run(_live_phase(shape, seed, seconds, env, trace_dir))
    problems = _verdict(shape, results)
    if trace:
        metrics = per_layer(sim, results)
    else:
        metrics = end_to_end(sim, results, seconds)
    issued = sum(r.issued for r in results)
    print(json.dumps({
        "correct": not problems,
        "attempted": issued,
        "failed": issued - sum(r.committed for r in results),
        "metrics": metrics,
    }), flush=True)
    for problem in problems:
        print(f"perfbench: WRONG OUTPUT: {problem}", file=sys.stderr)
    return 1 if problems else 0


def steadiness(workload: str, runs: int, seconds: int, trace: int,
               first_seed: int) -> int:
    """Run one workload ``runs`` times with distinct seeds and print each
    metric's median, quartiles and spread against its bound."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for i in range(runs):
        seed = first_seed + i
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace)],
            capture_output=True, text=True, timeout=600, cwd=ROOT,
        )
        if out.returncode != 0:
            print(f"run {i + 1} (seed {seed}) failed with exit "
                  f"{out.returncode}:\n{out.stderr[-2000:]}")
            return 1
        doc = json.loads(out.stdout.strip().splitlines()[-1])
        for name, metric in doc["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"run {i + 1}/{runs} seed {seed}: failed {doc['failed']} of "
              f"{doc['attempted']}; " + ", ".join(
                  f"{n}={m['value']:.4g}" for n, m in doc["metrics"].items()
                  if n in bounds), flush=True)
    worst = 0.0
    print(f"\n{workload}: {runs} runs (setup_s is held to its bound only "
          f"by its median, not its spread)")
    print(f"{'metric':34} {'unit':>7} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'spread':>7} {'bound':>6} {'/bound':>7}")
    for name, vals in values.items():
        q1, mid, q3 = stats.quartiles(vals)
        spread = stats.quartile_spread(vals)
        bound = bounds.get(name)
        share = spread / bound if bound else None
        if share is not None and name != "setup_s":
            worst = max(worst, share)
        print(f"{name:34} {units[name]:>7} {mid:11.5g} {q1:11.5g} {q3:11.5g} "
              f"{spread:7.2%} "
              + (f"{bound:6.2f} {share:7.2f}" if bound else f"{'-':>6} {'-':>7}"))
    if bounds and trace == 0:
        print(f"\nworst spread / bound: {worst:.2f} "
              f"({'steady' if worst < 1 / 3 else 'NOT steady'}: target < 0.33)")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics."
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=18,
                        help="live measurement time, split over the launches")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, default=0, metavar="N",
                        help="run the workload N times (seeds --seed, "
                             "--seed+1, ...) and report each metric's spread")
    args = parser.parse_args(argv)
    if not _program_present():
        print(f"perfbench: no program under {ROOT / 'src'}; nothing to "
              f"measure", file=sys.stderr)
        return 2
    if args.steady:
        return steadiness(args.workload, args.steady, args.seconds,
                          args.trace, args.seed)
    try:
        return run_once(args.workload, args.seed, args.seconds,
                        bool(args.trace))
    except RuntimeError as exc:  # a check failed before any result existed
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
