"""Sim reference phase: the committed reference point, host-calibrated.

What runs: :data:`repro.harness.perf.REFERENCE_TASK` — SC, f=2 (the
task's default), md5-rsa1024, 10 ms batching, 60 batches, exactly
29,358 simulator events — executed back to back in a fresh child
process, with the message delay of the ``paper_testbed()`` model.  The
workload seed does not reach it: the point is fixed, so its event
count and probe metrics must repeat exactly, and any difference is a
correctness failure.

Why calibrated: on a shared 2-vCPU virtual machine the CPU time of one
execution drifted by a quarter within minutes, and the drift hits
other Python code of the same shape alike.  So each timed execution
sits between two runs of :func:`calibration_loop`, a fixed stdlib-only
loop, and the reported cost is the median of ``execution CPU / mean
adjacent loop CPU`` (:func:`perfbench.stats.calibration_ratios`).  The
raw execution and loop CPU are reported beside the ratio so the
normalisation can be audited.  The live metrics are *not* calibrated: their cores are
saturated while the window runs, and dividing by a loop timed around
the window widened their spread instead of narrowing it.

Set-up is the child's start, imports and one untimed warm-up
execution, as seen from the parent.

Run as a script (``python3 perfbench/simref.py --executions N``) this
is the child: it prints ``ready`` after the warm-up and one JSON line
at the end.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import heapq
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import stats  # noqa: E402

#: Events one execution of the reference point must process.
REFERENCE_EVENTS = 29_358
#: The reference point's probe metrics, which every execution must
#: reproduce exactly (the simulation is deterministic).
REFERENCE_METRICS = {
    "latency_mean": 2.11896629500281,
    "latency_p50": 2.151322447837849,
    "latency_p95": 2.3361603130562543,
    "batches_measured": 27.0,
    "throughput": 15.625,
}
#: Events of the calibration loop (about a fifth of an execution).
CAL_EVENTS = 20_000
#: Events kept pending, so the loop's working set is megabytes, like
#: the simulator's, not a few cache lines.
HEAP_BOUND = 16_384


class _Note:
    """A message of the calibration loop's toy event simulation."""

    __slots__ = ("src", "dst", "kind", "body")

    def __init__(self, src: int, dst: int, kind: str, body: bytes) -> None:
        self.src = src
        self.dst = dst
        self.kind = kind
        self.body = body


_KINDS = ("order", "ack", "commit", "reply", "heartbeat")


def calibration_loop(events: int = CAL_EVENTS) -> bytes:
    """Fixed stdlib-only work shaped like the simulator's: a heap of
    timed events, small objects created and dropped per event, dict
    counters per node, string formatting and an MD5 digest chain.
    Being the benchmark's own code, it does not change when the program
    does, so the ratio of the two moves only with the program."""
    heap: list[tuple[float, int, _Note]] = [(0.0, 0, _Note(0, 1, "order", b""))]
    nodes: list[dict[tuple[str, int], int]] = [{} for _ in range(8)]
    chain = b""
    seq = 0
    for _ in range(events):
        now, _, note = heapq.heappop(heap)
        counters = nodes[note.dst]
        key = (note.kind, seq & 4095)
        count = counters.get(key, 0) + 1
        counters[key] = count
        body = f"{note.kind}|{note.src}|{note.dst}|{count}".encode()
        if not count & 7:
            chain = hashlib.md5(chain + body + note.body).digest()
        fanout = 2 if len(heap) < HEAP_BOUND else 1
        for k in range(fanout):
            seq += 1
            delay = 0.0001 * ((seq * 2654435761) % 97 + 1)
            heapq.heappush(heap, (now + delay, seq, _Note(
                note.dst, (note.dst + k + 1) & 7, _KINDS[seq % 5], body,
            )))
    return chain


def _cpu(fn) -> float:
    # Each timed call starts from an empty collector generation, so the
    # cyclic GC runs at the same points of every execution.
    gc.collect()
    start = time.process_time()
    fn()
    return time.process_time() - start


def _checked_execution() -> int:
    from repro.harness.perf import REFERENCE_TASK
    from repro.harness.runner import run_task

    point = run_task(REFERENCE_TASK)
    events = point.events_processed
    if events != REFERENCE_EVENTS:
        raise SystemExit(
            f"reference point processed {events} events, "
            f"expected {REFERENCE_EVENTS}"
        )
    values = dict(point.result.values)
    if values != REFERENCE_METRICS:
        raise SystemExit(
            f"reference point metrics {values} differ from {REFERENCE_METRICS}"
        )
    return events


def child_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--executions", type=int, required=True)
    parser.add_argument("--trace-dump", default=None,
                        help="add a traced execution after every untraced "
                             "one and dump the spans here")
    args = parser.parse_args(argv)

    import repro.harness.perf  # noqa: F401
    import repro.harness.runner  # noqa: F401

    events = _checked_execution()  # warm-up, untimed
    print("ready", flush=True)

    recorder = None
    if args.trace_dump:
        from perfbench.tracing import SpanRecorder, install_sim

        recorder = SpanRecorder()
    # loop, run, loop, run, ..., loop: every run between two loops; with
    # tracing, every untraced run is followed by a traced one
    loops = [_cpu(calibration_loop)]
    runs: list[float] = []
    traced: list[bool] = []
    for _ in range(args.executions):
        for tracing in (False, True) if recorder is not None else (False,):
            if tracing:
                install_sim(recorder)
            runs.append(_cpu(_checked_execution))
            if tracing:
                recorder.uninstall()
            traced.append(tracing)
            loops.append(_cpu(calibration_loop))
    result = {
        "events": events,
        "runs": runs,
        "traced": traced,
        "loops": loops,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if recorder is not None:
        recorder.dump(args.trace_dump, {"executions": traced.count(True)})
    print(json.dumps(result), flush=True)
    return 0


def run_phase(children: int, executions: int, out_dir: Path | None,
              env: dict[str, str]) -> dict:
    """Run ``children`` fresh child processes, ``executions`` timed
    executions each; pool their samples.  With ``out_dir`` every child
    also traces (and dumps spans into ``out_dir``)."""
    setups: list[float] = []
    ratios: list[float] = []
    exec_cpu: list[float] = []
    loop_cpu: list[float] = []
    traced_ratios: list[float] = []
    dumps: list[Path] = []
    peak_kb = 0
    for index in range(children):
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--executions", str(executions)]
        if out_dir is not None:
            dump = out_dir / f"sim-{index}.spans.json"
            cmd += ["--trace-dump", str(dump)]
            dumps.append(dump)
        started = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                              env=env, cwd=ROOT) as child:
            first = child.stdout.readline().strip()
            setups.append(time.perf_counter() - started)
            rest = child.stdout.read()
            code = child.wait()
        if first != "ready" or code != 0:
            raise RuntimeError(
                f"sim child failed (exit {code}): {first} {rest[-500:]}"
            )
        result = json.loads(rest.strip().splitlines()[-1])
        run_ratios = stats.calibration_ratios(result["runs"], result["loops"])
        for cpu, ratio, traced in zip(result["runs"], run_ratios,
                                      result["traced"]):
            if traced:
                traced_ratios.append(ratio)
            else:
                ratios.append(ratio)
                exec_cpu.append(cpu)
        loop_cpu += result["loops"]
        peak_kb = max(peak_kb, result["peak_rss_kb"])
        events = result["events"]
    return {
        "events": events,
        "setup_s": stats.median(setups),
        "sim_ref_cost": stats.median(ratios),
        "sim_cpu_ms": 1000.0 * stats.median(exec_cpu),
        "cal_cpu_ms": 1000.0 * stats.median(loop_cpu),
        "peak_rss_mb": peak_kb / 1024.0,
        "traced_cost": stats.median(traced_ratios) if traced_ratios else None,
        "dumps": dumps,
    }


if __name__ == "__main__":
    sys.exit(child_main())
