"""One replica process, launched by the benchmark.

The same node body ``python -m repro serve --join`` runs
(:func:`repro.live.node.run_node`), started here so the benchmark owns
the process: it knows the pid for ``/proc`` CPU and memory readings,
and it starts the replacement of a crashed replica itself.  The node
prints ``listening HOST PORT`` once its data listener is bound, so the
benchmark's client can redial a restarted replica's fresh port.  With
``--trace-dump`` the layer wrappers of :mod:`perfbench.tracing` are
installed before the node starts and the spans are written when it
stops (a replica that is killed mid-run writes none).

Usage: ``python3 perfbench/node.py --join HOST:PORT --replica-id p1
[--trace-dump PATH]``
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.live.node import run_node  # noqa: E402
from repro.live.transport import LiveTransport  # noqa: E402


def _announce_listener() -> None:
    original = LiveTransport.start_listener

    async def start_listener(self, host, port=0):
        bound = await original(self, host, port)
        print(f"listening {bound[0]} {bound[1]}", flush=True)
        return bound

    LiveTransport.start_listener = start_listener


def main() -> int:
    parser = argparse.ArgumentParser(description="benchmark replica")
    parser.add_argument("--join", required=True)
    parser.add_argument("--replica-id", required=True)
    parser.add_argument("--trace-dump", default=None)
    args = parser.parse_args()
    _announce_listener()
    recorder = None
    if args.trace_dump:
        from perfbench.tracing import SpanRecorder, install_live

        recorder = SpanRecorder()
        install_live(recorder)
    node_args = argparse.Namespace(
        join=args.join, replica_id=args.replica_id, bind="127.0.0.1",
        auth_key=None,
    )
    code = asyncio.run(run_node(node_args))
    if recorder is not None:
        recorder.dump(args.trace_dump)
    return code


if __name__ == "__main__":
    sys.exit(main())
