"""Runtime independence of the protocol logic (replay property).

The tentpole claim of the live subsystem is that SC/SCR/BFT/CT never
depend on the simulation kernel — only on the narrow driver surface
named by :mod:`repro.protocols.runtime`.  The proof obligation: record
every handler dispatch of a simulated run, then re-drive each process
through a plain :class:`~repro.sim.kernel.Simulator` clock and the
network-free :class:`LocalTransport` from those recordings alone.  If the logic is genuinely
runtime-agnostic, each replayed process reconstructs the **identical
committed history** — same sequence numbers, same request digests,
bit for bit — because everything else it consumed (timers, clock
reads, signatures) is derived deterministically from the same seed.
"""

from __future__ import annotations

import pytest

import repro.protocols as protocols
from repro.harness.cluster import build_cluster
from repro.harness.workload import OpenLoopWorkload
from repro.protocols.runtime import (
    LocalTransport,
    record_dispatches,
    replay_process,
)
from repro.sim.kernel import Simulator

END = 3.0


def _recorded_run(protocol: str, seed: int):
    plugin = protocols.get(protocol)
    config = plugin.configure(scheme="md5-rsa1024", f=1, batching_interval=0.05)
    cluster = build_cluster(protocol, config=config, seed=seed)
    log = record_dispatches(cluster)
    OpenLoopWorkload(cluster, rate=150, duration=1.0).install()
    cluster.start()
    cluster.run(until=END)
    return config, cluster, log


@pytest.mark.parametrize("protocol", ("sc", "scr", "bft", "ct"))
def test_replay_reproduces_commit_order(protocol):
    seed = 7
    config, cluster, log = _recorded_run(protocol, seed)
    # The run must have ordered something, or the property is vacuous.
    assert any(proc.machine.history for proc in cluster.processes.values())
    for name, process in cluster.processes.items():
        replayed = replay_process(
            protocol, config, seed, name, log.for_process(name), END
        )
        assert replayed.machine.history == process.machine.history, (
            f"{protocol}/{name}: replayed commit order diverged"
        )
        assert replayed.machine.state_digest() == process.machine.state_digest()


def test_replay_is_sensitive_to_missing_input():
    """Dropping a recorded dispatch must be observable — otherwise the
    identity assertion above could pass vacuously."""
    seed = 7
    config, cluster, log = _recorded_run("sc", seed)
    name = max(
        cluster.processes,
        key=lambda n: len(cluster.processes[n].machine.history),
    )
    recorded = log.for_process(name)
    assert len(recorded) > 10
    truncated = recorded[: len(recorded) // 2]
    replayed = replay_process("sc", config, seed, name, truncated, END)
    assert replayed.machine.history != cluster.processes[name].machine.history


def test_run_until_steps_the_replay_clock():
    """Replay advances with ``run(until=t)``: timers due at or before
    ``t`` fire in order, cancelled ones never, and the clock is left at
    ``t`` so the injected dispatch sees the recorded time."""
    runtime = Simulator()
    fired: list[str] = []
    runtime.schedule(0.2, fired.append, "b")
    runtime.schedule(0.1, fired.append, "a")
    same_t = runtime.schedule(0.3, fired.append, "c1")
    runtime.schedule_at(0.3, fired.append, "c2")
    runtime.schedule_at(0.25, fired.append, "at-t")
    same_t.cancel()
    runtime.run(until=0.25)
    assert fired == ["a", "b", "at-t"]
    assert runtime.now == 0.25
    runtime.run(until=1.0)
    assert fired == ["a", "b", "at-t", "c2"]
    assert runtime.now == 1.0


def test_local_transport_routes_hosted_and_remote():
    runtime = Simulator()
    remote: list[tuple] = []
    transport = LocalTransport(
        runtime, on_remote=lambda *args: remote.append(args)
    )

    class Sink:
        name = "p1"

        def __init__(self):
            self.seen = []

        def on_message(self, sender, payload):
            self.seen.append((sender, payload))

    sink = Sink()
    transport.attach(sink)
    transport.host("p1")
    transport.send("c1", "p1", "hi", 64)
    transport.send("c1", "p9", "bye", 64)
    assert sink.seen == [("c1", "hi")]
    assert remote == [("c1", "p9", "bye", 64)]
