"""The heartbeat failure detector, driven without an event loop.

``check_once`` / ``note_alive`` are plain synchronous methods, so the
suspicion and quorum logic is testable against a plain
:class:`~repro.sim.kernel.Simulator` clock with no sockets and no
tasks.
"""

from __future__ import annotations

from repro.live.heartbeat import HeartbeatMonitor
from repro.sim.kernel import Simulator


class StubTransport:
    def __init__(self) -> None:
        self.peer_activity = None
        self.beacons: list[tuple[str, tuple]] = []

    def send_raw(self, dest: str, frame: tuple) -> None:
        self.beacons.append((dest, frame))


def _monitor(runtime, quorum=3, timeout=1.0, on_park=None):
    monitor = HeartbeatMonitor(
        "p1", ["p2", "p3", "p4"], StubTransport(), runtime,
        interval=0.25, timeout=timeout, quorum=quorum, on_park=on_park,
    )
    # Seed last_seen as start() would, without launching loops.
    for peer in monitor.peers:
        monitor.last_seen.setdefault(peer, runtime.now)
    return monitor


def test_silent_peer_is_suspected_with_latency_in_trace():
    runtime = Simulator()
    monitor = _monitor(runtime)
    runtime.run(until=0.9)
    monitor.note_alive("p2")
    monitor.note_alive("p4")
    runtime.run(until=1.2)  # p3 silent for 1.2 > timeout 1.0
    monitor.check_once()
    assert monitor.suspected == {"p3"}
    [record] = runtime.trace.of_kind("peer_suspected")
    assert record.fields["peer"] == "p3"
    assert record.fields["node"] == "p1"
    assert record.fields["silence"] >= 1.0


def test_restored_peer_clears_suspicion():
    runtime = Simulator()
    monitor = _monitor(runtime)
    runtime.run(until=1.5)
    monitor.check_once()
    assert monitor.suspected == {"p2", "p3", "p4"}
    runtime.run(until=1.6)
    monitor.note_alive("p3")
    assert "p3" not in monitor.suspected
    [record] = runtime.trace.of_kind("peer_restored")
    assert record.fields["peer"] == "p3"
    assert monitor.restores == 1


def test_non_members_never_register():
    runtime = Simulator()
    monitor = _monitor(runtime)
    monitor.note_alive("client-0")
    monitor.note_alive("p2!st")
    assert "client-0" not in monitor.last_seen
    assert "p2!st" not in monitor.last_seen


def test_quorum_loss_parks_with_structured_reason_and_recovers():
    runtime = Simulator()
    parks: list[tuple[bool, dict]] = []
    monitor = _monitor(
        runtime, quorum=3, on_park=lambda p, d: parks.append((p, d))
    )
    runtime.run(until=1.5)  # all three peers silent: alive == 1 < 3
    monitor.check_once()
    assert monitor.parked is True
    [lost] = runtime.trace.of_kind("quorum_lost")
    assert lost.fields["alive"] == 1
    assert lost.fields["needed"] == 3
    assert lost.fields["suspected"] == ["p2", "p3", "p4"]
    assert "quorum lost" in lost.fields["reason"]
    assert parks[0][0] is True

    runtime.run(until=2.5)
    monitor.note_alive("p2")
    monitor.note_alive("p3")  # alive == 3 again
    assert monitor.parked is False
    [restored] = runtime.trace.of_kind("quorum_restored")
    assert restored.fields["outage"] == 1.0
    assert parks[-1][0] is False
    assert monitor.parked_total == 1.0


def test_stop_folds_an_open_park_into_the_total():
    runtime = Simulator()
    monitor = _monitor(runtime, quorum=3)
    runtime.run(until=1.5)
    monitor.check_once()
    assert monitor.parked is True
    runtime.run(until=2.0)
    monitor.stop()
    assert monitor.parked_total == 0.5
    assert monitor.summary()["parked_s"] == 0.5


def test_summary_counts():
    runtime = Simulator()
    monitor = _monitor(runtime, quorum=1)
    runtime.run(until=1.5)
    monitor.check_once()
    runtime.run(until=1.6)
    monitor.note_alive("p2")
    summary = monitor.summary()
    assert summary["suspicions"] == 3
    assert summary["suspicions_cleared"] == 1
    assert summary["suspected_now"] == ["p3", "p4"]
    assert summary["parked_s"] == 0.0
