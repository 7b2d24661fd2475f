"""Replica restart, rejoin and state transfer.

Three layers:

* unit — ``replay_history`` / ``install_prefix`` (the kernel-free
  replay half) against a directly executed reference machine;
* in-loop — :func:`serve_state_transfer` and :class:`PrefixFetcher`
  talking over a real :class:`LiveTransport` listener in one event
  loop: chunking, resumable idempotence, digest verification and the
  atomic-discard guarantee;
* cluster — real ``repro serve`` subprocesses: kill a replica
  mid-load, restart it, and require the rejoined node's history to
  pass the all-pairs prefix-agreement check; SIGTERM mid-transfer must
  still yield a clean summary with the partial snapshot discarded; an
  injected partition must heal with no divergence.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import signal
import time

import pytest

from repro.core.messages import OrderEntry
from repro.core.service import ReplicatedStateMachine
from repro.errors import ProtocolError
from repro.live import recovery
from repro.live.transport import LiveTransport
from repro.protocols.runtime import install_prefix, replay_history
from repro.sim.kernel import Simulator

from cluster_utils import finish_serve, run_load, start_serve


def _reference_machine(n: int) -> ReplicatedStateMachine:
    machine = ReplicatedStateMachine("ref")
    for seq in range(1, n + 1):
        machine.apply(OrderEntry(
            seq=seq,
            req_digest=hashlib.sha256(f"req-{seq}".encode()).digest(),
            client="c0",
            req_id=seq,
        ))
    return machine


# ----------------------------------------------------------------------
# replay_history / install_prefix
# ----------------------------------------------------------------------
def test_replay_reproduces_the_digest_chain():
    ref = _reference_machine(25)
    replayed = replay_history("p3", ref.history,
                              expected_digest=ref.state_digest())
    assert replayed.applied_seq == 25
    assert replayed.state_digest() == ref.state_digest()


def test_replay_rejects_gapped_rows():
    ref = _reference_machine(5)
    rows = [ref.history[0], ref.history[2]]  # seq 1 then 3
    with pytest.raises(ProtocolError):
        replay_history("p3", rows)


def test_replay_is_idempotent_for_resent_rows():
    ref = _reference_machine(10)
    base = replay_history("p3", ref.history[:6])
    # A resumed transfer resends overlapping rows; they must be skipped.
    merged = replay_history("p3", ref.history[3:], base=base)
    assert merged is base
    assert merged.state_digest() == ref.state_digest()


def test_replay_rejects_a_forged_final_digest():
    ref = _reference_machine(5)
    with pytest.raises(ProtocolError, match="discarding"):
        replay_history("p3", ref.history, expected_digest=b"\x00" * 32)


def test_install_prefix_fast_forwards_the_execution_cursor():
    class Proc:
        machine = ReplicatedStateMachine("p3")
        _exec_next = 1

    ref = _reference_machine(7)
    proc = Proc()
    assert install_prefix(proc, ref) == 7
    assert proc.machine is ref
    assert proc._exec_next == 8


# ----------------------------------------------------------------------
# The wire protocol, one event loop, real sockets
# ----------------------------------------------------------------------
class _ProviderProcess:
    def __init__(self, machine) -> None:
        self.machine = machine
        self.traced: list[tuple] = []

    def trace(self, kind, **fields) -> None:
        self.traced.append((kind, fields))


def _run_transfer(n_entries, chunk_rows, tamper=False):
    async def scenario():
        ref = _reference_machine(n_entries)
        provider_proc = _ProviderProcess(ref)
        if tamper:
            provider_proc.machine = type(
                "Tampered", (), {
                    "history": ref.history,
                    "applied_seq": ref.applied_seq,
                    "state_digest": lambda self: b"\xff" * 32,
                },
            )()
        provider = LiveTransport("p1")
        host, port = await provider.start_listener("127.0.0.1", 0)
        recovery.serve_state_transfer(provider, provider_proc)

        runtime = Simulator()
        fetcher = recovery.PrefixFetcher(
            "p3", ["p1"], {"p1": (host, port)}, None, runtime,
            chunk_rows=chunk_rows,
        )

        class Target:
            machine = ReplicatedStateMachine("p3")
            _exec_next = 1

        target = Target()
        try:
            stats = await fetcher.fetch_and_install(target)
        finally:
            fetcher.close()
            await provider.close()
        return ref, target, stats, provider_proc, runtime

    return asyncio.run(scenario())


def test_state_transfer_round_trip_is_chunked_and_verified():
    ref, target, stats, provider_proc, runtime = _run_transfer(
        n_entries=23, chunk_rows=5
    )
    assert target.machine.applied_seq == 23
    assert target.machine.state_digest() == ref.state_digest()
    assert target._exec_next == 24
    assert stats["snapshot_seq"] == 23
    assert stats["entries"] == 23
    assert stats["chunks"] >= 5  # 23 rows in 5-row chunks
    assert stats["bytes"] > 0
    assert stats["peer"] == "p1"
    # Both halves leave their trail: the provider's serve records and
    # the requester's rejoin_started/rejoin_complete trace.
    assert any(kind == "state_served" for kind, _ in provider_proc.traced)
    kinds = [r.kind for r in runtime.trace.records]
    assert kinds.count("rejoin_started") == 1
    assert kinds.count("rejoin_complete") == 1


def test_state_transfer_discards_on_digest_mismatch():
    with pytest.raises(ProtocolError, match="partial prefix discarded"):
        _run_transfer(n_entries=9, chunk_rows=4, tamper=True)


def test_empty_provider_transfers_an_empty_prefix():
    _ref, target, stats, _proc, _rt = _run_transfer(n_entries=0, chunk_rows=4)
    assert target.machine.applied_seq == 0
    assert stats["snapshot_seq"] == 0


# ----------------------------------------------------------------------
# Full clusters: kill, restart, rejoin
# ----------------------------------------------------------------------
def test_sc_replica_restart_and_rejoin(tmp_path):
    """The tentpole acceptance: a replica killed mid-load restarts,
    completes a snapshot + delta transfer from a live peer, and its
    post-rejoin history passes the all-pairs prefix-agreement check."""
    proc, control = start_serve(
        "--protocol", "sc", "--f", "1", "--duration", "10",
        "--kill-after", "p3:2.5", "--restart-after", "p3:4.5",
        "--json-dir", str(tmp_path),
    )
    try:
        load = run_load(control, rate=40, duration=6)
        summary = finish_serve(proc, timeout=45)
    finally:
        if proc.poll() is None:
            proc.kill()
    assert load["issued"] > 0
    assert load["committed"] >= 0.9 * load["issued"]
    assert summary["killed"] == ["p3"]
    assert summary["restarted"] == ["p3"]
    assert summary["rejoined"] == ["p3"]
    # The rejoined replica is a full voting member of the safety check.
    assert "p3" in summary["survivors"]
    assert summary["histories_agree"] is True
    assert summary["divergence"] is None
    assert summary["committed_prefix"] > 0
    rejoin = summary["recovery"]["p3"]
    assert rejoin["snapshot_seq"] > 0
    assert rejoin["bytes"] > 0
    assert rejoin["duration"] > 0

    artifact = json.loads((tmp_path / "BENCH_live_sc.json").read_text())
    [point] = artifact["points"]
    assert "recovery-timeline" in point["probes"]
    metrics = point["metrics"]
    assert metrics["rejoins"] >= 1
    assert metrics["rejoin_duration_mean"] > 0
    assert metrics["catchup_entries"] > 0
    assert metrics["catchup_bytes"] > 0
    # Peers detected the kill before the restart healed it.
    assert metrics["suspicions"] >= 1
    assert metrics["detection_latency_mean"] > 0


def test_sigterm_mid_state_transfer_still_summarises(monkeypatch):
    """Satellite: a SIGTERM landing while the restarted replica is
    mid state-transfer must still produce a clean controller exit with
    a summary, and the partial snapshot must be discarded (the aborted
    node reports, but never becomes a voting survivor)."""
    # Slow the transfer down so the stop signal reliably lands inside
    # it: 2-row chunks with a 0.4s pause between chunks.
    monkeypatch.setenv("REPRO_ST_CHUNK_ROWS", "2")
    monkeypatch.setenv(recovery.ST_CHUNK_DELAY_ENV, "0.4")
    proc, control = start_serve(
        "--protocol", "sc", "--f", "1", "--duration", "30",
        "--kill-after", "p3:1.5", "--restart-after", "p3:3.5",
    )
    try:
        load = run_load(control, rate=60, duration=2.5)
        # Transfer starts ~1s after the restart; by now it is running
        # (and will run for seconds, thanks to the chunk delay).
        time.sleep(2.5)
        proc.send_signal(signal.SIGTERM)
        summary = finish_serve(proc, timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
    assert load["issued"] > 0
    assert summary["histories_agree"] is True
    assert summary["restarted"] == ["p3"]
    assert summary["rejoined"] == []
    rejoin = summary["recovery"].get("p3")
    assert rejoin is not None and rejoin["aborted"] is True
    assert "p3" not in summary["survivors"]
    # The survivors' committed work is still verified and reported.
    assert summary["committed_prefix"] > 0


def test_partition_heals_without_divergence(tmp_path):
    """Acceptance: an injected partition (one replica isolated for
    1.5s) is detected, parks the minority side, heals, and leaves no
    history divergence."""
    proc, control = start_serve(
        "--protocol", "sc", "--f", "1", "--duration", "7",
        "--partition", "p1,p1',p2|p3:2.0:1.5",
        "--hb-timeout", "0.6",
        "--json-dir", str(tmp_path),
    )
    try:
        load = run_load(control, rate=30, duration=4)
        summary = finish_serve(proc, timeout=40)
    finally:
        if proc.poll() is None:
            proc.kill()
    assert load["issued"] > 0
    assert summary["histories_agree"] is True
    assert summary["divergence"] is None
    assert summary["killed"] == []

    artifact = json.loads((tmp_path / "BENCH_live_sc.json").read_text())
    [point] = artifact["points"]
    metrics = point["metrics"]
    # Both sides of the cut noticed: suspicions raised, then cleared
    # when the window closed; the isolated minority parked on quorum
    # loss and recovered.
    assert metrics["suspicions"] >= 1
    assert metrics["suspicions_cleared"] >= 1
    assert metrics["quorum_losses"] >= 1
    assert metrics["quorum_outage_s"] > 0
