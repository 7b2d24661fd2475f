"""Equivalence guarantees of the hot-path optimisations.

The structural rework of the simulation core (slot-batched kernel,
per-link delay streams) is sold on one promise: **identical results**.
These tests pin that promise directly, so a future "optimisation" that
drifts a draw sequence or a firing order fails here rather than as an
unexplained baseline diff.
"""

from __future__ import annotations

import random

from repro.net.delay import ConstantDelay, LanDelay, LinkDelayStream, SurgeableDelay
from repro.sim.kernel import Simulator


# ----------------------------------------------------------------------
# 1. Slot-batched kernel vs the one-event-at-a-time oracle
# ----------------------------------------------------------------------
def _scripted_run(simulator: Simulator) -> list[tuple[float, str]]:
    """A workload exercising ties, reschedules, and cancellation."""
    fired: list[tuple[float, str]] = []
    rng = random.Random(7)

    def note(tag: str) -> None:
        fired.append((simulator.now, tag))
        # Events scheduled mid-slot for the *same* instant must land
        # after the current slot, in seq order.
        if tag.startswith("spawn"):
            simulator.schedule_at(simulator.now, note, f"child-of-{tag}")
        if tag == "reschedule":
            simulator.schedule(0.5, note, "rescheduled")

    timers = []
    for i in range(60):
        t = rng.choice([1.0, 1.0, 2.5, 2.5, 2.5, 4.0, rng.random() * 10])
        timers.append(simulator.schedule_at(t, note, f"e{i}@{t:.3f}"))
    simulator.schedule_at(2.5, note, "spawn-a")
    simulator.schedule_at(2.5, note, "spawn-b")
    simulator.schedule_at(4.0, note, "reschedule")
    for timer in timers[::7]:
        timer.cancel()
    simulator.run(until=11.0)
    return fired


def _oracle_run() -> list[tuple[float, str]]:
    """Replay the same script through the unbatched ``pop_due`` path."""

    class OracleSim(Simulator):
        def run(self, until=None, max_events=None):  # noqa: ARG002
            self._running = True
            try:
                while True:
                    event = self._queue.pop_due(until)
                    if event is None:
                        break
                    self.now = event.time
                    self.events_processed += 1
                    event.callback(*event.args)
                    if self._stopped:
                        break
                if until is not None and not self._stopped and self.now < until:
                    self.now = until
            finally:
                self._running = False

    return _scripted_run(OracleSim(seed=1))


def test_batched_kernel_matches_per_event_oracle():
    assert _scripted_run(Simulator(seed=1)) == _oracle_run()


def test_batched_kernel_deterministic_across_runs():
    assert _scripted_run(Simulator(seed=1)) == _scripted_run(Simulator(seed=1))


# ----------------------------------------------------------------------
# 2. Chunk-prefetched delay streams vs per-send model.sample draws
# ----------------------------------------------------------------------
def _draw_pairs(model, n=1500, seed=42):
    """(streamed, per-send) delay sequences over one rng stream each."""
    sizes = [64, 1024, 96, 4096] * (n // 4)
    times = [i * 0.001 for i in range(len(sizes))]
    streamed = LinkDelayStream(model, random.Random(seed))
    got = [streamed.sample(s, t) for s, t in zip(sizes, times)]
    oracle_rng = random.Random(seed)
    want = [model.sample(s, oracle_rng, t) for s, t in zip(sizes, times)]
    return got, want


def test_delay_stream_bit_identical_lan():
    got, want = _draw_pairs(LanDelay())
    assert got == want  # bitwise float equality, all 1500 draws


def test_delay_stream_bit_identical_surgeable():
    model = SurgeableDelay(LanDelay(), surge_factor=10.0)
    model.add_surge(0.3, 0.9)
    model.add_surge(1.1, 1.2, factor=3.0)
    got, want = _draw_pairs(model)
    assert got == want


def test_delay_stream_slow_path_for_unknown_models():
    # Exact-type dispatch: subclasses and other models must go through
    # the model's own sample(), not the inlined LAN formula.
    class WeirdDelay(LanDelay):
        def sample(self, size_bytes, rng, now):
            return 0.125

    stream = LinkDelayStream(WeirdDelay(), random.Random(1))
    assert stream.sample(1000, 0.0) == 0.125
    got, want = _draw_pairs(ConstantDelay(0.002))
    assert got == want
