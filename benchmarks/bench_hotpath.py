"""Hot-path microbenchmarks: the per-message constant factors.

A cProfile of a representative sweep point showed ~35% of harness wall
time inside canonical encoding — none of it affecting any simulated
metric.  These benchmarks pin the optimised ingredients (the
single-pass memoising encoder of :mod:`repro.crypto.canon`, the cached
``signing_bytes``, the tuple-keyed event heap) and assert the properties
the optimisation relies on: byte-identical output and cache hits that
actually hit.  Absolute wall-time claims live in ``python -m repro
perf`` output, not in asserts — this machine is not CI's machine.
"""

import copy

from repro.core.messages import Ack
from repro.crypto.canon import encode_canonical, strip_memo
from repro.crypto.encoding import canonical_bytes, reference_canonical_bytes
from repro.crypto.schemes import MD5_RSA_1024
from repro.crypto.signed import sign_message, signing_bytes
from repro.crypto.signing import SimulatedSignatureProvider
from repro.harness.perf import (
    REFERENCE_TASK,
    run_reference_point,
    sample_hotpath_message,
)
from repro.harness.runner import run_task

PROVIDER = SimulatedSignatureProvider(MD5_RSA_1024, ["p1", "p1'", "p2"])

#: Shared with ``repro.harness.perf.microbench`` so the pytest-benchmark
#: numbers and the ``repro perf`` report measure the same object shape.
MESSAGE = sample_hotpath_message()


def test_fast_encode_warm(benchmark):
    """The memo-warm path: what sign→countersign→verify actually pays."""
    out = benchmark(lambda: encode_canonical(MESSAGE))
    assert out == reference_canonical_bytes(MESSAGE)


def test_fast_encode_cold(benchmark):
    """The no-memo path: every cached fragment is stripped from the
    graph before each encode (deepcopy alone would *copy* the memos)."""
    cold = copy.deepcopy(MESSAGE)

    def encode_cold():
        strip_memo(cold)
        return encode_canonical(cold)

    out = benchmark(encode_cold)
    assert out == reference_canonical_bytes(MESSAGE)


def test_reference_encode(benchmark):
    """The oracle's rate, for the before/after ratio in reports."""
    out = benchmark(lambda: reference_canonical_bytes(MESSAGE))
    assert out == canonical_bytes(MESSAGE)


def test_signing_bytes_cached(benchmark):
    """Verify-after-countersign re-requests the same prefix bytes."""
    expected = signing_bytes(MESSAGE.body, MESSAGE.signatures)
    out = benchmark(lambda: signing_bytes(MESSAGE.body, MESSAGE.signatures))
    assert out == expected


def test_ack_payload_encoding(benchmark):
    """A signed ack embedding a signed order: the deepest hot message."""
    ack = sign_message(PROVIDER, "p2", Ack(acker="p2", order=MESSAGE))
    out = benchmark(lambda: encode_canonical(ack))
    assert out == reference_canonical_bytes(ack)


def test_reference_point_deterministic(benchmark):
    """The ``repro perf`` reference point: warm caches change wall time
    only — a second in-process run reproduces every simulated metric."""
    first = run_task(REFERENCE_TASK)
    second = benchmark.pedantic(
        lambda: run_task(REFERENCE_TASK), rounds=1, iterations=1
    )
    assert second.result == first.result
    assert second.metrics() == first.metrics()
    perf = run_reference_point()
    assert perf.events == first.events_processed > 0
    assert perf.events_per_second > 0


def test_slot_batch_pop(benchmark):
    """The batched drain: one ``pop_due_batch`` per slot vs a heap of
    mixed-time events; output order must match the one-event oracle."""
    from repro.sim.events import EventQueue

    def build():
        q = EventQueue()
        for i in range(2_000):
            q.push(float(i % 50), (lambda: None), ())
        return q

    def drain():
        q = build()
        out = []
        order = []
        while q.pop_due_batch(None, out) is not None:
            order.extend(e.seq for e in out)
            out.clear()
        return order

    order = benchmark(drain)
    oracle = build()
    expected = []
    while (event := oracle.pop_due(None)) is not None:
        expected.append(event.seq)
    assert order == expected


def test_link_delay_stream(benchmark):
    """The chunk-prefetched per-link stream vs per-send model.sample:
    bit-identical delays at a fraction of the call overhead."""
    import random

    from repro.net.delay import LanDelay, LinkDelayStream

    model = LanDelay()

    def streamed():
        stream = LinkDelayStream(model, random.Random(3))
        return [stream.sample(1024, i * 1e-3) for i in range(1_000)]

    got = benchmark(streamed)
    rng = random.Random(3)
    assert got == [model.sample(1024, rng, i * 1e-3) for i in range(1_000)]

