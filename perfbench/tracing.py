"""Spans around calls into the program's layers, recorded from outside.

:class:`SpanRecorder` wraps public functions and methods of ``repro``
so that every call records a span ``(name, start, end, parent)``.
Spans stay in memory (four flat arrays) and are written once, when the
run ends, by :meth:`SpanRecorder.dump`; :func:`load_summary` reads a
dump back and reduces it to per-name call counts and self times.

Patching rules:

* a module-level function is replaced in *every* loaded ``repro``
  module that bound it by name (``from repro.crypto.canon import
  encode_canonical`` copies the function object into the importer);
* a method is replaced on the class that defines it;
* a coroutine function gets one span per resumed step, so its self
  time is the time it ran, not the time it waited; its calls are
  counted once each, and with ``wall=True`` the call-to-return wall
  time is kept as well.

The recorder also keeps a few counters that only the call arguments
carry: trace kinds passed to ``Tracer.emit``, requests per committed
batch, bytes written per frame and heartbeat suspicions.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Any, Callable

from perfbench.stats import self_times

_clock = time.perf_counter


class _CountingWriter:
    """Stands in for a StreamWriter inside ``write_frame``: forwards
    ``write`` and adds the byte count to the recorder."""

    __slots__ = ("_writer", "_recorder")

    def __init__(self, writer, recorder: "SpanRecorder") -> None:
        self._writer = writer
        self._recorder = recorder

    def write(self, data: bytes) -> None:
        self._recorder.frame_bytes += len(data)
        self._writer.write(data)


class SpanRecorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self._stack: list[int] = []
        # (name, start, end) on the system-wide monotonic clock, so they
        # compare with times taken in other processes of this host
        self.walls: list[tuple[str, float, float]] = []
        self.kinds: Counter[str] = Counter()
        self.batch_requests = 0
        self.frame_bytes = 0
        self.suspicions = 0
        self._restore: list[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
        return nid

    def _open(self, nid: int) -> int:
        stack = self._stack
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(stack[-1] if stack else -1)
        self.span_end.append(0.0)
        stack.append(idx)
        self.span_start.append(_clock())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = _clock()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        nid = self._name_id(name)
        calls = self.calls
        opener, closer = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[nid] += 1
            idx = opener(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                closer(idx)

        return traced

    def wrap_async(self, name: str, fn: Callable, wall: bool = False) -> Callable:
        nid = self._name_id(name)
        recorder = self

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            recorder.calls[nid] += 1
            started = time.monotonic()
            try:
                return await _Stepped(fn(*args, **kwargs), nid, recorder)
            finally:
                if wall:
                    recorder.walls.append((name, started, time.monotonic()))

        return traced

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def patch_function(self, module_name: str, attr: str, name: str,
                       make: Callable[[Callable], Callable] | None = None,
                       is_async: bool = False, wall: bool = False) -> None:
        """Replace ``module.attr`` everywhere ``repro`` bound it."""
        module = sys.modules[module_name]
        original = getattr(module, attr)
        wrapper = self._wrapper(name, original, make, is_async, wall)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            namespace = vars(mod)
            for key, value in list(namespace.items()):
                if value is original:
                    namespace[key] = wrapper
                    self._restore.append(
                        functools.partial(namespace.__setitem__, key, original)
                    )

    def patch_method(self, cls: type, attr: str, name: str,
                     make: Callable[[Callable], Callable] | None = None,
                     is_async: bool = False, wall: bool = False) -> None:
        """Replace ``cls.attr`` (a plain function in the class body)."""
        original = cls.__dict__[attr]
        setattr(cls, attr, self._wrapper(name, original, make, is_async, wall))
        self._restore.append(functools.partial(setattr, cls, attr, original))

    def _wrapper(self, name: str, original: Callable,
                 make: Callable[[Callable], Callable] | None,
                 is_async: bool, wall: bool) -> Callable:
        """The span wrapper around ``original``, or around what ``make``
        builds from it (a variant that also counts something)."""
        inner = make(original) if make is not None else original
        if is_async:
            return self.wrap_async(name, inner, wall)
        return self.wrap(name, inner)

    def uninstall(self) -> None:
        """Put every patched original back (newest patch first)."""
        while self._restore:
            self._restore.pop()()

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def dump(self, path: str | Path, extra: dict | None = None) -> None:
        """Write the spans and counters: ``path`` (JSON header) plus
        ``path + '.bin'`` (the four span arrays, back to back)."""
        path = Path(path)
        header = {
            "names": self.names,
            "calls": self.calls,
            "spans": len(self.span_start),
            "walls": self.walls,
            "kinds": dict(self.kinds),
            "batch_requests": self.batch_requests,
            "frame_bytes": self.frame_bytes,
            "suspicions": self.suspicions,
            "extra": extra or {},
        }
        with open(str(path) + ".bin", "wb") as fh:
            for arr in (self.span_name, self.span_start, self.span_end,
                        self.span_parent):
                arr.tofile(fh)
        path.write_text(json.dumps(header))


class _Stepped:
    """Awaitable driving one coroutine, one span per resumed step."""

    __slots__ = ("_coro", "_nid", "_recorder")

    def __init__(self, coro, nid: int, recorder: SpanRecorder) -> None:
        self._coro = coro
        self._nid = nid
        self._recorder = recorder

    def __await__(self):
        steps = self._coro.__await__()
        recorder = self._recorder
        send_value: Any = None
        error: BaseException | None = None
        while True:
            idx = recorder._open(self._nid)
            try:
                if error is not None:
                    yielded = steps.throw(error)
                else:
                    yielded = steps.send(send_value)
            except StopIteration as stop:
                return stop.value
            finally:
                recorder._close(idx)
            try:
                send_value = yield yielded
                error = None
            except BaseException as exc:  # delivered into the coroutine
                send_value, error = None, exc


def load_summary(path: str | Path) -> dict:
    """Read one dump: per-name ``calls`` and ``self_s`` plus counters."""
    path = Path(path)
    header = json.loads(path.read_text())
    n = header["spans"]
    arrays = [array("i"), array("d"), array("d"), array("i")]
    with open(str(path) + ".bin", "rb") as fh:
        for arr in arrays:
            arr.fromfile(fh, n)
    own = self_times(list(zip(*arrays)))
    self_s = [0.0] * len(header["names"])
    for nid, seconds in zip(arrays[0], own):
        self_s[nid] += seconds
    header["self_s"] = dict(zip(header["names"], self_s))
    header["calls"] = dict(zip(header["names"], header["calls"]))
    return header


# ----------------------------------------------------------------------
# The layer boundaries the benchmark traces
# ----------------------------------------------------------------------
def install_sim(recorder: SpanRecorder) -> None:
    """Wrap the entry points a simulated run crosses."""
    import repro.crypto.canon  # noqa: F401  (patch targets must be loaded)
    import repro.crypto.signed  # noqa: F401
    import repro.harness.probes as probes
    from repro.core.process import OrderProcessBase
    from repro.net.network import Network
    from repro.sim.kernel import Simulator
    from repro.sim.trace import Tracer

    recorder.patch_method(Simulator, "run", "sim.run")
    recorder.patch_method(Network, "send", "net.send")
    recorder.patch_method(Network, "multicast", "net.multicast")
    recorder.patch_method(Network, "_deliver", "net.deliver")
    recorder.patch_method(OrderProcessBase, "on_message", "core.on_message")
    _install_crypto(recorder)
    _install_trace(recorder, Tracer)
    for cls in _subclasses_defining(probes.Probe, "consume"):
        recorder.patch_method(cls, "consume", "probes.consume")


def install_live(recorder: SpanRecorder) -> None:
    """Wrap the entry points a live replica (or client) crosses."""
    import repro.crypto.canon  # noqa: F401
    import repro.crypto.signed  # noqa: F401
    import repro.live.node  # noqa: F401  (binds framing and friends)
    from repro.core.process import OrderProcessBase
    from repro.live.heartbeat import HeartbeatMonitor
    from repro.live.recovery import PrefixFetcher
    from repro.live.transport import LiveTransport
    from repro.sim.trace import Tracer

    def counting_write_frame(original):
        def write_frame(writer, obj):
            return original(_CountingWriter(writer, recorder), obj)
        return write_frame

    def counting_check_once(original):
        def check_once(monitor):
            try:
                return original(monitor)
            finally:
                recorder.suspicions = monitor.suspicions
        return check_once

    recorder.patch_function("repro.net.framing", "write_frame",
                            "framing.write_frame", make=counting_write_frame)
    recorder.patch_function("repro.net.framing", "read_frame",
                            "framing.read_frame", is_async=True)
    recorder.patch_method(LiveTransport, "send", "transport.send")
    recorder.patch_method(OrderProcessBase, "on_message", "core.on_message")
    recorder.patch_method(PrefixFetcher, "fetch_and_install",
                          "recovery.fetch_and_install", is_async=True,
                          wall=True)
    recorder.patch_method(HeartbeatMonitor, "check_once",
                          "heartbeat.check_once", make=counting_check_once)
    _install_crypto(recorder)
    _install_trace(recorder, Tracer)


def _install_crypto(recorder: SpanRecorder) -> None:
    recorder.patch_function("repro.crypto.canon", "encode_canonical",
                            "crypto.encode_canonical")
    for attr in ("sign_message", "countersign", "verify_signed",
                 "signing_bytes"):
        recorder.patch_function("repro.crypto.signed", attr, f"crypto.{attr}")


def _install_trace(recorder: SpanRecorder, tracer_cls: type) -> None:
    kinds = recorder.kinds

    def counting_emit(original):
        def emit(self, time, kind, **fields):
            kinds[kind] += 1
            if kind == "order_committed":
                recorder.batch_requests += fields.get("n_requests", 0)
            return original(self, time, kind, **fields)
        return emit

    recorder.patch_method(tracer_cls, "emit", "trace.emit", make=counting_emit)


def _subclasses_defining(base: type, attr: str) -> list[type]:
    found, todo = [], [base]
    while todo:
        cls = todo.pop()
        if attr in cls.__dict__:
            found.append(cls)
        todo.extend(cls.__subclasses__())
    return found
