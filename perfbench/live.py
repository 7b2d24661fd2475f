"""Live phase: a 4-replica SC cluster on loopback, driven by one client.

Cluster: ``repro serve --spawn 0`` (the controller) plus one
:mod:`perfbench.node` process per replica — p1, p1' (p1's shadow), p2
and p3 — SC with f=1, scheme md5-rsa1024, no injected delay (loopback
TCP; latency is processor and scheduling time only).  The benchmark
starts every replica itself, so it knows each role's pid for
``/proc/<pid>/stat`` CPU and ``VmHWM`` peak memory, and it starts the
replacement when a workload crashes p1.

Client: this process, one thread, one asyncio loop, one connection per
replica (a request is multicast to every replica, so four connections
are the protocol's minimum).  A request commits when ``f + 1`` matching
replies have arrived.  Two loop types:

* ``open`` — Poisson arrivals at a fixed rate, drawn from
  ``random.Random(f"{seed}:{launch}")``; a request is sent when due,
  whatever the cluster is doing, and its latency runs from its due time, so a stall
  is charged to every request due during it.  How late the generator
  sent is reported too (``client.late_p99_ms``).
* ``closed`` — a fixed number of requests outstanding; each commit
  sends the next one, and latency runs from the send.

The seed also seeds the trusted dealer (the replicas' keys).  One
launch: load starts at the cluster's agreed start epoch; the first
commit ends set-up; after a half-second warm-up the measurement window
runs for the requested seconds; requests issued in the window then get
a drain period to commit, and every one that does not counts as
failed.  A run makes several launches and pools them (see
:mod:`perfbench.run`).
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import signal
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from perfbench import stats

ROOT = Path(__file__).resolve().parent.parent
NODE_SCRIPT = Path(__file__).resolve().parent / "node.py"

#: Replica names of SC with f=1, in the order the metrics report them.
REPLICAS = ("p1", "p1'", "p2", "p3")
#: Role labels for metric names (``'`` is not allowed in a name).
ROLE = {"p1": "p1", "p1'": "p1-shadow", "p2": "p2", "p3": "p3"}
CLIENT = "c1"
#: Seconds between the start epoch and the first request.
LEAD_IN = 0.05
#: Seconds of load before the measurement window opens.
WARMUP = 0.5
#: Longest wait for window requests to commit after the window closes.
DRAIN = 3.0
#: How often replica CPU and peak memory are read from /proc.
SAMPLE_PERIOD = 0.2
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


@dataclass(frozen=True)
class LoadShape:
    """What the client offers and when the workload injects a fault."""

    loop: str  # "open" or "closed"
    batching: float  # the cluster's batching interval, seconds
    rate: float = 0.0  # open loop: requests per second
    outstanding: int = 0  # closed loop: requests in flight
    crash_at: float | None = None  # share of the window at which p1 dies
    restart_after: float = 0.0  # seconds from the crash to p1's restart


def proc_cpu_s(pid: int) -> float | None:
    """User + system CPU seconds of ``pid``, or None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return (int(fields[11]) + int(fields[12])) / CLOCK_TICKS


def proc_hwm_mb(pid: int) -> float | None:
    """Peak resident set (``VmHWM``) of ``pid`` in MiB."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None


@dataclass
class Incarnation:
    """One replica process."""

    name: str
    proc: asyncio.subprocess.Process
    address: tuple[str, int] | None = None
    cpu_last: float = 0.0
    hwm_mb: float = 0.0
    dump: Path | None = None

    def sample(self) -> None:
        cpu = proc_cpu_s(self.proc.pid)
        hwm = proc_hwm_mb(self.proc.pid)
        if cpu is not None:
            self.cpu_last = cpu
        if hwm is not None:
            self.hwm_mb = max(self.hwm_mb, hwm)


class BenchClient:
    """The actor replies are dispatched into."""

    def __init__(self, f: int) -> None:
        from repro.core.replies import Reply, ReplyTracker

        self.name = CLIENT
        self.reply_type = Reply
        self.tracker = ReplyTracker(f)
        self.sent: dict[int, float] = {}
        self.committed: dict[int, float] = {}
        self.seqs: dict[int, int] = {}
        self.on_commit = None

    def on_message(self, sender: str, payload) -> None:
        if not isinstance(payload, self.reply_type) or payload.client != self.name:
            return
        now = time.monotonic()
        if self.tracker.note_reply(payload, now):
            self.committed[payload.req_id] = now
            self.seqs[payload.req_id] = payload.seq
            if self.on_commit is not None:
                self.on_commit()


@dataclass
class LiveResult:
    setup_s: float
    issued: int
    committed: int
    latencies: list[float]
    window_commits: int  # commits, of any request, inside the window
    cpu_s: dict[str, float]
    hwm_mb: dict[str, float]
    late: list[float]
    summary: dict
    total_commits: int = 0  # every commit of the launch, window or not
    outage_s: float = 0.0
    restarted_at: float | None = None  # when the crashed p1 was started again
    dumps: list[Path] = field(default_factory=list)


class Cluster:
    """The controller and replica processes of one launch."""

    def __init__(self, shape: LoadShape, seed: int, launch: int,
                 env: dict[str, str], trace_dir: Path | None,
                 crash_time: float | None) -> None:
        self.shape = shape
        self.seed = seed
        self.launch = launch
        self.env = env
        self.trace_dir = trace_dir
        self.crash_time = crash_time
        self.controller: asyncio.subprocess.Process | None = None
        self.control = ""
        self.nodes: list[Incarnation] = []
        self.launched = 0.0
        self._stderr_drain: asyncio.Future | None = None

    async def start(self) -> None:
        self.launched = time.monotonic()
        cmd = [sys.executable, "-m", "repro", "serve", "--spawn", "0",
               "--protocol", "sc", "--f", "1", "--scheme", "md5-rsa1024",
               "--batching-interval", repr(self.shape.batching),
               "--seed", str(self.seed)]
        if self.crash_time is not None:
            cmd += ["--kill-after", f"p1:{self.crash_time!r}"]
        self.controller = await asyncio.create_subprocess_exec(
            *cmd, stdout=asyncio.subprocess.PIPE,
            stderr=asyncio.subprocess.PIPE, env=self.env, cwd=ROOT,
        )
        while True:
            line = await asyncio.wait_for(
                self.controller.stderr.readline(), 30.0
            )
            if not line:
                raise RuntimeError("controller exited before listening")
            text = line.decode()
            if "control listening on" in text:
                self.control = text.split("control listening on ")[1].split()[0]
                break
        self._stderr_drain = asyncio.ensure_future(
            self.controller.stderr.read()
        )
        await asyncio.gather(*(self.start_node(name) for name in REPLICAS))

    async def start_node(self, name: str) -> Incarnation:
        cmd = [sys.executable, str(NODE_SCRIPT), "--join", self.control,
               "--replica-id", name]
        dump = None
        if self.trace_dir is not None:
            index = sum(1 for n in self.nodes if n.name == name)
            dump = (self.trace_dir
                    / f"{ROLE[name]}-L{self.launch}-{index}.spans.json")
            cmd += ["--trace-dump", str(dump)]
        proc = await asyncio.create_subprocess_exec(
            *cmd, stdout=asyncio.subprocess.PIPE,
            stderr=asyncio.subprocess.DEVNULL, env=self.env, cwd=ROOT,
        )
        node = Incarnation(name, proc, dump=dump)
        self.nodes.append(node)
        line = await asyncio.wait_for(proc.stdout.readline(), 30.0)
        parts = line.decode().split()
        if len(parts) != 3 or parts[0] != "listening":
            raise RuntimeError(f"replica {name} did not start: {line!r}")
        node.address = (parts[1], int(parts[2]))
        return node

    def sample(self) -> None:
        for node in self.nodes:
            node.sample()

    async def stop(self) -> dict:
        """Stop the cluster; the controller's verdict line."""
        summary: dict = {}
        if self.controller is not None and self.controller.returncode is None:
            self.controller.send_signal(signal.SIGTERM)
            try:
                out = await asyncio.wait_for(self.controller.stdout.read(), 20.0)
                lines = out.decode().strip().splitlines()
                if lines:
                    summary = json.loads(lines[-1])
            except asyncio.TimeoutError:
                self.controller.kill()
                await self.controller.wait()
        for node in self.nodes:
            try:
                await asyncio.wait_for(node.proc.wait(), 10.0)
            except asyncio.TimeoutError:
                node.proc.kill()
                await node.proc.wait()
        if self.controller is not None:
            await self.controller.wait()
        if self._stderr_drain is not None:
            self._stderr_drain.cancel()
        return summary

    async def kill_all(self) -> None:
        """Last-resort cleanup after an error."""
        procs = [n.proc for n in self.nodes]
        if self.controller is not None:
            procs.append(self.controller)
        for proc in procs:
            if proc.returncode is None:
                proc.kill()
        for proc in procs:
            await proc.wait()
        if self._stderr_drain is not None:
            self._stderr_drain.cancel()


async def _connect_client(cluster: Cluster):
    from repro.live.client import fetch_spec
    from repro.live.transport import LiveTransport

    spec = await fetch_spec(cluster.control, None)
    client = BenchClient(spec["f"])
    transport = LiveTransport(
        CLIENT,
        addresses={name: tuple(addr) for name, addr in spec["addresses"].items()},
    )
    transport.attach(client)
    transport.host(CLIENT)
    epoch = time.monotonic() + (spec["epoch"] - time.time())
    return spec, client, transport, epoch


def _send(transport, spec: dict, client: BenchClient, req_id: int) -> None:
    from repro.core.requests import ClientRequest

    request = ClientRequest(client=CLIENT, req_id=req_id,
                            size_bytes=int(spec.get("request_bytes", 64)))
    client.sent[req_id] = time.monotonic()
    transport.multicast(CLIENT, REPLICAS, request, request.size_bytes)


async def run_load(shape: LoadShape, seed: int, launch: int, seconds: float,
                   env: dict[str, str], trace_dir: Path | None) -> LiveResult:
    """One launch under load: set-up, warm-up, window, drain, stop.

    ``launch`` numbers the launches of one run; it picks the launch's
    own arrival stream and names its span dumps.
    """
    crash_time = None
    if shape.crash_at is not None:
        crash_time = LEAD_IN + WARMUP + shape.crash_at * seconds
    cluster = Cluster(shape, seed, launch, env, trace_dir, crash_time)
    transport = None
    recorder = None
    try:
        await cluster.start()
        if trace_dir is not None:
            from perfbench.tracing import SpanRecorder, install_live

            recorder = SpanRecorder()
            install_live(recorder)
        spec, client, transport, epoch = await _connect_client(cluster)
        result = await _drive(cluster, shape, random.Random(f"{seed}:{launch}"),
                              seconds, spec, client, transport, epoch)
        await transport.close()
        transport = None
        if recorder is not None:
            recorder.uninstall()
            dump = trace_dir / f"client-L{launch}.spans.json"
            recorder.dump(dump)
            result.dumps.append(dump)
        result.summary = await cluster.stop()
        result.dumps += [n.dump for n in cluster.nodes
                         if n.dump is not None and n.dump.exists()]
    except BaseException:
        if recorder is not None:
            recorder.uninstall()
        if transport is not None:
            await transport.close()
        await cluster.kill_all()
        raise
    return result


async def _drive(cluster: Cluster, shape: LoadShape, rng: random.Random,
                 seconds: float, spec: dict, client: BenchClient, transport,
                 epoch: float) -> LiveResult:
    loop = asyncio.get_running_loop()
    begin = epoch + LEAD_IN
    window_start = begin + WARMUP
    window_end = window_start + seconds
    due: dict[int, float] = {}
    late: list[float] = []
    # CPU seconds per role, read as the window opens and as it closes;
    # a replica that died keeps its last reading, one started inside the
    # window adds all of its CPU
    marks: list[dict[str, float]] = []

    def mark() -> None:
        cluster.sample()
        cpu = {"client": time.process_time()}
        for node in cluster.nodes:
            role = ROLE[node.name]
            cpu[role] = cpu.get(role, 0.0) + node.cpu_last
        marks.append(cpu)

    async def sampler() -> None:
        while True:
            await asyncio.sleep(SAMPLE_PERIOD)
            cluster.sample()

    sampling = loop.create_task(sampler())
    loop.call_at(window_start, mark)
    restart = None
    crash_wall = None
    if shape.crash_at is not None:
        crash_wall = window_start + shape.crash_at * seconds
        restart = loop.create_task(_restart_p1(
            cluster, transport, crash_wall + shape.restart_after
        ))
    await asyncio.sleep(max(0.0, begin - time.monotonic()))

    if shape.loop == "open":
        at = begin
        req_id = 0
        while True:
            at += rng.expovariate(shape.rate)
            if at >= window_end:
                break
            delay = at - time.monotonic()
            if delay > 0:
                await asyncio.sleep(delay)
            elif req_id % 32 == 0:
                await asyncio.sleep(0)  # behind schedule: let replies in
            req_id += 1
            due[req_id] = at
            _send(transport, spec, client, req_id)
            late.append(client.sent[req_id] - at)
    else:
        next_id = [0]

        def issue() -> None:
            if time.monotonic() >= window_end:
                return
            next_id[0] += 1
            _send(transport, spec, client, next_id[0])
            due[next_id[0]] = client.sent[next_id[0]]

        client.on_commit = issue
        for _ in range(shape.outstanding):
            issue()
        await asyncio.sleep(max(0.0, window_end - time.monotonic()))
        client.on_commit = None
    await asyncio.sleep(max(0.0, window_end - time.monotonic()))
    mark()
    window_ids = [rid for rid, t in due.items() if window_start <= t < window_end]
    deadline = time.monotonic() + DRAIN
    while time.monotonic() < deadline and any(
        rid not in client.committed for rid in window_ids
    ):
        await asyncio.sleep(0.05)
    if restart is not None:
        await restart
    sampling.cancel()
    cluster.sample()

    if not client.committed:
        raise RuntimeError("no request committed")
    seqs = list(client.seqs.values())
    if len(set(seqs)) != len(seqs):
        raise RuntimeError("two committed requests share one sequence number")
    setup = min(client.committed.values()) - cluster.launched
    window_done = {rid: client.committed[rid] for rid in window_ids
                   if rid in client.committed}
    commit_times = sorted(client.committed.values())
    cpu_s = {role: cpu - marks[0].get(role, 0.0)
             for role, cpu in marks[1].items()}
    in_window = sum(1 for t in commit_times if window_start <= t < window_end)
    hwm: dict[str, float] = {}
    for node in cluster.nodes:
        role = ROLE[node.name]
        hwm[role] = max(hwm.get(role, 0.0), node.hwm_mb)
    result = LiveResult(
        setup_s=setup,
        issued=len(window_ids),
        committed=len(window_done),
        latencies=stats.due_time_latencies(due, window_done),
        window_commits=in_window,
        cpu_s=cpu_s,
        hwm_mb=hwm,
        late=late,
        summary={},
        total_commits=len(client.committed),
    )
    if crash_wall is not None:
        result.outage_s = stats.longest_gap(commit_times, crash_wall, window_end)
        result.restarted_at = restart.result()
    return result


async def _restart_p1(cluster: Cluster, transport, at: float) -> float:
    """Start a fresh p1 at ``at``, point the client at it, return when
    it was started."""
    await asyncio.sleep(max(0.0, at - time.monotonic()))
    started = time.monotonic()
    node = await cluster.start_node("p1")
    transport.update_address("p1", *node.address)
    return started
