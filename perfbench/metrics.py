"""Turning one run's measurements into the named metrics it prints.

A run's live phase is several launches (:data:`perfbench.run.LAUNCHES`);
their windows are pooled: latency percentiles over every window request
of every launch, goodput and CPU per commit over the summed windows;
set-up and peak memory (of the largest replica, or of the sim child if
that is larger) as the median launch.

End-to-end metrics (untraced run) are what a user of the system sees;
per-layer metrics (traced run) say which layer moved them.  Per-layer
counts and times are *per sim execution* for the sim layers (they
repeat exactly from run to run) and *per live commit* for the live
layers, over every commit of the launches — warm-up and drain included,
the same span the traced calls cover.  Recovery figures are medians
over the launches.  A layer a workload does not exercise reads 0 (no
crash in live-steady: no state transfer, no suspicions).

Which end-to-end metric each per-layer metric should move:

* ``sim.*``, ``net.sends``/``deliveries``/``self_ms``,
  ``harness.probes.self_ms``: ``sim_ref_cost`` only; the sim counts
  repeat exactly.  ``sim.cpu_ms`` and ``cal.cpu_ms`` are the raw numbers
  behind that ratio.
* ``core.*`` and ``crypto.*`` (per sim execution): ``sim_ref_cost``;
  ``live.core.*`` and ``live.crypto.*`` (per commit): ``goodput_rps`` and
  ``cpu_ms_per_commit`` on live-saturate, barely ``commit_p50_ms`` on
  live-steady.
* ``net.framing.*``, ``live.transport.*``: ``goodput_rps`` on
  live-saturate, possibly ``commit_p50_ms`` on live-steady; never
  ``sim_ref_cost``.
* ``core.requests_per_batch``: fuller batches help ``goodput_rps`` on
  live-saturate and can cost ``commit_p50_ms`` on live-steady.
* ``cpu_ms_per_commit.<role>``: which role moved ``cpu_ms_per_commit``.
* ``client.late_p99_ms``: must stay small for the live latencies to
  count.
* ``live.recovery.*``, ``rejoin_s`` (restart to installed prefix),
  ``outage_s`` (longest commit gap after the crash),
  ``live.heartbeat.suspicions``, ``core.failovers``: live-failover's
  recovery, visible end to end in its ``commit_p50_ms`` and
  ``cpu_ms_per_commit``.
* ``rss_mb.<role>``: ``peak_rss_mb``.
* ``commit_p99_ms`` and ``fail_frac`` are end-to-end figures kept out
  of the gated set: the p99 swings from run to run with the replicas'
  garbage-collection pauses, which grow with their unbounded history,
  and ``fail_frac`` is 0 on a healthy run (the result's ``failed``
  count carries it).
"""

from __future__ import annotations

from perfbench import stats
from perfbench.live import REPLICAS, ROLE, LiveResult
from perfbench.tracing import load_summary

CRYPTO = ("crypto.encode_canonical", "crypto.sign_message",
          "crypto.countersign", "crypto.verify_signed", "crypto.signing_bytes")
SIGNS = ("crypto.sign_message", "crypto.countersign")
REPLICA_ROLES = tuple(ROLE[name] for name in REPLICAS)


def _m(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _latencies(results: list[LiveResult]) -> list[float]:
    return [lat for r in results for lat in r.latencies]


def _cpu_ms_per_commit(results: list[LiveResult], roles) -> float:
    cpu = sum(r.cpu_s.get(role, 0.0) for r in results for role in roles)
    return 1000.0 * cpu / max(sum(r.window_commits for r in results), 1)


def _median_or_zero(values) -> float:
    values = list(values)
    return stats.median(values) if values else 0.0


def end_to_end(sim: dict, results: list[LiveResult], seconds: float) -> dict:
    """``seconds``: the summed measurement windows of the launches."""
    return {
        "setup_s": _m(
            sim["setup_s"] + stats.median(r.setup_s for r in results), "s"
        ),
        "peak_rss_mb": _m(max(
            sim["peak_rss_mb"],
            stats.median(max(r.hwm_mb.values()) for r in results),
        ), "MiB"),
        "sim_ref_cost": _m(sim["sim_ref_cost"], "ratio"),
        "commit_p50_ms": _m(
            1000.0 * stats.percentile(_latencies(results), 0.50), "ms"
        ),
        "goodput_rps": _m(
            sum(r.window_commits for r in results) / seconds, "1/s"
        ),
        "cpu_ms_per_commit": _m(
            _cpu_ms_per_commit(results, REPLICA_ROLES), "ms"
        ),
    }


def _sum(summaries: list[dict], key: str, names: tuple[str, ...]) -> float:
    return sum(s[key].get(n, 0) for s in summaries for n in names)


def _sim_layers(sim: dict) -> dict:
    dumps = [load_summary(path) for path in sim["dumps"]]
    n = sum(d["extra"]["executions"] for d in dumps)

    def calls(*names):
        return _sum(dumps, "calls", names) / n

    def self_ms(*names):
        return _sum(dumps, "self_s", names) * 1000.0 / n

    batches = sum(d["kinds"].get("order_committed", 0) for d in dumps)
    return {
        "sim.events": _m(sim["events"], "count"),
        "sim.kernel_self_ms": _m(self_ms("sim.run"), "ms"),
        "net.sends": _m(calls("net.send", "net.multicast"), "count"),
        "net.deliveries": _m(calls("net.deliver"), "count"),
        "net.self_ms": _m(self_ms("net.send", "net.multicast", "net.deliver"),
                          "ms"),
        "harness.probes.self_ms": _m(self_ms("trace.emit", "probes.consume"),
                                     "ms"),
        "core.handle_calls": _m(calls("core.on_message"), "count"),
        "core.self_ms": _m(self_ms("core.on_message"), "ms"),
        "crypto.sign_calls": _m(calls(*SIGNS), "count"),
        "crypto.encode_calls": _m(calls("crypto.encode_canonical"), "count"),
        "crypto.self_ms": _m(self_ms(*CRYPTO), "ms"),
        "sim.requests_per_batch": _m(
            sum(d["batch_requests"] for d in dumps) / max(batches, 1), "count"
        ),
        "sim.cpu_ms": _m(sim["sim_cpu_ms"], "ms"),
        "cal.cpu_ms": _m(sim["cal_cpu_ms"], "ms"),
        "trace_overhead_frac": _m(
            sim["traced_cost"] / sim["sim_ref_cost"] - 1.0, "ratio"
        ),
        "rss_mb.sim": _m(sim["peak_rss_mb"], "MiB"),
    }


def _recovery(result: LiveResult, replicas: list[dict]) -> dict:
    """One launch's failover figures (empty without a crash)."""
    if result.restarted_at is None:
        return {}
    fetches = [(start, end) for d in replicas for name, start, end in d["walls"]
               if name == "recovery.fetch_and_install"]
    stats_p1 = result.summary.get("recovery", {}).get("p1") or {}
    return {
        "entries": stats_p1.get("entries", 0),
        "bytes": stats_p1.get("bytes", 0),
        "transfer_s": sum(end - start for start, end in fetches),
        "rejoin_s": max((end for _, end in fetches), default=result.restarted_at)
        - result.restarted_at,
        "outage_s": result.outage_s,
        "failovers": max((d["kinds"].get("coordinator_installed", 0)
                          for d in replicas), default=0),
    }


def _p99(latencies: list[float]) -> float:
    if stats.tail_samples(len(latencies), 0.99) < 10:
        raise RuntimeError(
            f"{len(latencies)} commits support no p99 (ten must lie beyond "
            f"it); measure for longer"
        )
    return stats.percentile(latencies, 0.99)


def _live_layers(results: list[LiveResult]) -> dict:
    replicas: list[dict] = []
    everyone: list[dict] = []
    recoveries: list[dict] = []
    for result in results:
        launch = {path.name: load_summary(path) for path in result.dumps}
        launch_replicas = [d for name, d in launch.items()
                           if not name.startswith("client")]
        replicas += launch_replicas
        everyone += launch.values()
        recoveries.append(_recovery(result, launch_replicas))
    per_commit = 1.0 / max(sum(r.total_commits for r in results), 1)
    us = 1e6 * per_commit
    batches = sum(d["kinds"].get("order_committed", 0) for d in replicas)
    late = [t for r in results for t in r.late]

    def recovery(key: str) -> float:
        return _median_or_zero(r[key] for r in recoveries if r)

    metrics = {
        "live.core.handle_calls": _m(
            _sum(replicas, "calls", ("core.on_message",)) * per_commit,
            "count"),
        "live.core.self_us": _m(
            _sum(replicas, "self_s", ("core.on_message",)) * us, "us"),
        "live.crypto.sign_calls": _m(
            _sum(replicas, "calls", SIGNS) * per_commit, "count"),
        "live.crypto.encode_calls": _m(
            _sum(replicas, "calls", ("crypto.encode_canonical",)) * per_commit,
            "count"),
        "live.crypto.self_us": _m(_sum(replicas, "self_s", CRYPTO) * us, "us"),
        "net.framing.write_calls": _m(
            _sum(everyone, "calls", ("framing.write_frame",)), "count"),
        "net.framing.self_us_per_commit": _m(
            _sum(everyone, "self_s",
                 ("framing.write_frame", "framing.read_frame")) * us, "us"),
        "live.transport.sends_per_commit": _m(
            _sum(everyone, "calls", ("transport.send",)) * per_commit,
            "count"),
        "live.transport.frames_per_commit": _m(
            _sum(everyone, "calls", ("framing.write_frame",)) * per_commit,
            "count"),
        "live.transport.bytes_per_commit": _m(
            sum(d["frame_bytes"] for d in everyone) * per_commit, "B"),
        "core.requests_per_batch": _m(
            sum(d["batch_requests"] for d in replicas) / max(batches, 1),
            "count"),
        "client.late_p99_ms": _m(
            1000.0 * stats.percentile(late, 0.99) if late else 0.0, "ms"),
        "fail_frac": _m(stats.fail_frac(
            sum(r.issued for r in results), sum(r.committed for r in results)
        ), "ratio"),
        "commit_p99_ms": _m(1000.0 * _p99(_latencies(results)), "ms"),
        "live.recovery.entries": _m(recovery("entries"), "count"),
        "live.recovery.bytes": _m(recovery("bytes"), "B"),
        "live.recovery.transfer_s": _m(recovery("transfer_s"), "s"),
        "rejoin_s": _m(recovery("rejoin_s"), "s"),
        "outage_s": _m(recovery("outage_s"), "s"),
        "live.heartbeat.suspicions": _m(
            sum(d["suspicions"] for d in replicas) / len(results), "count"),
        "core.failovers": _m(recovery("failovers"), "count"),
    }
    for role in (*REPLICA_ROLES, "client"):
        metrics[f"cpu_ms_per_commit.{role}"] = _m(
            _cpu_ms_per_commit(results, (role,)), "ms")
    for role in REPLICA_ROLES:
        metrics[f"rss_mb.{role}"] = _m(
            max(r.hwm_mb.get(role, 0.0) for r in results), "MiB")
    return metrics


def per_layer(sim: dict, results: list[LiveResult]) -> dict:
    return {**_sim_layers(sim), **_live_layers(results)}
