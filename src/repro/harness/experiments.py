"""Experiment runners: one per paper artefact.

Each point experiment builds a fresh cluster, wires the requested
measurement probes (:mod:`repro.harness.probes`), drives the run and
returns a generic :class:`~repro.harness.probes.ProbeReport` — the
probes' merged metric map, readable by name or attribute.  Paper
mapping:

* :func:`run_order_experiment` / :func:`fig4` — order latency vs
  batching interval, per protocol and crypto scheme (Figure 4 a/b/c);
* :func:`fig5` — throughput vs batching interval (Figure 5 a/b/c);
* :func:`run_failover_experiment` / :func:`fig6` — fail-over latency
  vs BackLog size for SC and SCR (Figure 6);
* :func:`f3_scaling` — the Section 5 text observation that f = 3
  raises steady-state latency and moves the saturation threshold to
  larger batching intervals.

The figure-level sweeps are grids of :class:`~repro.harness.runner.
SweepTask` executed by :mod:`repro.harness.runner` — pass ``jobs=N``
to fan a sweep out over a worker-process pool.

Run from the command line::

    python -m repro fig4 --quick
    python -m repro suite --figures fig4,fig5 --jobs 4 --json-dir out/
    python -m repro compare out/BENCH_fig4.json baselines/BENCH_fig4.json
"""

from __future__ import annotations

import argparse
import sys

import repro.harness.probes as probe_registry
import repro.protocols as protocols
from repro.calibration import CalibrationProfile
from repro.core.messages import Ack, SignedMessage
from repro.errors import ConfigError, ReproError
from repro.failures.faults import WrongDigestFault
from repro.harness.cluster import build_cluster
from repro.harness.metrics import linear_fit
from repro.harness.probes import ProbeContext, ProbeReport, merged_values
from repro.harness.report import render_series, render_table
from repro.harness.runner import (
    SCENARIO,
    PointResult,
    SweepTask,
    default_executor,
    execute,
    f3_grid,
    failover_grid,
    failover_series,
    group_series,
    order_grid,
    order_series,
    print_progress,
)
from repro.harness.telemetry import Stopwatch
from repro.harness.sweeps import (
    BACKLOG_BATCHES,
    F3_INTERVALS,
    F3_PROTOCOLS,
    F3POP_CLIENTS,
    F3POP_DURATION,
    F3POP_RATE,
    FAILOVER_PROTOCOLS,
    ORDER_PROTOCOLS,
    PAPER_INTERVALS,
    PAPER_SCHEME_NAMES,
    QUICK_BACKLOG_BATCHES,
    QUICK_F3_INTERVALS,
    QUICK_F3POP_CLIENTS,
    QUICK_F3POP_DURATION,
    QUICK_INTERVALS,
)
from repro.harness.workload import OpenLoopWorkload, saturating_rate
from repro.net.message import Envelope
from repro.sim.trace import Tracer


#: Probes an order experiment wires when none are selected: the
#: paper's Figure 4/5 measurements.
DEFAULT_ORDER_PROBES = ("order-latency", "throughput")
#: Probes a fail-over experiment wires by default (Figure 6).
DEFAULT_FAILOVER_PROBES = ("failover",)
#: Fewest measured batches for a valid order point.
MIN_ORDER_SAMPLES = 5


def _probe_tracer(selected: tuple[str, ...]) -> Tracer:
    """A tracer retaining only the union of the selected probes'
    declared kinds — the keep-filter is *derived*, so a run holds no
    records no probe wants and new probes never edit the experiments."""
    return Tracer(keep_kinds=probe_registry.kinds_union(selected))


def run_order_experiment(
    protocol: str,
    scheme_name: str,
    batching_interval: float,
    f: int = 2,
    seed: int = 1,
    n_batches: int = 100,
    warmup_batches: int = 15,
    calibration: CalibrationProfile | None = None,
    probes: tuple[str, ...] | None = None,
) -> ProbeReport:
    """Measure one order sweep point through the selected probes.

    The workload saturates batches (the paper's throughput rises as the
    interval shrinks because each interval's 1 KB batch is always
    full), and each point aggregates ``n_batches`` measured batches
    after warm-up — the paper averages 100 experimental results.
    ``probes`` names registered probes (default: the paper's
    latency and throughput measurements).
    """
    plugin = protocols.get(protocol)
    selected = probe_registry.validate_names(
        DEFAULT_ORDER_PROBES if probes is None else probes
    )
    config = plugin.configure(
        scheme=scheme_name, f=f, batching_interval=batching_interval
    )
    cluster = build_cluster(protocol, config=config, calibration=calibration, seed=seed)
    rate = saturating_rate(
        config.batch_size_bytes, config.request_bytes, batching_interval
    )
    duration = (warmup_batches + n_batches + 4) * batching_interval
    # Throughput counts commits inside the arrival window (the paper's
    # per-second commit rate); the drain period only settles latency
    # measurements and would dilute the rate.
    context = ProbeContext(
        protocol=protocol,
        scheme=scheme_name,
        f=f,
        seed=seed,
        batching_interval=batching_interval,
        window_start=warmup_batches * batching_interval,
        window_end=duration,
        warmup_batches=warmup_batches,
        cap=n_batches,
        min_samples=MIN_ORDER_SAMPLES,
        label=f"{protocol}/{scheme_name}@{batching_interval}",
    )
    active = probe_registry.create_all(selected, context)
    # Replace the tracer before start(): actors emit via sim.trace, so
    # the derived keep-filter and the probe subscriptions cover
    # everything the run produces.
    cluster.sim.trace = _probe_tracer(selected)
    for probe in active:
        probe.attach(cluster.sim.trace)
    workload = OpenLoopWorkload(cluster, rate=rate, duration=duration)
    workload.install()
    cluster.start()
    # Allow commits of late batches to drain: saturated runs (the
    # figures' blow-up regions) lag far behind the arrival window.
    drain = max(2.0, 60 * batching_interval)
    cluster.run(until=duration + drain)
    return ProbeReport(
        protocol=protocol,
        scheme=plugin.reported_scheme(scheme_name),
        f=f,
        probes=selected,
        values=merged_values(active),
        series=tuple(s for probe in active for s in probe.series()),
        events_processed=cluster.sim.events_processed,
    )


def run_failover_experiment(
    protocol: str,
    scheme_name: str,
    backlog_batches: int,
    f: int = 2,
    seed: int = 1,
    batching_interval: float = 0.250,
    calibration: CalibrationProfile | None = None,
    probes: tuple[str, ...] | None = None,
) -> ProbeReport:
    """Measure fail-over latency with a controlled BackLog size.

    Acks are held (a transient asynchronous-network delay, which the
    system model permits) so that ``backlog_batches`` ~1 KB batches
    accumulate acked-but-uncommitted; a value-domain fault is then
    injected at the coordinator replica, whose shadow detects it and
    fail-signals.  BackLogs therefore carry ``backlog_batches`` KB of
    uncommitted orders — the paper's 1..5 KB x-axis.
    """
    plugin = protocols.get(protocol)
    if not plugin.supports_failover:
        capable = "/".join(protocols.failover_capable())
        raise ConfigError(f"fail-over experiment applies to {capable} only")
    selected = probe_registry.validate_names(
        DEFAULT_FAILOVER_PROBES if probes is None else probes
    )
    config = plugin.configure(
        scheme=scheme_name, f=f, batching_interval=batching_interval
    )
    cluster = build_cluster(protocol, config=config, calibration=calibration, seed=seed)
    sim = cluster.sim

    rate = saturating_rate(config.batch_size_bytes, config.request_bytes, batching_interval)
    warm = 6 * batching_interval
    hold_at = warm + batching_interval * 0.5
    fault_at = hold_at + (backlog_batches + 0.5) * batching_interval
    duration = fault_at + 4.0
    context = ProbeContext(
        protocol=protocol,
        scheme=scheme_name,
        f=f,
        seed=seed,
        batching_interval=batching_interval,
        window_start=0.0,
        window_end=duration,
        # An incomplete fail-over episode is an experiment failure
        # here (scenarios run the same probe leniently with 0).
        min_samples=1,
        label=f"{protocol}/{scheme_name} backlog={backlog_batches}",
    )
    active = probe_registry.create_all(selected, context)
    sim.trace = _probe_tracer(selected)
    for probe in active:
        probe.attach(sim.trace)
    workload = OpenLoopWorkload(cluster, rate=rate, duration=duration)
    workload.install()

    def is_ack(envelope: Envelope) -> bool:
        return isinstance(envelope.payload, SignedMessage) and isinstance(
            envelope.payload.body, Ack
        )

    sim.schedule_at(hold_at, cluster.network.hold_matching, is_ack)
    # Release the held acks once the fail-over measurement endpoint has
    # passed (releasing at the fail-signal instead would let the ack
    # burst race the BackLog exchange, committing the very orders whose
    # recovery fig. 6 measures).  The network stays reliable: every
    # held ack is still delivered, merely late.  A kind-scoped
    # subscription fires whether or not any probe retains the record.
    sim.trace.subscribe(
        lambda record: cluster.network.release_held(),
        kinds=("failover_complete",),
    )
    coordinator = cluster.process(plugin.initial_coordinator(config))
    cluster.injector.inject(coordinator, WrongDigestFault(active_from=fault_at))
    cluster.start()
    cluster.run(until=duration + 4.0)
    return ProbeReport(
        protocol=protocol,
        scheme=scheme_name,
        f=f,
        probes=selected,
        values=merged_values(active),
        series=tuple(s for probe in active for s in probe.series()),
        events_processed=sim.events_processed,
    )


# ----------------------------------------------------------------------
# Figure-level sweeps (task grids over the runner)
# ----------------------------------------------------------------------
def fig4(
    intervals: tuple[float, ...] = PAPER_INTERVALS,
    schemes: tuple[str, ...] = PAPER_SCHEME_NAMES,
    f: int = 2,
    seed: int = 1,
    n_batches: int = 100,
    jobs: int = 1,
    progress=None,
    probes: tuple[str, ...] | None = None,
) -> dict[str, dict[str, list[tuple[float, float]]]]:
    """Order latency vs batching interval; returns
    ``{scheme: {protocol: [(interval, latency_s), ...]}}``.

    Convenience API for one figure at a time; :func:`fig5` measures
    the *same runs*, so regenerate both through ``python -m repro
    suite`` (or one shared :func:`~repro.harness.runner.order_grid`)
    to pay for the grid once."""
    tasks = order_grid(
        ORDER_PROTOCOLS, schemes, intervals, f=f, seed=seed,
        n_batches=n_batches, probes=probes,
    )
    return order_series(
        execute(tasks, jobs=jobs, progress=progress), value="latency_mean"
    )


def fig5(
    intervals: tuple[float, ...] = PAPER_INTERVALS,
    schemes: tuple[str, ...] = PAPER_SCHEME_NAMES,
    f: int = 2,
    seed: int = 1,
    n_batches: int = 100,
    jobs: int = 1,
    progress=None,
    probes: tuple[str, ...] | None = None,
) -> dict[str, dict[str, list[tuple[float, float]]]]:
    """Throughput vs batching interval; same shape as :func:`fig4`."""
    tasks = order_grid(
        ORDER_PROTOCOLS, schemes, intervals, f=f, seed=seed,
        n_batches=n_batches, probes=probes,
    )
    return order_series(
        execute(tasks, jobs=jobs, progress=progress), value="throughput"
    )


def fig6(
    backlog_batches: tuple[int, ...] = BACKLOG_BATCHES,
    schemes: tuple[str, ...] = PAPER_SCHEME_NAMES,
    f: int = 2,
    seed: int = 1,
    jobs: int = 1,
    progress=None,
) -> dict[str, dict[str, list[tuple[float, float]]]]:
    """Fail-over latency vs BackLog size; returns
    ``{scheme: {protocol: [(backlog_kb, latency_s), ...]}}``."""
    tasks = failover_grid(
        FAILOVER_PROTOCOLS, schemes, backlog_batches, f=f, seed=seed
    )
    return failover_series(execute(tasks, jobs=jobs, progress=progress))


def f3_scaling(
    intervals: tuple[float, ...] = F3_INTERVALS,
    scheme: str = "md5-rsa1024",
    seed: int = 1,
    n_batches: int = 60,
    jobs: int = 1,
    progress=None,
) -> dict[int, dict[str, list[tuple[float, float]]]]:
    """Latency sweeps at f = 2 vs f = 3 (Section 5 text observation)."""
    tasks = f3_grid(
        F3_PROTOCOLS, (scheme,), intervals, seed=seed, n_batches=n_batches
    )
    results = execute(tasks, jobs=jobs, progress=progress)
    grouped = group_series(
        results,
        key=lambda p: (p.task.f, p.task.protocol),
        point=lambda p: (p.task.batching_interval, p.result.latency_mean),
    )
    out: dict[int, dict[str, list[tuple[float, float]]]] = {}
    for (f_val, protocol), series in grouped.items():
        out.setdefault(f_val, {})[protocol] = series
    return out


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
FIGURES = ("fig4", "fig5", "fig6", "f3", "f3pop")
#: Figures the suite runs (and gates) by default.  ``f3pop`` is
#: opt-in: its points are population scenarios with their own probe
#: set, and its baseline history starts from the dedicated CI step
#: rather than the committed paper baselines.
SUITE_FIGURES = ("fig4", "fig5", "fig6", "f3")


#: Metrics each figure's tables/series read.  A ``--probes``
#: selection must measure them, or the sweep would only fail at
#: render time — after every point has already run.
FIGURE_METRICS = {
    "fig4": ("latency_mean",),
    "fig5": ("throughput",),
    "fig6": ("failover_latency", "observed_backlog_bytes"),
    "f3": ("latency_mean",),
}

#: Probes fixed on every f3pop point's ScenarioSpec.
F3POP_PROBES = ("client-fairness", "queue-depth", "crypto-cost")


def f3pop_spec(clients: int, seed: int = 1, quick: bool = False):
    """One population-scaling point: fixed aggregate rate, Zipf ids."""
    from repro.harness.population import PopulationSpec
    from repro.harness.scenario import ScenarioSpec, WorkloadSpec

    return ScenarioSpec(
        name=f"f3pop-c{clients}",
        protocol="sc",
        seed=seed,
        duration=QUICK_F3POP_DURATION if quick else F3POP_DURATION,
        drain=2.0,
        workload=WorkloadSpec(rate=F3POP_RATE),
        population=PopulationSpec(clients=clients, id_distribution="zipf"),
        probes=F3POP_PROBES,
        description=(
            f"population scaling at {F3POP_RATE:g} req/s aggregate over "
            f"{clients:,} Zipf-sampled clients"
        ),
    )


def f3pop_grid(clients_list, seed: int = 1, quick: bool = False) -> list[SweepTask]:
    """The f3pop sweep: one scenario task per population size.

    Every point offers the *same* fixed aggregate rate; only
    ``population.clients`` varies — so identical event counts across
    the sweep are themselves the O(events) claim, and wall-time parity
    is the measured proof.
    """
    return [
        SweepTask(
            kind=SCENARIO,
            protocol=spec.protocol,
            scheme=spec.scheme,
            f=spec.f,
            seed=seed,
            calibration=spec.net.calibration,
            scenario=spec,
        )
        for spec in (f3pop_spec(c, seed=seed, quick=quick) for c in clients_list)
    ]


def _require_figure_metrics(figure: str, probes: tuple[str, ...]) -> None:
    """Fail fast when a probe selection cannot feed a figure."""
    provided = {
        metric
        for name in probes
        for metric in probe_registry.get(name).provides
    }
    missing = sorted(set(FIGURE_METRICS[figure]) - provided)
    if missing:
        raise ConfigError(
            f"--probes {','.join(probes)} does not measure {missing}, "
            f"which {figure} renders; `repro probes` shows what each "
            f"probe provides"
        )


def _figure_tasks(figure: str, quick: bool, seed: int, probes=None):
    """The task grid one figure regenerates (quick or full shape).

    ``probes`` overrides every point's probe selection (``None`` keeps
    each experiment's paper defaults)."""
    if figure == "f3pop":
        # f3pop points are scenarios: probe selection lives on the
        # ScenarioSpec, not the task.
        if probes is not None:
            raise ConfigError(
                "f3pop points are scenarios with a fixed probe set "
                f"({', '.join(F3POP_PROBES)}); --probes does not apply"
            )
        return f3pop_grid(
            QUICK_F3POP_CLIENTS if quick else F3POP_CLIENTS,
            seed=seed, quick=quick,
        )
    if figure in FIGURES and probes is not None:
        _require_figure_metrics(figure, probes)
    if figure in ("fig4", "fig5"):
        return order_grid(
            ORDER_PROTOCOLS,
            ("md5-rsa1024",) if quick else PAPER_SCHEME_NAMES,
            QUICK_INTERVALS if quick else PAPER_INTERVALS,
            seed=seed,
            n_batches=30 if quick else 100,
            probes=probes,
        )
    if figure == "fig6":
        return failover_grid(
            FAILOVER_PROTOCOLS,
            ("md5-rsa1024",) if quick else PAPER_SCHEME_NAMES,
            QUICK_BACKLOG_BATCHES if quick else BACKLOG_BATCHES,
            seed=seed,
            probes=probes,
        )
    if figure == "f3":
        return f3_grid(
            F3_PROTOCOLS,
            ("md5-rsa1024",),
            QUICK_F3_INTERVALS if quick else F3_INTERVALS,
            seed=seed,
            n_batches=20 if quick else 60,
            probes=probes,
        )
    raise ConfigError(f"unknown figure {figure!r}; known: {FIGURES}")


def _parse_probes(arg: str | None) -> tuple[str, ...] | None:
    """``--probes a,b`` to validated names (``None`` = defaults)."""
    if arg is None:
        return None
    selected = tuple(name.strip() for name in arg.split(",") if name.strip())
    if not selected:
        raise ConfigError("--probes names no probes")
    return probe_registry.validate_names(selected)


def _executor_options(args, executor: str) -> dict:
    """Backend construction options from CLI flags (sockets only)."""
    options: dict = {}
    bind = getattr(args, "bind", None)
    if bind is not None:
        host, _, port = bind.rpartition(":")
        if not host or not port.isdigit():
            raise ConfigError(f"--bind wants HOST:PORT, got {bind!r}")
        options["bind"] = host
        options["port"] = int(port)
    spawn = getattr(args, "spawn", None)
    if spawn is not None:
        if spawn < 0:
            raise ConfigError("--spawn must be >= 0")
        options["spawn"] = spawn
    auth_key = getattr(args, "auth_key", None)
    if auth_key is not None:
        options["auth_key"] = auth_key
    if options and executor != "sockets":
        raise ConfigError(
            "--bind/--spawn/--auth-key configure the sockets coordinator; "
            "pass --executor sockets"
        )
    return options


def _render_figure(figure: str, results: list[PointResult]) -> None:
    """Print one figure's tables (and plot) from executed results."""
    if figure == "fig4":
        from repro.harness.plots import ascii_plot

        for scheme, per_protocol in order_series(results, "latency_mean").items():
            ms_series = {
                p: [(x, y * 1e3) for x, y in s] for p, s in per_protocol.items()
            }
            print(render_series(
                f"Figure 4 — order latency vs batching interval [{scheme}]",
                "interval (s)", "latency (ms)",
                ms_series,
            ))
            print()
            print(ascii_plot(
                f"Figure 4 [{scheme}] (log y, as in the paper)",
                ms_series, log_y=True,
                xlabel="batching interval (s)", ylabel="latency (ms)",
            ))
    elif figure == "fig5":
        for scheme, per_protocol in order_series(results, "throughput").items():
            print(render_series(
                f"Figure 5 — throughput vs batching interval [{scheme}]",
                "interval (s)", "committed req/s/process",
                per_protocol,
            ))
    elif figure == "fig6":
        for scheme, per_protocol in failover_series(results).items():
            print(render_series(
                f"Figure 6 — fail-over latency vs BackLog size [{scheme}]",
                "backlog (KB)", "fail-over latency (ms)",
                {p: [(x, y * 1e3) for x, y in s] for p, s in per_protocol.items()},
            ))
            for protocol, series in per_protocol.items():
                xs = [x for x, _ in series]
                ys = [y for _, y in series]
                slope, intercept, r2 = linear_fit(xs, ys)
                print(f"  {protocol}: latency ≈ {slope*1e3:.2f} ms/KB × size "
                      f"+ {intercept*1e3:.2f} ms  (r² = {r2:.3f})")
    elif figure == "f3pop":
        rows = []
        for p in sorted(results, key=lambda p: p.task.x):
            m = p.result.metrics()
            rows.append((
                f"{int(p.task.x):,}",
                str(p.result.requests_issued),
                str(p.result.requests_committed),
                f"{p.result.latency_mean * 1e3:.1f}",
                f"{m.get('client-fairness.fairness_jain', 0.0):.3f}",
                f"{m.get('queue-depth.queue_depth_p95', 0.0):.0f}",
                f"{p.result.events_processed:,}",
                f"{p.wall_time:.2f}",
            ))
        print(render_table(
            "f3pop — population scaling at fixed aggregate rate "
            "(cost is O(events): the events column must not grow with "
            "clients)",
            ("clients", "issued", "committed", "latency (ms)",
             "fairness", "queue p95", "events", "wall (s)"),
            rows,
        ))
    else:
        grouped = group_series(
            results,
            key=lambda p: (p.task.f, p.task.protocol),
            point=lambda p: (p.task.batching_interval, p.result.latency_mean),
        )
        rows = []
        for (f_val, protocol), series in grouped.items():
            for interval, latency in series:
                rows.append((f_val, protocol, f"{interval*1e3:.0f}",
                             f"{latency*1e3:.1f}"))
        print(render_table(
            "f = 2 vs f = 3 — steady-state latency (ms)",
            ("f", "protocol", "interval (ms)", "latency (ms)"),
            rows,
        ))


def _sweep_params(args, figure: str, executor: str) -> dict:
    params = {
        "figure": figure,
        "quick": bool(args.quick),
        "seed": args.seed,
        "jobs": args.jobs,
        "executor": executor,
    }
    if getattr(args, "probes", None):
        params["probes"] = list(_parse_probes(args.probes))
    return params


def _cmd_figure(figure: str, args) -> int:
    from repro.harness.artifact import from_results, write_artifact

    tasks = _figure_tasks(figure, args.quick, args.seed,
                          probes=_parse_probes(args.probes))
    executor = args.executor or default_executor(args.jobs, len(tasks))
    watch = Stopwatch()
    results = execute(
        tasks, jobs=args.jobs,
        progress=print_progress if args.progress else None,
        executor=executor,
        checkpoint=args.resume,
        executor_options=_executor_options(args, executor),
    )
    wall = watch.elapsed
    if args.json_dir:
        params = _sweep_params(args, figure, executor)
        if figure == "f3pop":
            # Every point records its seeded arrival-stream fingerprint:
            # a loopback `repro load --population` run with the same
            # seed must reproduce these digests bit for bit.
            params["stream_digests"] = {
                p.task.point_id: p.result.stream_digest for p in results
            }
        artifact = from_results(figure, results, params=params, wall_time_s=wall)
        path = write_artifact(artifact, args.json_dir)
        print(f"wrote {path}", file=sys.stderr)
    _render_figure(figure, results)
    return 0


def _cmd_suite(args) -> int:
    from repro.harness.artifact import (
        artifact_path,
        from_results,
        load_artifact,
        write_artifact,
    )
    from repro.harness.baseline import compare

    figures = [name.strip() for name in args.figures.split(",") if name.strip()]
    unknown = [name for name in figures if name not in FIGURES]
    if unknown:
        raise ConfigError(f"unknown figures {unknown}; known: {FIGURES}")

    probes = _parse_probes(args.probes)
    grids = {
        figure: _figure_tasks(figure, args.quick, args.seed, probes=probes)
        for figure in figures
    }
    # Figures sharing identical sweep points (fig4/fig5 measure the
    # same runs) execute each unique task once; tasks are values, so
    # deduplication is plain hashing.
    unique: list = []
    seen: set = set()
    for figure in figures:
        for task in grids[figure]:
            if task not in seen:
                seen.add(task)
                unique.append(task)
    requested = sum(len(grid) for grid in grids.values())
    print(
        f"suite: {', '.join(figures)} — {requested} points requested, "
        f"{len(unique)} unique, jobs={args.jobs}",
        file=sys.stderr,
    )
    watch = Stopwatch()
    # A prior run's artifacts are a perfect cost oracle (deterministic
    # per-point event counts): dispatch the expensive points first so
    # the slowest task never straggles at the tail of the sweep.
    from repro.harness.exec import load_cost_hints

    executor = args.executor or default_executor(args.jobs, len(unique))
    results = execute(
        unique, jobs=args.jobs,
        progress=None if args.no_progress else print_progress,
        executor=executor,
        checkpoint=args.resume,
        cost_hints=load_cost_hints(args.baseline_dir),
        executor_options=_executor_options(args, executor),
    )
    wall = watch.elapsed
    by_task = dict(zip(unique, results))

    rows = []
    artifacts = {}
    for figure in figures:
        figure_results = [by_task[task] for task in grids[figure]]
        artifact = from_results(
            figure, figure_results, params=_sweep_params(args, figure, executor)
        )
        path = write_artifact(artifact, args.json_dir)
        artifacts[figure] = artifact
        rows.append((figure, len(figure_results),
                     f"{artifact.wall_time_s:.1f}",
                     f"{artifact.events_per_second:,.0f}", str(path)))
    # Unique runs only: figures sharing points (fig4/fig5) would
    # double-count their events in the suite-level rate.
    total_events = sum(r.events_processed for r in results)
    print(render_table(
        f"Benchmark suite — {len(unique)} runs in {wall:.1f}s wall "
        f"({total_events / wall:,.0f} events/s)",
        ("figure", "points", "cpu time (s)", "events/s", "artifact"),
        rows,
    ))

    exit_code = 0
    if args.baseline_dir:
        for figure in figures:
            base_path = artifact_path(args.baseline_dir, figure)
            report = compare(
                artifacts[figure], load_artifact(base_path),
                tolerance_pct=args.tolerance,
            )
            print()
            print(report.render())
            if not report.ok:
                exit_code = 1
    return exit_code


def _cmd_compare(args) -> int:
    if args.live:
        from repro.live.validate import compare_live

        return compare_live(args.current, args.baseline)
    if args.baseline is None:
        raise ConfigError(
            "compare needs a baseline artifact (only --live may omit it, "
            "by simulating the counterpart on the fly)"
        )
    from repro.harness.baseline import main as baseline_main

    return baseline_main(
        [args.current, args.baseline, "--tolerance", str(args.tolerance)]
    )


def _cmd_probes(args) -> int:
    """List registered probes, or describe one in detail."""
    if args.name:
        cls = probe_registry.get(args.name)
        directions = dict(cls.directions)
        print(f"{cls.name} — {cls.description}")
        print(f"  consumes : {', '.join(sorted(cls.kinds))}")
        print("  metrics  :")
        for metric in cls.provides:
            gate = directions.get(metric)
            note = f"gated ({gate} is better)" if gate else "informational"
            print(f"    {metric:<24} {note}")
        return 0
    rows = [
        (
            cls.name,
            ", ".join(cls.provides),
            ", ".join(sorted(cls.kinds)),
            cls.description,
        )
        for cls in probe_registry.all_probes()
    ]
    print(render_table(
        "Registered measurement probes (repro.harness.probes)",
        ("name", "metrics", "trace kinds", "description"),
        rows,
    ))
    return 0


def _cmd_protocols(args) -> int:
    rows = [
        (
            plugin.name,
            f"{plugin.n(args.f)} (f={args.f})",
            "yes" if plugin.uses_pairs else "no",
            "yes" if plugin.supports_failover else "no",
            plugin.description,
        )
        for plugin in protocols.all_protocols()
    ]
    print(render_table(
        "Registered protocol plugins (repro.protocols)",
        ("name", "n(f)", "pairs", "failover", "description"),
        rows,
    ))
    return 0


def _add_sweep_options(parser, json_dir_default=None) -> None:
    from repro.harness import exec as exec_backends

    parser.add_argument("--quick", action="store_true", help="fewer points/batches")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (1 = serial, in-process)")
    parser.add_argument("--executor", default=None,
                        choices=exec_backends.names(),
                        help="execution backend (default: serial for "
                             "--jobs 1, pool otherwise)")
    parser.add_argument("--resume", default=None, metavar="JOURNAL",
                        help="checkpoint journal: finished points are "
                             "appended here as they complete, and points "
                             "already journaled are not re-run")
    parser.add_argument("--probes", default=None, metavar="P1,P2",
                        help="probe selection for every point (default: "
                             "each experiment's paper probes; see "
                             "`repro probes`)")
    parser.add_argument("--bind", default=None, metavar="HOST:PORT",
                        help="sockets executor: listen on this interface "
                             "so workers can join from other hosts")
    parser.add_argument("--spawn", type=int, default=None, metavar="N",
                        help="sockets executor: local workers to spawn "
                             "(0 = wait for external workers only)")
    parser.add_argument("--auth-key", default=None,
                        help="sockets executor: pre-shared handshake key "
                             "(or $REPRO_AUTH_KEY); required with a "
                             "non-loopback --bind")
    parser.add_argument("--json-dir", default=json_dir_default,
                        help="write BENCH_<figure>.json artifacts here")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="Reproduce the paper's figures"
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    for figure in FIGURES:
        figure_parser = sub.add_parser(figure, help=f"regenerate {figure}")
        _add_sweep_options(figure_parser)
        figure_parser.add_argument("--progress", action="store_true",
                                   help="per-point progress on stderr")

    suite = sub.add_parser(
        "suite", help="run figure sweeps and emit BENCH_*.json artifacts"
    )
    _add_sweep_options(suite, json_dir_default="out")
    suite.add_argument("--figures", default=",".join(SUITE_FIGURES),
                       help="comma-separated subset (default: "
                            f"{','.join(SUITE_FIGURES)}; f3pop is opt-in)")
    suite.add_argument("--no-progress", action="store_true",
                       help="suppress per-point progress lines")
    from repro.harness.baseline import DEFAULT_TOLERANCE_PCT

    suite.add_argument("--baseline-dir", default=None,
                       help="compare artifacts against BENCH_*.json here; "
                            "exit 1 on regression")
    suite.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE_PCT,
                       help="regression tolerance, percent (default %(default)s)")

    compare_parser = sub.add_parser(
        "compare", help="diff a BENCH_*.json artifact against a baseline"
    )
    compare_parser.add_argument("current")
    compare_parser.add_argument("baseline", nargs="?", default=None)
    compare_parser.add_argument("--tolerance", type=float,
                                default=DEFAULT_TOLERANCE_PCT,
                                help="allowed worsening, percent")
    compare_parser.add_argument("--live", action="store_true",
                                help="current is a BENCH_live_*.json from "
                                     "`repro serve`: render live-vs-simulated "
                                     "curves (baseline optional — omitted, the "
                                     "simulated counterpart runs on the fly)")

    from repro.harness.scenario import add_scenario_arguments

    scenario_parser = sub.add_parser(
        "scenario", help="run a declarative scenario (builtin or spec file)"
    )
    add_scenario_arguments(scenario_parser)

    protocols_parser = sub.add_parser(
        "protocols", help="list registered protocol plugins"
    )
    protocols_parser.add_argument("--f", type=int, default=2,
                                  help="fault tolerance shown in the n(f) column")

    probes_parser = sub.add_parser(
        "probes", help="list registered measurement probes"
    )
    probes_parser.add_argument("name", nargs="?", default=None,
                               help="describe one probe in detail")

    worker_parser = sub.add_parser(
        "worker", help="run sweep tasks streamed from a sockets-executor "
                       "coordinator (spawned automatically for local "
                       "sweeps; start by hand on extra hosts)"
    )
    worker_parser.add_argument("--connect", required=True, metavar="HOST:PORT",
                               help="coordinator address")
    worker_parser.add_argument("--auth-key", default=None,
                               help="pre-shared handshake key (or "
                                    "$REPRO_AUTH_KEY)")

    from repro.live.client import add_load_arguments
    from repro.live.cluster import add_serve_arguments

    serve_parser = sub.add_parser(
        "serve", help="run (or join) a live replica cluster over TCP/asyncio"
    )
    add_serve_arguments(serve_parser)

    load_parser = sub.add_parser(
        "load", help="drive a live cluster with an open-loop request stream"
    )
    add_load_arguments(load_parser)

    from repro.harness.perf import add_perf_arguments

    perf_parser = sub.add_parser(
        "perf", help="time the hot-path reference point (wall-time telemetry)"
    )
    add_perf_arguments(perf_parser)

    from repro.analysis.cli import add_lint_arguments

    lint_parser = sub.add_parser(
        "lint", help="statically check the determinism/safety invariants "
                     "(RPR001-RPR005)"
    )
    add_lint_arguments(lint_parser)

    args = parser.parse_args(argv)
    try:
        if args.command == "suite":
            return _cmd_suite(args)
        if args.command == "compare":
            return _cmd_compare(args)
        if args.command == "scenario":
            from repro.harness.scenario import cmd_scenario

            return cmd_scenario(args)
        if args.command == "protocols":
            return _cmd_protocols(args)
        if args.command == "probes":
            return _cmd_probes(args)
        if args.command == "perf":
            from repro.harness.perf import cmd_perf

            return cmd_perf(args)
        if args.command == "worker":
            from repro.harness.exec.sockets import main as worker_main

            worker_argv = ["--connect", args.connect]
            if args.auth_key:
                worker_argv += ["--auth-key", args.auth_key]
            return worker_main(worker_argv)
        if args.command == "serve":
            from repro.live.cluster import cmd_serve

            return cmd_serve(args)
        if args.command == "load":
            from repro.live.client import cmd_load

            return cmd_load(args)
        if args.command == "lint":
            from repro.analysis.cli import cmd_lint

            return cmd_lint(args)
        return _cmd_figure(args.command, args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
