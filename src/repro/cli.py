"""Command-line interface for the reproduction experiments.

Provides a small ``repro-experiments`` tool (also runnable as
``python -m repro.cli``) that regenerates the paper's artefacts from the
terminal without going through pytest:

* ``table1``     — reproduce Table I;
* ``fig4a``      — print the Fig 4(a) operating-point series;
* ``fig4b``      — print the Fig 4(b) accuracy table;
* ``case-study`` — run the Section IV budget queries;
* ``scenario``   — replay a runtime scenario under a chosen manager and print
  the phase timeline and comparison tables;
* ``scenarios``  — list the registered named scenarios;
* ``managers``   — list the registered runtime managers;
* ``platforms``  — list the platform presets with their cluster topology;
* ``faults``     — list the fault-event vocabulary and the chaos scenarios;
* ``run``        — execute experiment spec files (TOML/JSON) through a
  chosen execution backend (``--backend serial|process|batched``); with
  ``--faults PLAN`` overlay a fault plan on every spec;
* ``fleet``      — orchestrate many-device fleets: ``run`` fleet spec files
  (or one flag-built fleet), ``sweep`` placement policies on one fleet
  scenario, ``bench`` a 1000-device fleet against the static baseline
  (``BENCH_fleet.json``), and list the ``policies`` / ``scenarios``;
* ``sweep``      — run a (scenario, manager, seed) grid through a chosen
  execution backend and print per-case and aggregate statistics;
* ``bench``      — time decide()-per-epoch and end-to-end simulation across
  scenarios x managers, write/refresh ``BENCH_decision_kernel.json`` and
  optionally gate against a committed baseline; with ``--backend batched``
  time the lock-step batched engine against the serial backend instead
  and write/refresh ``BENCH_batched_engine.json``;
* ``store``      — inspect the persistent results warehouse (``ls``,
  ``show``, ``export``, ``gc``, ``diff``).

``trace`` additionally offers ``stats`` to summarise a recorded JSONL trace
(arrival counts, per-kind histogram, inter-arrival percentiles) in one
streaming pass — optionally under a ``--max-peak-mb`` tracemalloc assertion —
and ``generate`` to write a multi-hour diurnal traffic trace straight to
disk through the streaming writer without building a scenario in memory.

``run``, ``sweep`` and ``bench`` accept ``--store PATH`` to stream results
into a persistent :class:`~repro.store.ResultsStore` as they finish, and
``--resume`` to skip spec_ids (bench: per-case timings) the store already
holds — a killed sweep re-invoked with the same flags completes exactly the
missing work.  ``run`` and ``sweep`` also take ``--retries``/
``--retry-backoff`` (re-run failed specs) and ``--spec-timeout`` (process
backend: abandon the batch when no spec completes in time); failures are
recorded in the store's ``errors`` table and shown by ``store ls``.

The ``scenario``, ``sweep`` and ``bench`` commands are thin front-ends over
:mod:`repro.experiments`: they assemble :class:`ExperimentSpec` objects and
hand them to the spec runner.  Pass ``--dump-spec FILE`` (or ``-`` for
stdout) to export the specs a command would run instead of running them; the
resulting file replays bit-identically via ``repro-experiments run FILE``.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence

from repro.analysis import (
    BENCH_KIND_DECISION,
    DEFAULT_BATCHED_BENCH_PATH,
    DEFAULT_BENCH_PATH,
    adaptation_events,
    application_timeline,
    compare_batched_bench,
    compare_bench,
    format_operating_points,
    format_table,
    format_trace_comparison,
    load_bench_file,
    run_batched_bench,
    run_bench_specs,
    write_batched_bench_file,
    write_bench_file,
)
from repro.data.cifar import make_validation_set
from repro.data.measurements import CASE_STUDY_BUDGETS, TABLE1_ROWS
from repro.dnn import IncrementalTrainer, make_dynamic_cifar_dnn
from repro.dnn.zoo import cifar_group_cnn
from repro.experiments import (
    EXECUTION_BACKEND_REGISTRY,
    MANAGER_REGISTRY,
    ExperimentSpec,
    SpecError,
    build_manager_from_spec,
    build_scenario_from_spec,
    build_simulator_config,
    dump_specs,
    grid_specs,
    load_specs,
    run_many,
    specs_to_toml,
)
from repro.fleet import (
    BENCH_KIND_FLEET,
    DEFAULT_FLEET_BENCH_PATH,
    FLEET_BACKENDS,
    FLEET_POLICY_REGISTRY,
    FleetSpec,
    FleetSpecError,
    compare_fleet_bench,
    fleet_scenario_summaries,
    load_fleet_specs,
    run_fleet,
    run_fleet_bench,
    write_fleet_bench_file,
)
from repro.perfmodel import CalibratedLatencyModel, EnergyModel
from repro.platforms import (
    PLATFORM_REGISTRY,
    build_preset,
    jetson_nano,
    odroid_xu3,
    preset_summaries,
)
from repro.registry import Registry, find_duplicates
from repro.rtm import (
    MinEnergyUnderConstraints,
    OperatingPointSpace,
    RuntimeManager,
    make_policy,
)
from repro.sim.engine import simulate_scenario
from repro.store import ResultsStore, StoredResult
from repro.workloads import (
    COMPOSE_OPS,
    SCENARIO_REGISTRY,
    ArrivalTrace,
    DiurnalConfig,
    Requirements,
    TraceFormatError,
    build_scenario,
    compute_trace_stats,
    config_for_arrivals,
    scenario_is_seeded,
    scenario_summaries,
    write_diurnal_trace,
)

__all__ = ["main", "build_parser", "resolve_managers", "resolve_scenarios"]


def _energy_model() -> EnergyModel:
    return EnergyModel(CalibratedLatencyModel())


def _trained_dnn():
    return IncrementalTrainer().train(make_dynamic_cifar_dnn())


# ------------------------------------------------------------- name resolving


def _resolve_names(label: str, names: Sequence[str], registry: Registry) -> bool:
    """Validate registry names from the command line.

    Prints unknown names (with did-you-mean suggestions) and duplicates to
    stderr; returns True when every name resolves exactly once.
    """
    unknown = [name for name in names if name not in registry]
    if unknown:
        print(
            f"unknown {label}s {unknown}; available: {sorted(registry)}",
            file=sys.stderr,
        )
        for name in unknown:
            suggestions = registry.suggest(name)
            if suggestions:
                print(
                    f"  did you mean {', '.join(repr(s) for s in suggestions)} "
                    f"instead of {name!r}?",
                    file=sys.stderr,
                )
        return False
    duplicates = find_duplicates(names)
    if duplicates:
        print(f"duplicate {label} names: {duplicates}", file=sys.stderr)
        return False
    return True


def resolve_managers(names: Sequence[str]) -> bool:
    """Validate manager names against the unified registry (see above)."""
    return _resolve_names("manager", names, MANAGER_REGISTRY)


def resolve_scenarios(names: Sequence[str]) -> bool:
    """Validate scenario names against the unified registry (see above)."""
    return _resolve_names("scenario", names, SCENARIO_REGISTRY)


def _resolve_platform(name: str) -> bool:
    """Validate one platform preset name, with suggestions on a near-miss."""
    if name in PLATFORM_REGISTRY:
        return True
    print(PLATFORM_REGISTRY.describe_unknown(name), file=sys.stderr)
    return False


def _backend_workers_conflict(args: argparse.Namespace) -> bool:
    """True (after printing the error) when --backend rejects --workers.

    Single-process backends raise on ``workers > 1`` deep inside
    ``run_many``; catching the combination here turns that into a usage
    error with the fix spelled out.
    """
    if args.backend is None or args.workers == 1:
        return False
    if EXECUTION_BACKEND_REGISTRY.entry(args.backend).metadata.get("parallel"):
        return False
    print(
        f"backend {args.backend!r} is single-process and ignores worker pools; "
        "drop --workers or use --backend process",
        file=sys.stderr,
    )
    return True


def _dump_specs_and_exit(specs: List[ExperimentSpec], destination: str) -> int:
    """Write the specs a command would run to a file (or stdout for ``-``)."""
    if destination == "-":
        sys.stdout.write(specs_to_toml(specs))
    else:
        dump_specs(specs, destination)
        plural = "experiment" if len(specs) == 1 else "experiments"
        print(f"wrote {len(specs)} {plural} to {destination}")
        print(f"replay with: repro-experiments run {destination}")
    return 0


# ------------------------------------------------------------------ commands


def cmd_table1(args: argparse.Namespace) -> int:
    """Reproduce Table I and print paper vs model for every row."""
    energy_model = _energy_model()
    network = cifar_group_cnn()
    socs = {"odroid_xu3": odroid_xu3(), "jetson_nano": jetson_nano()}
    rows = []
    for row in TABLE1_ROWS:
        cluster = socs[row.platform].cluster(row.cluster)
        frequency = (
            row.frequency_mhz
            if cluster.opp_table.contains_frequency(row.frequency_mhz)
            else cluster.opp_table.nearest(row.frequency_mhz).frequency_mhz
        )
        cost = energy_model.cost(
            network, cluster, frequency_mhz=frequency, cores_used=1, soc_name=row.platform
        )
        rows.append(
            [
                row.platform,
                row.cores,
                row.execution_time_ms,
                round(cost.latency_ms, 1),
                row.power_mw,
                round(cost.power_mw),
                row.energy_mj,
                round(cost.energy_mj, 1),
            ]
        )
    headers = ["platform", "cores", "t paper", "t model", "P paper", "P model", "E paper", "E model"]
    print(format_table(headers, rows, precision=1))
    return 0


def cmd_fig4a(args: argparse.Namespace) -> int:
    """Print the Fig 4(a) operating-point sweep (optionally only the Pareto front)."""
    from repro.rtm import pareto_front

    trained = _trained_dnn()
    space = OperatingPointSpace(trained, odroid_xu3(), _energy_model())
    points = space.fig4a_points()
    if args.pareto:
        points = pareto_front(points)
        print(f"Pareto-optimal operating points ({len(points)}):")
    else:
        print(f"Fig 4(a) operating points ({len(points)}):")
    points = sorted(points, key=lambda p: (p.cluster_name, p.configuration, p.frequency_mhz))
    print(format_operating_points(points, limit=args.limit))
    return 0


def cmd_fig4b(args: argparse.Namespace) -> int:
    """Print the Fig 4(b) accuracy table with per-class spread."""
    trained = _trained_dnn()
    dataset = make_validation_set()
    rows = []
    for fraction in trained.configurations:
        per_class = trained.accuracy_model.per_class(fraction, dataset)
        rows.append(
            [f"{round(fraction * 100)}%", round(per_class.mean_top1, 1), round(per_class.stddev, 1)]
        )
    print(format_table(["configuration", "top-1 (%)", "class stddev (pp)"], rows, precision=1))
    return 0


def cmd_case_study(args: argparse.Namespace) -> int:
    """Run the Section IV budget queries (or a custom budget)."""
    if not _resolve_platform(args.platform):
        return 2
    trained = _trained_dnn()
    platform = build_preset(args.platform)
    manager = RuntimeManager(policy=make_policy(args.policy))
    budgets = list(CASE_STUDY_BUDGETS)
    if args.latency_ms is not None and args.energy_mj is not None:
        budgets = [(args.latency_ms, args.energy_mj)]
    for latency_ms, energy_mj in budgets:
        point = manager.select_operating_point(
            trained,
            platform,
            Requirements(max_latency_ms=latency_ms, max_energy_mj=energy_mj),
            clusters=args.clusters,
            core_counts=[1],
        )
        print(f"budget ({latency_ms:.0f} ms, {energy_mj:.0f} mJ) -> {point.describe()}")
    return 0


def _scenario_specs(args: argparse.Namespace) -> List[ExperimentSpec]:
    """The spec set the ``scenario`` command replays."""
    specs = [
        ExperimentSpec(
            name="rtm",
            scenario=args.name,
            manager="rtm",
            platform=args.platform,
            seed=args.seed,
            policy_overrides={"dnn2": MinEnergyUnderConstraints.name},
        )
    ]
    if args.baselines:
        for manager in ("governor_only", "static_deployment"):
            specs.append(
                ExperimentSpec(
                    name=manager,
                    scenario=args.name,
                    manager=manager,
                    platform=args.platform,
                    seed=args.seed,
                )
            )
    return specs


def cmd_scenario(args: argparse.Namespace) -> int:
    """Replay a scenario under the RTM and (optionally) the baselines."""
    if not resolve_scenarios([args.name]) or not _resolve_platform(args.platform):
        return 2
    specs = _scenario_specs(args)
    if args.dump_spec is not None:
        return _dump_specs_and_exit(specs, args.dump_spec)

    batch = run_many(specs)
    if batch.errors:
        for name, message in batch.errors.items():
            print(f"{name}: {message}", file=sys.stderr)
        return 1
    print(format_trace_comparison(batch.traces))

    rtm_trace = batch.traces["rtm"]
    scenario = build_scenario_from_spec(specs[0])
    for app in scenario.dnn_applications:
        print(f"\nTimeline of {app.app_id} under the RTM:")
        for phase in application_timeline(rtm_trace, app.app_id, scenario=scenario):
            clusters = "/".join(phase.clusters) if phase.clusters else "-"
            print(
                f"  {phase.label:<18} jobs={phase.jobs:<4} width={phase.mean_configuration:4.2f} "
                f"on {clusters:<12} t={phase.mean_latency_ms:7.1f} ms "
                f"viol={phase.violation_rate:5.2f}"
            )
    if args.events:
        print("\nAdaptation events:")
        for event in adaptation_events(rtm_trace):
            print(f"  {event}")
    return 0


def cmd_scenarios_list(args: argparse.Namespace) -> int:
    """List the registered named scenarios with their one-line descriptions."""
    summaries = scenario_summaries()
    width = max(len(name) for name in summaries)
    print(f"{len(summaries)} registered scenarios (* = varies with --seed):")
    for name, summary in summaries.items():
        marker = "*" if scenario_is_seeded(name) else " "
        print(f"  {name:<{width}} {marker} {summary}")
    return 0


def _print_scenario_overview(scenario) -> None:
    """Application/event overview shared by ``scenarios compose`` and ``trace``."""
    print(
        f"{scenario.name}: {len(scenario.applications)} applications, "
        f"{len(scenario.events())} events, {scenario.duration_ms / 1000.0:g} s on "
        f"{scenario.platform_name}"
    )
    rows = [
        [
            app.app_id,
            app.kind.value,
            round(app.arrival_time_ms / 1000.0, 2),
            "-" if app.departure_time_ms is None else round(app.departure_time_ms / 1000.0, 2),
            "-" if app.requirements.target_fps is None else app.requirements.target_fps,
            app.requirements.priority,
        ]
        for app in scenario.applications
    ]
    print(format_table(["app", "kind", "arrive (s)", "depart (s)", "fps", "prio"], rows, precision=2))


def _simulate_built(scenario, spec: ExperimentSpec):
    """Simulate an already-built scenario under the spec's manager and config.

    The single-spec compose/replay commands build the scenario once (for
    validation and the printed overview); re-running the spec through the
    runner would reconstitute it — and retrain its dynamic DNNs — a second
    time for no benefit.  The result is identical: building the scenario is
    the only spec step this bypasses.
    """
    manager = build_manager_from_spec(spec)
    return simulate_scenario(scenario, manager, config=build_simulator_config(spec))


def cmd_scenarios_compose(args: argparse.Namespace) -> int:
    """Compose two registry scenarios and inspect / trace / spec / run the result."""
    if args.dump_spec is not None and (args.save_trace is not None or args.run):
        # --dump-spec means "emit the spec instead of executing"; combining
        # it with an execution output would silently skip the latter.
        print(
            "--dump-spec replaces execution; drop it or drop --save-trace/--run",
            file=sys.stderr,
        )
        return 2
    operands = [args.a] if args.b is None else [args.a, args.b]
    if not resolve_scenarios(list(dict.fromkeys(operands))) or not resolve_managers([args.manager]):
        return 2
    if not _resolve_platform(args.platform):
        return 2
    # Only explicitly-given operand parameters enter the spec; the compose
    # builder rejects ones its op does not use (e.g. --at-ms with --op mix),
    # so a flag can never be dropped silently.
    params: dict = {"op": args.op, "a": args.a}
    for key in ("b", "at_ms", "arrival_factor", "duration_factor"):
        value = getattr(args, key)
        if value is not None:
            params[key] = value
    spec = ExperimentSpec(
        name=f"compose_{args.op}",
        scenario="compose",
        manager=args.manager,
        platform=args.platform,
        seed=args.seed,
        scenario_params=params,
    )
    try:
        scenario = build_scenario_from_spec(spec)
    except ValueError as error:
        print(f"invalid composition: {error}", file=sys.stderr)
        return 2
    if args.dump_spec is not None:
        return _dump_specs_and_exit([spec], args.dump_spec)
    _print_scenario_overview(scenario)
    if args.save_trace is not None:
        ArrivalTrace.from_scenario(scenario).save(args.save_trace)
        print(f"\nwrote arrival trace to {args.save_trace}")
        print(f"replay with: repro-experiments trace replay {args.save_trace}")
    if args.run:
        trace = _simulate_built(scenario, spec)
        print()
        _print_case_table({spec.label: trace})
        print(f"trace fingerprint: {trace.fingerprint()}")
    return 0


def _parse_param_overrides(entries: Optional[Sequence[str]]) -> Dict[str, object]:
    """Parse repeated ``--param KEY=VALUE`` flags into a params dict.

    Values are decoded as JSON when possible (numbers, booleans, lists) and
    kept as strings otherwise, so ``--param duration_ms=60000`` arrives as a
    number while ``--param source=rush_hour`` stays a string.
    """
    import json

    params: Dict[str, object] = {}
    for entry in entries or ():
        key, separator, raw = entry.partition("=")
        if not separator or not key:
            raise ValueError(f"--param needs KEY=VALUE, got {entry!r}")
        try:
            params[key] = json.loads(raw)
        except json.JSONDecodeError:
            params[key] = raw
    return params


def cmd_trace_record(args: argparse.Namespace) -> int:
    """Record a registry scenario's workload timeline to a JSONL arrival trace."""
    if not resolve_scenarios([args.scenario]) or not _resolve_platform(args.platform):
        return 2
    try:
        params = _parse_param_overrides(args.param)
        scenario = build_scenario(
            args.scenario, seed=args.seed, platform_name=args.platform, **params
        )
    except (ValueError, TypeError) as error:
        print(f"invalid scenario parameters: {error}", file=sys.stderr)
        return 2
    trace = ArrivalTrace.from_scenario(scenario)
    trace.save(args.out)
    print(
        f"recorded {len(trace.applications)} applications and {len(trace.events)} "
        f"scheduled events of {scenario.name!r} to {args.out}"
    )
    print(f"replay with: repro-experiments trace replay {args.out}")
    return 0


def cmd_trace_generate(args: argparse.Namespace) -> int:
    """Generate a diurnal traffic trace straight to disk via the streaming writer."""
    if not _resolve_platform(args.platform):
        return 2
    duration_ms = args.duration_ms if args.duration_ms is not None else args.hours * 3_600_000.0
    try:
        overrides = _parse_param_overrides(args.param)
        if args.arrivals is not None:
            config = config_for_arrivals(args.arrivals, duration_ms=duration_ms, **overrides)
        else:
            config = DiurnalConfig(duration_ms=duration_ms, **overrides)  # type: ignore[arg-type]
        written = write_diurnal_trace(
            args.out, config, seed=args.seed, platform_name=args.platform
        )
    except (ValueError, TypeError, TraceFormatError) as error:
        print(f"invalid diurnal config: {error}", file=sys.stderr)
        return 2
    print(
        f"generated {written} arrival(s) over {config.duration_ms / 3_600_000.0:g} h "
        f"(base rate {config.base_rate_per_s:g}/s, {config.flash_crowds} flash "
        f"crowd(s)) to {args.out}"
    )
    print(f"summarise with: repro-experiments trace stats {args.out}")
    return 0


def cmd_trace_replay(args: argparse.Namespace) -> int:
    """Replay a JSONL arrival trace under a manager and print the outcome."""
    try:
        header = ArrivalTrace.read_header(args.file)
        platform = args.platform or header.platform_name
        if not resolve_managers([args.manager]) or not _resolve_platform(platform):
            return 2
        scenario = ArrivalTrace.stream_scenario(args.file, platform_name=platform)
    except TraceFormatError as error:
        print(f"invalid trace: {error}", file=sys.stderr)
        return 2
    spec = ExperimentSpec(
        name=f"replay_{header.scenario_name}",
        scenario="trace",
        manager=args.manager,
        platform=platform,
        scenario_params={"path": str(args.file)},
    )
    if args.dump_spec is not None:
        # A relative trace path in a spec resolves against the cwd of the
        # *run*, not the spec file, so the dumped spec pins the absolute
        # path to stay replayable from any directory on this machine.  An
        # explicit --platform override must also be marked deliberate, or
        # the emitted spec would be rejected for the platform mismatch.
        import dataclasses
        from pathlib import Path

        params: dict = {"path": str(Path(args.file).resolve())}
        if platform != header.platform_name:
            params["replatform"] = True
        spec = dataclasses.replace(spec, scenario_params=params)
        return _dump_specs_and_exit([spec], args.dump_spec)
    _print_scenario_overview(scenario)
    trace = _simulate_built(scenario, spec)
    print()
    _print_case_table({spec.label: trace})
    print(f"trace fingerprint: {trace.fingerprint()}")
    return 0


def cmd_trace_stats(args: argparse.Namespace) -> int:
    """Summarise a JSONL arrival trace without simulating anything.

    Streams the file through :func:`compute_trace_stats`, so a
    million-arrival trace is summarised in one pass with memory bounded by
    the compact arrival-time array (8 bytes per arrival), never the record
    dicts.  ``--max-peak-mb`` turns that bound into an enforced assertion
    via :mod:`tracemalloc` (exit 1 on exceed) — the CI trace job runs under
    it to keep the pipeline honestly streaming.
    """
    tracker = None
    if args.max_peak_mb is not None:
        import tracemalloc

        tracker = tracemalloc
        tracker.start()
    try:
        stats = compute_trace_stats(args.file)
    except TraceFormatError as error:
        if tracker is not None:
            tracker.stop()
        print(f"invalid trace: {error}", file=sys.stderr)
        return 2
    peak_mb = None
    if tracker is not None:
        _, peak = tracker.get_traced_memory()
        tracker.stop()
        peak_mb = peak / 1e6
    print(f"trace:    {args.file}")
    print(f"scenario: {stats.scenario_name} on {stats.platform_name}")
    print(f"duration: {stats.duration_ms:g} ms")
    print(
        f"arrivals: {stats.num_applications} application(s), "
        f"{stats.num_events} scheduled event(s)"
    )
    if stats.num_applications:
        print()
        print(
            format_table(
                ["kind", "apps", "share"],
                [
                    [kind, count, f"{100.0 * count / stats.num_applications:.1f}%"]
                    for kind, count in sorted(stats.by_kind.items())
                ],
                precision=4,
            )
        )
        print(
            f"{stats.num_departures} of {stats.num_applications} application(s) also depart"
        )
        print(
            f"first arrival {stats.first_arrival_ms:g} ms, last {stats.last_arrival_ms:g} ms"
        )
        if stats.gap_p50_ms is not None:
            print(
                "inter-arrival ms: "
                f"min {stats.gap_min_ms:.1f}  p50 {stats.gap_p50_ms:.1f}  "
                f"p90 {stats.gap_p90_ms:.1f}  p99 {stats.gap_p99_ms:.1f}  "
                f"max {stats.gap_max_ms:.1f}"
            )
    if peak_mb is not None:
        if peak_mb > args.max_peak_mb:
            print(
                f"peak memory {peak_mb:.1f} MB exceeds --max-peak-mb "
                f"{args.max_peak_mb:g}",
                file=sys.stderr,
            )
            return 1
        print(f"peak memory {peak_mb:.1f} MB (within --max-peak-mb {args.max_peak_mb:g})")
    return 0


def cmd_managers_list(args: argparse.Namespace) -> int:
    """List the registered runtime managers with their one-line descriptions."""
    entries = MANAGER_REGISTRY.list()
    width = max(len(entry.name) for entry in entries)
    print(f"{len(entries)} registered managers (* = accepts policy/rtm overrides):")
    for entry in entries:
        marker = "*" if entry.metadata.get("configurable") else " "
        print(f"  {entry.name:<{width}} {marker} {entry.summary}")
    return 0


def cmd_platforms_list(args: argparse.Namespace) -> int:
    """List the platform presets with cluster topology and core counts."""
    summaries = preset_summaries()
    width = max(len(name) for name in summaries)
    print(f"{len(summaries)} platform presets (* = calibrated against the paper):")
    for name, info in summaries.items():
        clusters = " + ".join(
            f"{cluster_name}:{payload['num_cores']}x{payload['core_type']}"
            for cluster_name, payload in info["clusters"].items()
        )
        marker = "*" if info["calibrated"] else " "
        print(f"  {name:<{width}} {marker} {info['total_cores']:>2} cores  {clusters}")
        print(f"  {'':<{width}}   {info['summary']}")
    return 0


def cmd_faults_list(args: argparse.Namespace) -> int:
    """List fault event kinds (with their accepted keys) and chaos scenarios."""
    import dataclasses

    from repro.sim.faults import FAULT_EVENT_KINDS, JobCrashProfile

    print(f"{len(FAULT_EVENT_KINDS)} fault event kinds (plan tables: [[events]]):")
    width = max(len(kind) for kind in FAULT_EVENT_KINDS)
    for kind in sorted(FAULT_EVENT_KINDS):
        event_class = FAULT_EVENT_KINDS[kind]
        summary = (event_class.__doc__ or "").strip().splitlines()[0]
        keys = ", ".join(spec_field.name for spec_field in dataclasses.fields(event_class))
        print(f"  {kind:<{width}}  {summary}")
        print(f"  {'':<{width}}  keys: kind, {keys}")
    crash_summary = (JobCrashProfile.__doc__ or "").strip().splitlines()[0]
    crash_keys = ", ".join(
        spec_field.name for spec_field in dataclasses.fields(JobCrashProfile)
    )
    print(f"\njob crashes ([job_crashes] table): {crash_summary}")
    print(f"  keys: {crash_keys}")
    chaos = {
        name: summary
        for name, summary in scenario_summaries().items()
        if name.startswith("chaos_")
    }
    print(f"\n{len(chaos)} chaos scenarios (fault plans baked in; see 'scenarios list'):")
    width = max(len(name) for name in chaos)
    for name, summary in chaos.items():
        marker = "*" if scenario_is_seeded(name) else " "
        print(f"  {name:<{width}} {marker} {summary}")
    return 0


def _add_store_arguments(subparser: argparse.ArgumentParser) -> None:
    """``--store PATH --resume/--no-resume``, shared by run/sweep/bench."""
    subparser.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help="append results to this SQLite results store (created if missing)",
    )
    subparser.add_argument(
        "--resume",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="skip specs whose spec_id is already in --store (default: --no-resume)",
    )


def _add_robustness_arguments(subparser: argparse.ArgumentParser) -> None:
    """``--retries/--retry-backoff/--spec-timeout``, shared by run/sweep."""
    subparser.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help="re-run failed specs up to N extra times (default 0)",
    )
    subparser.add_argument(
        "--retry-backoff",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="sleep SECONDS * 2^attempt between retry rounds (default 0)",
    )
    subparser.add_argument(
        "--spec-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="abandon the batch when no spec finishes for SECONDS "
        "(process backend only; single-process backends ignore it)",
    )


@contextmanager
def _store_session(args: argparse.Namespace) -> "Iterator[Optional[ResultsStore]]":
    """Open ``--store`` (or yield ``None``) and always close it.

    The one shared implementation of the open/try/finally/close dance every
    result-streaming verb (``run``, ``sweep``, ``bench``, ``fleet``) used to
    copy-paste.
    """
    store = ResultsStore(args.store) if getattr(args, "store", None) is not None else None
    try:
        yield store
    finally:
        if store is not None:
            store.close()


def _execute_spec_batch(args: argparse.Namespace, specs, report: Callable):
    """Shared ``run``/``sweep`` execution path.

    One store session around :func:`run_many`, the verb-specific ``report``
    callback (headers and case tables), then the common store epilogue.
    """
    with _store_session(args) as store:
        batch = run_many(
            specs,
            backend=args.backend,
            workers=args.workers,
            validate=False,
            store=store,
            resume=args.resume,
            retries=args.retries,
            retry_backoff=args.retry_backoff,
            spec_timeout=args.spec_timeout,
        )
        report(batch)
        if store is not None:
            _report_store_outcome(store, args, batch, specs)
    return batch


def _resume_store_conflict(args: argparse.Namespace) -> bool:
    """True (after printing the error) when --resume is given without --store."""
    if args.resume and args.store is None:
        print("--resume needs --store PATH (nothing to resume from)", file=sys.stderr)
        return True
    return False


def _open_existing_store(path: str):
    """Open a store that must already exist (the read-side verbs).

    Returns ``None`` after printing an error when the file is missing or
    unreadable — opening would otherwise silently create an empty store.
    """
    from pathlib import Path

    if not Path(path).exists():
        print(f"no results store at {path}", file=sys.stderr)
        return None
    try:
        return ResultsStore(path)
    except Exception as error:  # noqa: BLE001 - reported to the user (StoreError, sqlite)
        print(f"cannot open results store {path}: {error}", file=sys.stderr)
        return None


def _print_stored_case_table(stored: "dict[str, StoredResult]") -> None:
    """Table of already-stored cases a resumed batch skipped."""
    headers = ["case (stored)", "spec id", "violation rate", "mean top-1 (%)", "energy (J)"]
    rows = []
    for label, record in stored.items():
        energy = record.metrics.get("total_energy_mj")
        rows.append(
            [
                label,
                record.spec_id,
                round(float(record.metrics.get("violation_rate", 0.0)), 4),
                round(float(record.metrics.get("mean_accuracy_percent", 0.0)), 2),
                round(float(energy) / 1000.0, 3) if energy is not None else "-",
            ]
        )
    print(format_table(headers, rows, precision=4))


def _report_store_outcome(store: ResultsStore, args, batch, specs) -> None:
    """Shared --store epilogue of ``run`` and ``sweep``.

    Prints the skipped-vs-computed split and the combined fingerprint digest
    over this batch's spec_ids — the digest is what CI compares between an
    interrupted+resumed sweep and a clean one-shot sweep.
    """
    print(
        f"resume: {batch.skipped_count} skipped (already stored), "
        f"{batch.computed_count} computed"
        if args.resume
        else f"store: {batch.computed_count} result(s) streamed to {args.store}"
    )
    if batch.skipped:
        _print_stored_case_table(batch.skipped)
    digest = store.fingerprint_digest(spec.spec_id() for spec in specs)
    print(f"store: {args.store} holds {len(store)} result(s)")
    print(f"combined fingerprint digest over this batch: {digest}")


def _print_case_table(traces, show_spec_ids=None) -> None:
    """Per-case headline statistics shared by ``run`` and ``sweep``."""
    headers = ["case", "violation rate", "mean top-1 (%)", "energy (J)"]
    if show_spec_ids:
        headers.insert(1, "spec id")
    rows = []
    for name, trace in traces.items():
        row = [
            name,
            round(trace.violation_rate(), 4),
            round(trace.mean_accuracy_percent(), 2),
            round(trace.total_energy_mj() / 1000.0, 3),
        ]
        if show_spec_ids:
            row.insert(1, show_spec_ids[name])
        rows.append(row)
    print(format_table(headers, rows, precision=4))


def _load_faults_overlay(path: str) -> "tuple[Optional[dict], Optional[str]]":
    """Load ``--faults FILE`` into the dict form specs carry.

    Returns ``(faults_dict, error_message)``; exactly one is ``None``.
    """
    from repro.sim.faults import FaultPlan, FaultPlanError

    try:
        plan = FaultPlan.from_file(path)
    except (OSError, FaultPlanError) as error:
        return None, f"cannot load fault plan {path!r}: {error}"
    if plan.is_empty:
        return None, f"fault plan {path!r} declares no events and no job crashes"
    return plan.to_dict(), None


def cmd_run(args: argparse.Namespace) -> int:
    """Execute experiment spec files through the spec runner."""
    specs: List[ExperimentSpec] = []
    try:
        for path in args.specs:
            specs.extend(load_specs(path))
        for spec in specs:
            spec.validate()
    except SpecError as error:
        print(f"invalid spec: {error}", file=sys.stderr)
        return 2
    if args.faults is not None:
        import dataclasses

        faults, error = _load_faults_overlay(args.faults)
        if error is not None:
            print(error, file=sys.stderr)
            return 2
        # The overlay replaces any per-spec faults table: one plan file, one
        # behaviour, for every spec in the batch.  Spec ids change with it.
        specs = [dataclasses.replace(spec, faults=faults) for spec in specs]
    if args.workers < 1:
        print("--workers must be at least 1", file=sys.stderr)
        return 2
    if _backend_workers_conflict(args) or _resume_store_conflict(args):
        return 2

    duplicates = find_duplicates(spec.label for spec in specs)
    if duplicates:
        print(
            f"duplicate experiment labels {duplicates}; give repeated entries "
            "distinct 'name' keys",
            file=sys.stderr,
        )
        return 2

    plural = "experiment" if len(specs) == 1 else "experiments"
    source = ", ".join(args.specs)
    # The backend is named only when explicitly chosen, so output stays
    # byte-identical across worker counts under the default dispatch.
    backend_note = f"backend={args.backend}, " if args.backend else ""
    print(f"run: {len(specs)} {plural} from {source} ({backend_note}workers={args.workers})")

    def report(batch) -> None:
        spec_ids = {spec.label: spec.spec_id() for spec in specs if spec.label in batch.traces}
        _print_case_table(batch.traces, show_spec_ids=spec_ids)

    batch = _execute_spec_batch(args, specs, report)

    if batch.errors:
        print(f"\n{len(batch.errors)} experiment(s) failed:", file=sys.stderr)
        for name, message in batch.errors.items():
            print(f"  {name}: {message}", file=sys.stderr)
        return 1
    return 0


def _sweep_specs(args: argparse.Namespace) -> tuple:
    """(specs, seeds, seeds_for) of a ``sweep`` invocation."""
    seeds = list(range(args.seed_base, args.seed_base + args.seeds))
    # Deterministic scenarios ignore the seed: run them once, pinned to seed
    # 0 (any other value would just trip the ignored-seed warning), instead
    # of repeating the identical simulation and passing the copies off as
    # cross-seed statistics.
    seeds_for = {
        name: seeds if scenario_is_seeded(name) else [0] for name in args.scenarios
    }
    specs = [
        ExperimentSpec(
            scenario=scenario,
            manager=manager,
            seed=seed,
            platform=args.platform,
            use_op_cache=not args.no_cache,
        )
        for scenario in args.scenarios
        for manager in args.managers
        for seed in seeds_for[scenario]
    ]
    return specs, seeds, seeds_for


def cmd_sweep(args: argparse.Namespace) -> int:
    """Run a (scenario, manager, seed) grid, optionally across worker processes."""
    if not resolve_scenarios(args.scenarios) or not resolve_managers(args.managers):
        return 2
    if not _resolve_platform(args.platform):
        return 2
    if args.seeds < 1:
        print("--seeds must be at least 1", file=sys.stderr)
        return 2
    if args.workers < 1:
        print("--workers must be at least 1", file=sys.stderr)
        return 2
    if _backend_workers_conflict(args) or _resume_store_conflict(args):
        return 2

    specs, seeds, seeds_for = _sweep_specs(args)
    for name in args.scenarios:
        if len(seeds_for[name]) < len(seeds):
            print(
                f"note: scenario {name!r} is seed-insensitive; running 1 case instead "
                f"of {len(seeds)}",
                file=sys.stderr,
            )
    if args.dump_spec is not None:
        return _dump_specs_and_exit(specs, args.dump_spec)

    def report(batch) -> None:
        # Named only when explicitly chosen (see cmd_run): the CLI byte-parity
        # invariant says worker count must not change the output.
        backend_note = f" (backend={args.backend})" if args.backend else ""
        print(
            f"sweep: {len(args.scenarios)} scenarios x {len(args.managers)} managers "
            f"x {len(seeds)} seeds on {args.platform}{backend_note}"
        )
        _print_case_table(batch.traces)

    result = _execute_spec_batch(args, specs, report)

    # Aggregate across seeds per (scenario, manager) pair.
    aggregate_rows = []
    for scenario in args.scenarios:
        for manager in args.managers:
            traces = [
                result.traces[f"{scenario}/{manager}/seed{seed}"]
                for seed in seeds_for[scenario]
                if f"{scenario}/{manager}/seed{seed}" in result.traces
            ]
            if not traces:
                continue
            violation_rates = [trace.violation_rate() for trace in traces]
            aggregate_rows.append(
                [
                    scenario,
                    manager,
                    len(traces),
                    round(sum(violation_rates) / len(traces), 4),
                    round(max(violation_rates), 4),
                    round(sum(trace.total_energy_mj() for trace in traces) / len(traces) / 1000.0, 3),
                ]
            )
    if aggregate_rows:
        print()
        print("aggregates across seeds:")
        print(
            format_table(
                ["scenario", "manager", "runs", "mean viol", "worst viol", "mean energy (J)"],
                aggregate_rows,
                precision=4,
            )
        )

    if args.cache_stats:
        # Counters are cumulative in the decision records, so they survive
        # the process boundary of parallel workers inside the trace itself.
        stats_rows = []
        for name, trace in result.traces.items():
            counters = trace.cache_counters()
            lookups = counters["hits"] + counters["misses"]
            stats_rows.append(
                [
                    name,
                    counters["hits"],
                    counters["misses"],
                    round(counters["hits"] / lookups, 4) if lookups else 0.0,
                ]
            )
        print()
        print("operating-point cache statistics:")
        print(
            format_table(
                ["case", "cache hits", "cache misses", "hit rate"], stats_rows, precision=4
            )
        )

    if result.errors:
        print(f"\n{len(result.errors)} case(s) failed:", file=sys.stderr)
        for name, message in result.errors.items():
            print(f"  {name}: {message}", file=sys.stderr)
        return 1
    return 0


#: Scenarios x managers of the default ``bench`` grid: the decision-heavy
#: scenarios under the RTM family plus one baseline manager for scale.
BENCH_DEFAULT_SCENARIOS = ["rush_hour", "steady", "multi_app_contention"]
BENCH_DEFAULT_MANAGERS = ["rtm", "rtm_min_energy", "governor_only", "static_deployment"]
#: The CI smoke subset: one decision-heavy scenario under the default RTM.
BENCH_SMOKE_SCENARIOS = ["rush_hour"]
BENCH_SMOKE_MANAGERS = ["rtm"]
#: The batched-engine smoke grid needs redundancy (that is what the engine
#: exploits), so it spans two scenarios x two managers instead of one case.
BATCHED_BENCH_SMOKE_SCENARIOS = ["rush_hour", "steady"]
BATCHED_BENCH_SMOKE_MANAGERS = ["rtm", "governor_only"]


def _cmd_bench_batched(args: argparse.Namespace) -> int:
    """Benchmark the batched engine against the serial backend."""
    if args.resume:
        # The batched comparison times one monolithic engine pass; there is
        # no per-case unit to resume, unlike the decision-kernel grid.
        print(
            "--resume applies to the per-case decision-kernel bench; the batched "
            "comparison is a single timed pass (drop --resume, keep --store to "
            "append the run)",
            file=sys.stderr,
        )
        return 2
    scenarios = args.scenarios or (
        BATCHED_BENCH_SMOKE_SCENARIOS if args.smoke else BENCH_DEFAULT_SCENARIOS
    )
    managers = args.managers or (
        BATCHED_BENCH_SMOKE_MANAGERS if args.smoke else BENCH_DEFAULT_MANAGERS
    )
    if not resolve_scenarios(scenarios) or not resolve_managers(managers):
        return 2
    if not _resolve_platform(args.platform):
        return 2
    seeds_count = args.seeds if args.seeds is not None else (2 if args.smoke else 4)
    if seeds_count < 1:
        print("--seeds must be at least 1", file=sys.stderr)
        return 2
    repeats = 1 if args.smoke and args.repeats is None else (args.repeats or 2)
    specs = grid_specs(scenarios, managers, seeds=list(range(seeds_count)), platform=args.platform)
    if args.dump_spec is not None:
        return _dump_specs_and_exit(specs, args.dump_spec)

    print(
        f"bench (batched engine): {len(scenarios)} scenarios x {len(managers)} "
        f"managers x {seeds_count} seeds = {len(specs)} specs on {args.platform}, "
        f"best of {repeats}"
    )
    result = run_batched_bench(
        specs, repeats=repeats, progress=lambda line: print(f"  {line}")
    )
    print()
    print(
        f"batched {result.batched_s:.2f} s vs serial {result.serial_s:.2f} s "
        f"-> {result.speedup:.2f}x over {result.specs} specs"
    )
    if result.errors:
        print(f"{result.errors} spec(s) failed during the comparison", file=sys.stderr)
        return 1
    if not result.fingerprints_identical:
        print(
            "fingerprint mismatch: the batched engine diverged from the serial "
            "reference — do not trust the timing",
            file=sys.stderr,
        )
        return 1
    print("fingerprints identical across backends")

    exit_code = 0
    if args.compare is not None:
        try:
            baseline = load_bench_file(args.compare)
        except (OSError, ValueError) as error:
            print(f"cannot load baseline {args.compare!r}: {error}", file=sys.stderr)
            return 2
        regressions = compare_batched_bench(
            result, baseline, max_regression=args.max_regression
        )
        if regressions:
            print(
                f"\n{len(regressions)} batched-engine regression(s) beyond "
                f"{args.max_regression:.0%} of {args.compare}:",
                file=sys.stderr,
            )
            for regression in regressions:
                print(f"  {regression}", file=sys.stderr)
            exit_code = 1
        else:
            print(f"no regressions beyond {args.max_regression:.0%} of {args.compare}")

    output = args.output
    if output == DEFAULT_BENCH_PATH:
        # The untouched default points at the decision-kernel file; the
        # batched comparison tracks its own trajectory.
        output = DEFAULT_BATCHED_BENCH_PATH
    if output is not None:
        with _store_session(args) as store:
            write_batched_bench_file(
                output,
                result,
                repeats=repeats,
                platform_name=args.platform,
                grid={
                    "scenarios": list(scenarios),
                    "managers": list(managers),
                    "seeds": seeds_count,
                },
                store=store,
            )
        print(f"wrote {output}")
        if args.store is not None:
            print(f"appended batched bench run to {args.store}")
    return exit_code


def cmd_bench(args: argparse.Namespace) -> int:
    """Benchmark the decision kernel and track the timings in JSON."""
    if args.backend == "batched":
        return _cmd_bench_batched(args)
    scenarios = args.scenarios or (
        BENCH_SMOKE_SCENARIOS if args.smoke else BENCH_DEFAULT_SCENARIOS
    )
    managers = args.managers or (BENCH_SMOKE_MANAGERS if args.smoke else BENCH_DEFAULT_MANAGERS)
    if not resolve_scenarios(scenarios) or not resolve_managers(managers):
        return 2
    if not _resolve_platform(args.platform):
        return 2
    repeats = 1 if args.smoke and args.repeats is None else (args.repeats or 3)
    specs = grid_specs(scenarios, managers, seeds=[0], platform=args.platform)
    if args.dump_spec is not None:
        return _dump_specs_and_exit(specs, args.dump_spec)

    def progress(timings) -> None:
        print(
            f"  {timings.key:<40} decide {timings.decide_ms_per_epoch_cached:8.3f} ms "
            f"(cached) {timings.decide_ms_per_epoch_uncached:8.3f} ms (uncached)  "
            f"e2e {timings.e2e_s:6.3f} s"
        )

    print(
        f"bench: {len(scenarios)} scenarios x {len(managers)} managers on "
        f"{args.platform}, best of {repeats}"
    )
    if _resume_store_conflict(args):
        return 2
    with _store_session(args) as store:
        if args.resume:
            reused = sum(
                1
                for spec in specs
                if store.get_bench_case(spec.spec_id(), BENCH_KIND_DECISION) is not None
            )
            print(f"resume: {reused} of {len(specs)} case(s) already timed in {args.store}")
        results = run_bench_specs(
            specs, repeats=repeats, progress=progress, store=store, resume=args.resume
        )
        rows = [
            [
                timings.key,
                timings.decisions,
                timings.decide_ms_per_epoch_cached,
                timings.decide_ms_per_epoch_uncached,
                timings.e2e_s,
                timings.e2e_s_uncached,
            ]
            for timings in results
        ]
        print()
        print(
            format_table(
                [
                    "case",
                    "epochs",
                    "decide ms (cached)",
                    "decide ms (uncached)",
                    "e2e s",
                    "e2e s (uncached)",
                ],
                rows,
                precision=4,
            )
        )

        exit_code = 0
        if args.compare is not None:
            try:
                baseline = load_bench_file(args.compare)
            except (OSError, ValueError) as error:
                print(f"cannot load baseline {args.compare!r}: {error}", file=sys.stderr)
                return 2
            regressions = compare_bench(results, baseline, max_regression=args.max_regression)
            if regressions:
                print(
                    f"\n{len(regressions)} decide()-per-epoch regression(s) beyond "
                    f"{args.max_regression:.0%} of {args.compare}:",
                    file=sys.stderr,
                )
                for regression in regressions:
                    print(f"  {regression}", file=sys.stderr)
                exit_code = 1
            else:
                print(f"\nno regressions beyond {args.max_regression:.0%} of {args.compare}")

        if args.output is not None:
            reference = None
            reference_note = ""
            try:
                existing = load_bench_file(args.output)
                reference = existing.get("reference")
                reference_note = str(existing.get("reference_note", ""))
            except (OSError, ValueError):
                pass
            document = write_bench_file(
                args.output,
                results,
                repeats=repeats,
                platform_name=args.platform,
                reference=reference,
                reference_note=reference_note,
                store=store,
            )
            print(f"\nwrote {args.output}")
            if args.store is not None:
                print(f"appended bench run to {args.store}")
            speedups = document.get("speedup_vs_reference") or {}
            for case, entry in speedups.items():
                if "decide_ms_per_epoch_uncached" in entry:
                    print(
                        f"  {case}: {entry['decide_ms_per_epoch_uncached']}x faster uncached "
                        f"decide, {entry.get('e2e_s', '?')}x faster e2e vs reference"
                    )
        return exit_code


# --------------------------------------------------------------- fleet verbs


def _parse_device_mix(entries: Sequence[str]) -> Dict[str, int]:
    """Parse ``--devices PRESET=COUNT`` pairs into a device-mix table."""
    devices: Dict[str, int] = {}
    for entry in entries:
        preset, separator, count_text = entry.partition("=")
        if not separator or not preset:
            raise ValueError(f"--devices wants PRESET=COUNT, got {entry!r}")
        try:
            count = int(count_text)
        except ValueError:
            raise ValueError(f"--devices count must be an integer, got {entry!r}") from None
        if count < 1:
            raise ValueError(f"--devices count must be positive, got {entry!r}")
        if preset in devices:
            raise ValueError(f"--devices names preset {preset!r} twice")
        devices[preset] = count
    return devices


def _print_fleet_table(payloads: Sequence[Dict[str, object]]) -> None:
    """Per-fleet headline table shared by ``fleet run`` and ``fleet sweep``."""
    rows = [
        [
            payload["label"],
            payload["fleet_id"],
            payload["devices"],
            round(float(payload["violation_rate"]), 4),
            payload["total_jobs"],
            len(payload["migrations"]),
            payload["fingerprint"],
        ]
        for payload in payloads
    ]
    print(
        format_table(
            ["fleet", "fleet id", "devices", "viol rate", "jobs", "migr", "fingerprint"],
            rows,
            precision=4,
        )
    )


def _run_fleet_specs(args: argparse.Namespace, specs: Sequence[FleetSpec]) -> List[Dict[str, object]]:
    """Execute fleet specs under the shared store session and print the table.

    With ``--store`` each fleet's aggregate payload is streamed to the
    store's bench-case table keyed by its fleet_id (first write wins); with
    ``--resume`` already-stored fleets are reported instead of re-run.
    """
    trained = IncrementalTrainer().train(make_dynamic_cifar_dnn())
    payloads: List[Dict[str, object]] = []
    computed = skipped = 0
    with _store_session(args) as store:
        for spec in specs:
            fleet_id = spec.fleet_id()
            payload = (
                store.get_bench_case(fleet_id, BENCH_KIND_FLEET)
                if store is not None and args.resume
                else None
            )
            if payload is None:
                result = run_fleet(spec, backend=args.backend, trained=trained)
                payload = result.to_payload()
                computed += 1
                if store is not None:
                    store.put_bench_case(fleet_id, BENCH_KIND_FLEET, payload)
            else:
                skipped += 1
            payloads.append(payload)
        _print_fleet_table(payloads)
        if store is not None:
            print(
                f"resume: {skipped} fleet(s) skipped (already stored), {computed} computed"
                if args.resume
                else f"store: {computed} fleet result(s) streamed to {args.store}"
            )
    return payloads


def cmd_fleet_run(args: argparse.Namespace) -> int:
    """Run fleet spec files (TOML/JSON), or one fleet assembled from flags."""
    specs: List[FleetSpec] = []
    try:
        if args.specs:
            for path in args.specs:
                specs.extend(load_fleet_specs(path))
        else:
            specs.append(
                FleetSpec(
                    scenario=args.scenario,
                    policy=args.policy,
                    seed=args.seed,
                    devices=_parse_device_mix(args.devices or []),
                )
            )
        for spec in specs:
            spec.validate()
    except (FleetSpecError, ValueError) as error:
        print(f"invalid fleet spec: {error}", file=sys.stderr)
        return 2
    duplicates = find_duplicates(spec.label for spec in specs)
    if duplicates:
        print(
            f"duplicate fleet labels {duplicates}; give repeated entries "
            "distinct 'name' keys",
            file=sys.stderr,
        )
        return 2
    if _resume_store_conflict(args):
        return 2
    plural = "fleet" if len(specs) == 1 else "fleets"
    source = ", ".join(args.specs) if args.specs else "flags"
    print(f"fleet run: {len(specs)} {plural} from {source} (backend={args.backend})")
    _run_fleet_specs(args, specs)
    return 0


def cmd_fleet_sweep(args: argparse.Namespace) -> int:
    """Compare placement policies (x seeds) on one fleet scenario."""
    if args.seeds < 1:
        print("--seeds must be at least 1", file=sys.stderr)
        return 2
    seeds = list(range(args.seed_base, args.seed_base + args.seeds))
    try:
        devices = _parse_device_mix(args.devices or [])
        specs = [
            FleetSpec(scenario=args.scenario, policy=policy, seed=seed, devices=devices)
            for policy in args.policies
            for seed in seeds
        ]
        for spec in specs:
            spec.validate()
    except (FleetSpecError, ValueError) as error:
        print(f"invalid fleet sweep: {error}", file=sys.stderr)
        return 2
    duplicates = find_duplicates(spec.label for spec in specs)
    if duplicates:
        print(f"duplicate fleet cases {duplicates}; list each policy once", file=sys.stderr)
        return 2
    if _resume_store_conflict(args):
        return 2
    print(
        f"fleet sweep: {args.scenario} x {len(args.policies)} policies x "
        f"{len(seeds)} seeds (backend={args.backend})"
    )
    payloads = _run_fleet_specs(args, specs)

    # Mean violation rate per policy, with the delta against the static
    # baseline when it is part of the sweep.
    by_policy: Dict[str, List[float]] = {}
    for spec, payload in zip(specs, payloads):
        by_policy.setdefault(spec.policy, []).append(float(payload["violation_rate"]))
    means = {policy: sum(rates) / len(rates) for policy, rates in by_policy.items()}
    if len(means) > 1:
        static_mean = means.get("static")
        rows = [
            [
                policy,
                len(by_policy[policy]),
                round(mean, 4),
                round(static_mean - mean, 4) if static_mean is not None else "-",
            ]
            for policy, mean in sorted(means.items(), key=lambda item: (item[1], item[0]))
        ]
        print()
        print("policies by mean fleet-wide violation rate:")
        print(
            format_table(
                ["policy", "runs", "mean viol", "vs static"], rows, precision=4
            )
        )
    return 0


def cmd_fleet_bench(args: argparse.Namespace) -> int:
    """Benchmark a large orchestrated fleet against the static baseline."""
    if args.resume:
        print(
            "--resume applies to per-case verbs; the fleet benchmark is a "
            "single timed pass (drop --resume, keep --store to append the run)",
            file=sys.stderr,
        )
        return 2
    if args.devices < 1:
        print("--devices must be at least 1", file=sys.stderr)
        return 2
    check_serial = not args.no_serial_check
    print(
        f"fleet bench: {args.devices} devices on {args.scenario}, "
        f"{args.policy} vs static (batched"
        + (", serial identity check)" if check_serial else ")")
    )
    result = run_fleet_bench(
        devices=args.devices,
        scenario=args.scenario,
        policy=args.policy,
        seed=args.seed,
        check_serial=check_serial,
        progress=lambda line: print(f"  {line}"),
    )
    print()
    print(
        f"orchestrated ({result.policy}) {result.orchestrated_s:.2f} s vs "
        f"static {result.static_s:.2f} s over {result.devices} devices"
    )
    if check_serial:
        if not result.fingerprints_identical:
            print(
                "fleet fingerprint mismatch: the batched backend diverged from "
                "the serial backend — do not trust the timing",
                file=sys.stderr,
            )
            return 1
        print(
            f"serial backend {result.serial_s:.2f} s; "
            "fleet fingerprints identical across backends"
        )
    print(
        f"violation rate: {result.orchestrated_violation_rate:.4f} orchestrated vs "
        f"{result.static_violation_rate:.4f} static "
        f"(improvement {result.violation_improvement:+.4f}, "
        f"{result.migrations} migration(s))"
    )

    exit_code = 0
    if args.compare is not None:
        try:
            baseline = load_bench_file(args.compare)
        except (OSError, ValueError) as error:
            print(f"cannot load baseline {args.compare!r}: {error}", file=sys.stderr)
            return 2
        regressions = compare_fleet_bench(result, baseline, max_regression=args.max_regression)
        if regressions:
            print(
                f"\n{len(regressions)} fleet regression(s) beyond "
                f"{args.max_regression:.0%} of {args.compare}:",
                file=sys.stderr,
            )
            for regression in regressions:
                print(f"  {regression}", file=sys.stderr)
            exit_code = 1
        else:
            print(f"no regressions beyond {args.max_regression:.0%} of {args.compare}")

    if args.output is not None:
        with _store_session(args) as store:
            write_fleet_bench_file(args.output, result, seed=args.seed, store=store)
        print(f"wrote {args.output}")
        if args.store is not None:
            print(f"appended fleet bench run to {args.store}")
    return exit_code


def cmd_fleet_policies_list(args: argparse.Namespace) -> int:
    """List the registered fleet placement policies."""
    entries = FLEET_POLICY_REGISTRY.list()
    width = max(len(entry.name) for entry in entries)
    print(f"{len(entries)} fleet placement policies (* = rebalances/evicts):")
    for entry in entries:
        marker = "*" if entry.metadata.get("rebalances") else " "
        print(f"  {entry.name:<{width}} {marker} {entry.summary}")
    return 0


def cmd_fleet_scenarios_list(args: argparse.Namespace) -> int:
    """List the registered fleet scenarios."""
    pairs = fleet_scenario_summaries()
    width = max(len(name) for name, _ in pairs)
    print(f"{len(pairs)} fleet scenarios (device mixes scale via --devices):")
    for name, summary in pairs:
        print(f"  {name:<{width}}  {summary}")
    return 0


# --------------------------------------------------------------- store verbs


def cmd_store_ls(args: argparse.Namespace) -> int:
    """List every result in a store: spec ids, labels, headline metrics."""
    store = _open_existing_store(args.store)
    if store is None:
        return 2
    try:
        results = store.results()
        errors = store.errors()
        if not results and not errors:
            bench_counts = store.bench_run_counts()
            if bench_counts:
                runs = ", ".join(f"{kind}={count}" for kind, count in bench_counts.items())
                print(f"{args.store}: no results; bench runs: {runs}")
            else:
                print(f"{args.store}: empty store")
            return 0
        if results:
            headers = ["spec id", "case", "fingerprint", "violation rate", "wall s"]
            rows = [
                [
                    record.spec_id,
                    record.label,
                    record.fingerprint,
                    round(float(record.metrics.get("violation_rate", 0.0)), 4),
                    round(record.wall_time_s, 3) if record.wall_time_s is not None else "-",
                ]
                for record in results
            ]
            print(format_table(headers, rows, precision=4))
        if errors:
            # Unresolved failures: a later successful run of the same spec_id
            # deletes its error row, so everything here still needs attention.
            print(f"\n{len(errors)} failed spec(s) (resolved by a successful re-run):")
            print(
                format_table(
                    ["spec id", "case", "error"],
                    [[e.spec_id, e.label, e.summary] for e in errors],
                    precision=4,
                )
            )
        bench_counts = store.bench_run_counts()
        summary = f"{len(results)} result(s)"
        if errors:
            summary += f", {len(errors)} error(s)"
        if bench_counts:
            summary += ", bench runs: " + ", ".join(
                f"{kind}={count}" for kind, count in bench_counts.items()
            )
        print(f"{args.store}: {summary}")
        print(f"combined fingerprint digest: {store.fingerprint_digest()}")
        return 0
    finally:
        store.close()


def cmd_store_show(args: argparse.Namespace) -> int:
    """Print one stored result in full: metrics, timing and the spec TOML."""
    store = _open_existing_store(args.store)
    if store is None:
        return 2
    try:
        record = store.get(args.spec_id)
        error = store.get_error(args.spec_id) if record is None else None
    finally:
        store.close()
    if record is None:
        if error is not None:
            # No result, but the spec failed: print the full stored message
            # (including any truncated traceback) instead of "not found".
            print(f"spec id: {error.spec_id}")
            print(f"label:   {error.label}")
            print("error:")
            for line in error.message.rstrip("\n").splitlines():
                print(f"  {line}")
            return 1
        print(f"no result for spec id {args.spec_id!r} in {args.store}", file=sys.stderr)
        return 1
    print(f"spec id:     {record.spec_id}")
    print(f"label:       {record.label}")
    print(f"fingerprint: {record.fingerprint}")
    wall = f"{record.wall_time_s:.3f} s" if record.wall_time_s is not None else "-"
    print(f"wall time:   {wall}")
    print("metrics:")
    for name in sorted(record.metrics):
        print(f"  {name} = {record.metrics[name]}")
    print("spec:")
    for line in record.spec_toml.rstrip("\n").splitlines():
        print(f"  {line}")
    return 0


def cmd_store_export(args: argparse.Namespace) -> int:
    """Export a store to jsonl/csv rows or a replayable TOML spec batch."""
    store = _open_existing_store(args.store)
    if store is None:
        return 2
    try:
        count = store.export(args.out, format=args.format)
    finally:
        store.close()
    noun = "spec(s)" if args.format == "toml" else "row(s)"
    print(f"exported {count} {noun} to {args.out} ({args.format})")
    return 0


def cmd_store_gc(args: argparse.Namespace) -> int:
    """Prune a store to its newest ``--keep-latest`` results and compact it."""
    store = _open_existing_store(args.store)
    if store is None:
        return 2
    try:
        deleted = store.gc(args.keep_latest)
        remaining = len(store)
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    finally:
        store.close()
    print(f"gc: deleted {deleted} result(s), kept {remaining} (newest first)")
    return 0


def cmd_store_diff(args: argparse.Namespace) -> int:
    """Re-execute a stored spec and compare fingerprints (regression oracle).

    The store is append-only, so the stored fingerprint is the *first* run's
    behaviour; a mismatch on re-execution means the codebase's behaviour has
    drifted since the result was recorded.  Exit 1 on mismatch.
    """
    store = _open_existing_store(args.store)
    if store is None:
        return 2
    try:
        record = store.get(args.spec_id)
    finally:
        store.close()
    if record is None:
        print(f"no result for spec id {args.spec_id!r} in {args.store}", file=sys.stderr)
        return 1
    try:
        spec = record.spec()
    except SpecError as error:
        print(f"stored spec is unreadable: {error}", file=sys.stderr)
        return 2
    from repro.experiments import run

    recomputed = run(spec).trace.fingerprint()
    if recomputed == record.fingerprint:
        print(f"{record.spec_id} ({record.label}): fingerprints match ({recomputed})")
        return 0
    print(
        f"{record.spec_id} ({record.label}): fingerprint mismatch\n"
        f"  stored:     {record.fingerprint}\n"
        f"  recomputed: {recomputed}\n"
        "behaviour has drifted since this result was recorded",
        file=sys.stderr,
    )
    return 1


# -------------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser for the experiments CLI."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the experiments of 'Optimising Resource Management "
        "for Embedded Machine Learning' (DATE 2020).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    table1 = subparsers.add_parser("table1", help="reproduce Table I")
    table1.set_defaults(func=cmd_table1)

    fig4a = subparsers.add_parser("fig4a", help="print the Fig 4(a) operating-point sweep")
    fig4a.add_argument("--pareto", action="store_true", help="only print the Pareto front")
    fig4a.add_argument("--limit", type=int, default=None, help="print at most N points")
    fig4a.set_defaults(func=cmd_fig4a)

    fig4b = subparsers.add_parser("fig4b", help="print the Fig 4(b) accuracy table")
    fig4b.set_defaults(func=cmd_fig4b)

    case_study = subparsers.add_parser("case-study", help="run the Section IV budget queries")
    case_study.add_argument("--platform", default="odroid_xu3")
    case_study.add_argument("--policy", default="max_accuracy")
    case_study.add_argument("--clusters", nargs="+", default=["a15", "a7"])
    case_study.add_argument("--latency-ms", type=float, default=None)
    case_study.add_argument("--energy-mj", type=float, default=None)
    case_study.set_defaults(func=cmd_case_study)

    scenario = subparsers.add_parser("scenario", help="replay a runtime scenario")
    scenario.add_argument("--name", default="fig2", help="scenario name (fig2, single_dnn, ...)")
    scenario.add_argument("--seed", type=int, default=0, help="seed for generated scenarios")
    scenario.add_argument("--platform", default="odroid_xu3", help="platform preset")
    scenario.add_argument(
        "--baselines", action="store_true", help="also run the governor-only and static baselines"
    )
    scenario.add_argument("--events", action="store_true", help="print adaptation events")
    scenario.add_argument(
        "--dump-spec",
        default=None,
        metavar="FILE",
        help="write the experiment spec(s) to FILE ('-' for stdout) instead of running",
    )
    scenario.set_defaults(func=cmd_scenario)

    scenarios = subparsers.add_parser("scenarios", help="inspect the scenario registry")
    scenarios_sub = scenarios.add_subparsers(dest="scenarios_command", required=True)
    scenarios_list = scenarios_sub.add_parser("list", help="list registered scenarios")
    scenarios_list.set_defaults(func=cmd_scenarios_list)
    compose = scenarios_sub.add_parser(
        "compose", help="compose two registry scenarios (mix/splice/scale/perturb)"
    )
    compose.add_argument("--op", choices=COMPOSE_OPS, default="mix", help="composition operator")
    compose.add_argument("--a", default="steady", help="first operand scenario")
    compose.add_argument(
        "--b", default=None, help="second operand (mix/splice only; default bursty)"
    )
    compose.add_argument(
        "--at-ms", type=float, default=None, help="splice point in ms (splice only; default 10000)"
    )
    compose.add_argument(
        "--arrival-factor", type=float, default=None, help="timeline factor (scale only)"
    )
    compose.add_argument(
        "--duration-factor",
        type=float,
        default=None,
        help="duration factor (scale only; default: the arrival factor)",
    )
    compose.add_argument("--seed", type=int, default=0, help="seed for seeded operands / jitter")
    compose.add_argument("--platform", default="odroid_xu3", help="platform preset")
    compose.add_argument(
        "--save-trace",
        default=None,
        metavar="FILE",
        help="record the composed workload to a JSONL arrival trace",
    )
    compose.add_argument(
        "--run", action="store_true", help="also simulate the composition under --manager"
    )
    compose.add_argument("--manager", default="rtm", help="manager for --run / --dump-spec")
    compose.add_argument(
        "--dump-spec",
        default=None,
        metavar="FILE",
        help="write the equivalent experiment spec to FILE ('-' for stdout) instead",
    )
    compose.set_defaults(func=cmd_scenarios_compose)

    trace = subparsers.add_parser(
        "trace", help="record and replay JSONL arrival traces of workload timelines"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trace_record = trace_sub.add_parser(
        "record", help="record a registry scenario's timeline to a trace file"
    )
    trace_record.add_argument("--scenario", default="rush_hour", help="scenario to record")
    trace_record.add_argument("--seed", type=int, default=0, help="seed for seeded scenarios")
    trace_record.add_argument("--platform", default="odroid_xu3", help="platform preset")
    trace_record.add_argument("--out", required=True, metavar="FILE", help="JSONL file to write")
    trace_record.add_argument(
        "--param",
        action="append",
        metavar="KEY=VALUE",
        help="scenario parameter override (repeatable), e.g. --param duration_ms=60000",
    )
    trace_record.set_defaults(func=cmd_trace_record)
    trace_generate = trace_sub.add_parser(
        "generate",
        help="generate a diurnal traffic trace straight to disk (streaming writer)",
    )
    trace_generate.add_argument("--out", required=True, metavar="FILE", help="trace file to write")
    trace_generate.add_argument("--seed", type=int, default=0, help="traffic seed")
    trace_generate.add_argument("--platform", default="odroid_xu3", help="platform preset")
    trace_generate.add_argument(
        "--hours", type=float, default=6.0, help="trace length in hours (default 6)"
    )
    trace_generate.add_argument(
        "--duration-ms", type=float, default=None, help="trace length in ms (overrides --hours)"
    )
    trace_generate.add_argument(
        "--arrivals",
        type=int,
        default=None,
        metavar="N",
        help="size the base rate so the trace holds at least N arrivals",
    )
    trace_generate.add_argument(
        "--param",
        action="append",
        metavar="KEY=VALUE",
        help="DiurnalConfig override (repeatable), e.g. --param flash_crowds=3",
    )
    trace_generate.set_defaults(func=cmd_trace_generate)
    trace_replay = trace_sub.add_parser(
        "replay", help="replay a trace file under a manager and print the outcome"
    )
    trace_replay.add_argument("file", metavar="FILE", help="JSONL trace file to replay")
    trace_replay.add_argument("--manager", default="rtm", help="manager to replay under")
    trace_replay.add_argument(
        "--platform",
        default=None,
        help="platform preset (default: the platform recorded in the trace)",
    )
    trace_replay.add_argument(
        "--dump-spec",
        default=None,
        metavar="FILE",
        help="write the equivalent experiment spec to FILE ('-' for stdout) instead",
    )
    trace_replay.set_defaults(func=cmd_trace_replay)
    trace_stats = trace_sub.add_parser(
        "stats", help="summarise a trace file: arrivals, kinds, inter-arrival gaps"
    )
    trace_stats.add_argument("file", metavar="FILE", help="JSONL trace file to summarise")
    trace_stats.add_argument(
        "--max-peak-mb",
        type=float,
        default=None,
        metavar="MB",
        help="assert (tracemalloc) that summarising stays under MB of peak memory; exit 1 if not",
    )
    trace_stats.set_defaults(func=cmd_trace_stats)

    managers = subparsers.add_parser("managers", help="inspect the manager registry")
    managers_sub = managers.add_subparsers(dest="managers_command", required=True)
    managers_list = managers_sub.add_parser("list", help="list registered managers")
    managers_list.set_defaults(func=cmd_managers_list)

    platforms = subparsers.add_parser("platforms", help="inspect the platform presets")
    platforms_sub = platforms.add_subparsers(dest="platforms_command", required=True)
    platforms_list = platforms_sub.add_parser(
        "list", help="list platform presets with cluster topology"
    )
    platforms_list.set_defaults(func=cmd_platforms_list)

    faults = subparsers.add_parser(
        "faults", help="inspect the fault-injection vocabulary"
    )
    faults_sub = faults.add_subparsers(dest="faults_command", required=True)
    faults_list = faults_sub.add_parser(
        "list", help="list fault event kinds and chaos scenarios"
    )
    faults_list.set_defaults(func=cmd_faults_list)

    run = subparsers.add_parser(
        "run", help="execute experiment spec files (TOML or JSON)"
    )
    run.add_argument("specs", nargs="+", metavar="SPEC", help="spec files to execute")
    run.add_argument(
        "--backend",
        default=None,
        choices=sorted(EXECUTION_BACKEND_REGISTRY),
        help="execution backend (default: process when --workers > 1, else serial)",
    )
    run.add_argument(
        "--workers", type=int, default=1, help="worker processes (process backend only)"
    )
    run.add_argument(
        "--faults",
        default=None,
        metavar="PLAN",
        help="overlay this fault plan (TOML/JSON) on every spec in the batch",
    )
    _add_robustness_arguments(run)
    _add_store_arguments(run)
    run.set_defaults(func=cmd_run)

    sweep = subparsers.add_parser(
        "sweep", help="run a (scenario, manager, seed) grid, optionally in parallel"
    )
    sweep.add_argument(
        "--scenarios",
        "--scenario",
        nargs="+",
        dest="scenarios",
        default=["steady"],
        help="registered scenario names (see 'scenarios list')",
    )
    sweep.add_argument(
        "--managers",
        nargs="+",
        default=["rtm", "governor_only", "static_deployment"],
        help="manager names (see 'managers list')",
    )
    sweep.add_argument("--seeds", type=int, default=1, help="number of seeds per combination")
    sweep.add_argument("--seed-base", type=int, default=0, help="first seed of the range")
    sweep.add_argument(
        "--backend",
        default=None,
        choices=sorted(EXECUTION_BACKEND_REGISTRY),
        help="execution backend (default: process when --workers > 1, else serial)",
    )
    sweep.add_argument(
        "--workers", type=int, default=1, help="worker processes (process backend only)"
    )
    sweep.add_argument("--platform", default="odroid_xu3", help="platform preset")
    sweep.add_argument(
        "--cache-stats",
        action="store_true",
        help="print operating-point cache hit/miss statistics per case",
    )
    sweep.add_argument(
        "--no-cache",
        action="store_true",
        help="run managers without the operating-point cache (identical results, slower)",
    )
    sweep.add_argument(
        "--dump-spec",
        default=None,
        metavar="FILE",
        help="write the sweep's experiment specs to FILE ('-' for stdout) instead of running",
    )
    _add_robustness_arguments(sweep)
    _add_store_arguments(sweep)
    sweep.set_defaults(func=cmd_sweep)

    bench = subparsers.add_parser(
        "bench",
        help="time decide()-per-epoch and end-to-end simulation; track in JSON",
    )
    bench.add_argument(
        "--scenarios",
        nargs="+",
        default=None,
        help="scenario names (default: the decision-heavy trio; with --smoke: rush_hour)",
    )
    bench.add_argument(
        "--managers",
        nargs="+",
        default=None,
        help="manager names (see 'managers list')",
    )
    bench.add_argument(
        "--repeats",
        type=int,
        default=None,
        help="runs per configuration, best kept (default 3; 1 with --smoke)",
    )
    bench.add_argument("--platform", default="odroid_xu3", help="platform preset")
    bench.add_argument(
        "--backend",
        default="serial",
        choices=["serial", "batched"],
        help="serial: time the decision kernel (default); batched: time the "
        "lock-step engine against the serial backend",
    )
    bench.add_argument(
        "--seeds",
        type=int,
        default=None,
        help="seeds per combination (--backend batched only; default 4, 2 with --smoke)",
    )
    bench.add_argument(
        "--smoke",
        action="store_true",
        help="CI subset: rush_hour x rtm, single repeat (batched: 2x2 grid, 2 seeds)",
    )
    bench.add_argument(
        "--output",
        default=DEFAULT_BENCH_PATH,
        help=f"JSON file to write (default {DEFAULT_BENCH_PATH}; "
        f"{DEFAULT_BATCHED_BENCH_PATH} with --backend batched)",
    )
    bench.add_argument(
        "--no-write",
        dest="output",
        action="store_const",
        const=None,
        help="measure and print only; do not write the JSON file",
    )
    bench.add_argument(
        "--compare",
        default=None,
        metavar="BASELINE_JSON",
        help="gate decide()-per-epoch against this committed baseline file",
    )
    bench.add_argument(
        "--max-regression",
        type=float,
        default=0.25,
        help="allowed decide()-per-epoch slowdown vs --compare (fraction, default 0.25)",
    )
    bench.add_argument(
        "--dump-spec",
        default=None,
        metavar="FILE",
        help="write the bench grid's experiment specs to FILE ('-' for stdout) instead of running",
    )
    _add_store_arguments(bench)
    bench.set_defaults(func=cmd_bench)

    fleet = subparsers.add_parser(
        "fleet",
        help="orchestrate many-device fleets: placement, migration, benchmarks",
    )
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)

    fleet_run = fleet_sub.add_parser(
        "run", help="run fleet spec files (TOML/JSON), or one fleet built from flags"
    )
    fleet_run.add_argument(
        "specs",
        nargs="*",
        metavar="SPEC",
        help="fleet spec files ([[fleet]] batch tables); omit to build one from flags",
    )
    fleet_run.add_argument(
        "--scenario",
        default="fleet_mixed_platforms",
        help="fleet scenario (see 'fleet scenarios list'; ignored with SPEC files)",
    )
    fleet_run.add_argument(
        "--policy",
        default="least_loaded",
        help="placement policy (see 'fleet policies list'; ignored with SPEC files)",
    )
    fleet_run.add_argument(
        "--devices",
        nargs="+",
        default=None,
        metavar="PRESET=COUNT",
        help="device mix override (default: the scenario's own mix)",
    )
    fleet_run.add_argument("--seed", type=int, default=0, help="fleet scenario seed")
    fleet_run.add_argument(
        "--backend",
        default="batched",
        choices=list(FLEET_BACKENDS),
        help="per-device execution backend (identical fingerprints; default batched)",
    )
    _add_store_arguments(fleet_run)
    fleet_run.set_defaults(func=cmd_fleet_run)

    fleet_sweep = fleet_sub.add_parser(
        "sweep", help="compare placement policies on one fleet scenario"
    )
    fleet_sweep.add_argument(
        "--scenario", default="fleet_rush_hour_regional", help="fleet scenario name"
    )
    fleet_sweep.add_argument(
        "--policies",
        nargs="+",
        default=["static", "least_loaded", "thermal_headroom"],
        help="placement policies to compare (see 'fleet policies list')",
    )
    fleet_sweep.add_argument(
        "--devices",
        nargs="+",
        default=None,
        metavar="PRESET=COUNT",
        help="device mix override (default: the scenario's own mix)",
    )
    fleet_sweep.add_argument("--seeds", type=int, default=1, help="seeds per policy")
    fleet_sweep.add_argument("--seed-base", type=int, default=0, help="first seed")
    fleet_sweep.add_argument(
        "--backend",
        default="batched",
        choices=list(FLEET_BACKENDS),
        help="per-device execution backend (identical fingerprints; default batched)",
    )
    _add_store_arguments(fleet_sweep)
    fleet_sweep.set_defaults(func=cmd_fleet_sweep)

    fleet_bench = fleet_sub.add_parser(
        "bench",
        help="time a large orchestrated fleet vs static placement; track in JSON",
    )
    fleet_bench.add_argument(
        "--devices", type=int, default=1000, help="fleet size (weighted preset mix)"
    )
    fleet_bench.add_argument(
        "--scenario", default="fleet_mixed_platforms", help="fleet scenario name"
    )
    fleet_bench.add_argument(
        "--policy", default="least_loaded", help="orchestrated policy to time vs static"
    )
    fleet_bench.add_argument("--seed", type=int, default=0, help="fleet scenario seed")
    fleet_bench.add_argument(
        "--no-serial-check",
        action="store_true",
        help="skip the serial re-run and its fingerprint identity check",
    )
    fleet_bench.add_argument(
        "--output",
        default=DEFAULT_FLEET_BENCH_PATH,
        help=f"JSON file to write (default {DEFAULT_FLEET_BENCH_PATH})",
    )
    fleet_bench.add_argument(
        "--no-write",
        dest="output",
        action="store_const",
        const=None,
        help="measure and print only; do not write the JSON file",
    )
    fleet_bench.add_argument(
        "--compare",
        default=None,
        metavar="BASELINE_JSON",
        help="gate the orchestrated wall time against this committed baseline",
    )
    fleet_bench.add_argument(
        "--max-regression",
        type=float,
        default=0.25,
        help="allowed orchestrated slowdown vs --compare (fraction, default 0.25)",
    )
    _add_store_arguments(fleet_bench)
    fleet_bench.set_defaults(func=cmd_fleet_bench)

    fleet_policies = fleet_sub.add_parser(
        "policies", help="inspect the placement-policy registry"
    )
    fleet_policies_sub = fleet_policies.add_subparsers(
        dest="fleet_policies_command", required=True
    )
    fleet_policies_list = fleet_policies_sub.add_parser(
        "list", help="list registered placement policies"
    )
    fleet_policies_list.set_defaults(func=cmd_fleet_policies_list)

    fleet_scenarios = fleet_sub.add_parser(
        "scenarios", help="inspect the fleet-scenario registry"
    )
    fleet_scenarios_sub = fleet_scenarios.add_subparsers(
        dest="fleet_scenarios_command", required=True
    )
    fleet_scenarios_list = fleet_scenarios_sub.add_parser(
        "list", help="list registered fleet scenarios"
    )
    fleet_scenarios_list.set_defaults(func=cmd_fleet_scenarios_list)

    store = subparsers.add_parser(
        "store", help="inspect and maintain a results store (SQLite warehouse)"
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)

    store_ls = store_sub.add_parser("ls", help="list stored results and bench runs")
    store_ls.add_argument("store", metavar="STORE", help="path to the results store")
    store_ls.set_defaults(func=cmd_store_ls)

    store_show = store_sub.add_parser("show", help="print one stored result in full")
    store_show.add_argument("store", metavar="STORE", help="path to the results store")
    store_show.add_argument("spec_id", metavar="SPEC_ID", help="spec id of the result")
    store_show.set_defaults(func=cmd_store_show)

    store_export = store_sub.add_parser(
        "export", help="export results to jsonl/csv rows or a replayable TOML batch"
    )
    store_export.add_argument("store", metavar="STORE", help="path to the results store")
    store_export.add_argument(
        "--format",
        default="jsonl",
        choices=["jsonl", "csv", "toml"],
        help="jsonl/csv: one flat row per result; toml: a replayable spec batch",
    )
    store_export.add_argument(
        "--out", required=True, metavar="FILE", help="file to write (atomically)"
    )
    store_export.set_defaults(func=cmd_store_export)

    store_gc = store_sub.add_parser(
        "gc", help="prune to the newest N results and compact the file"
    )
    store_gc.add_argument("store", metavar="STORE", help="path to the results store")
    store_gc.add_argument(
        "--keep-latest",
        type=int,
        required=True,
        metavar="N",
        help="number of newest results to keep",
    )
    store_gc.set_defaults(func=cmd_store_gc)

    store_diff = store_sub.add_parser(
        "diff", help="re-run a stored spec and compare fingerprints (exit 1 on drift)"
    )
    store_diff.add_argument("store", metavar="STORE", help="path to the results store")
    store_diff.add_argument("spec_id", metavar="SPEC_ID", help="spec id of the result")
    store_diff.set_defaults(func=cmd_store_diff)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the ``repro-experiments`` command."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - direct module execution
    raise SystemExit(main())
