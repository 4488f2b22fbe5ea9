"""Decision-kernel benchmark harness with a tracked JSON trajectory.

``repro-experiments bench`` times the two numbers every performance PR is
judged on — mean ``decide()`` time per decision epoch (with the
operating-point cache enabled and disabled) and end-to-end simulation time —
for a grid of registry scenarios x managers, and writes them to a
``BENCH_*.json`` file that is committed next to the code.  CI re-runs a smoke
subset on every push and fails when decide()-per-epoch regresses more than a
configured fraction against the committed baseline, so the perf trajectory
of the decision path is enforced, not just observed.

The committed file may carry a ``reference`` section: timings of an older
implementation measured with this same harness (the pre-columnar-kernel
profile seeded it).  When present it is preserved across refreshes and the
report prints speedup factors against it.
"""

from __future__ import annotations

import dataclasses
import json
import platform
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.experiments.runner import (
    build_manager_from_spec,
    build_scenario_from_spec,
    build_simulator_config,
)
from repro.experiments.spec import ExperimentSpec
from repro.ioutils import atomic_write_text
from repro.sim.engine import ManagerProtocol, SimulatorConfig, simulate_scenario

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "BENCH_KIND_DECISION",
    "BENCH_KIND_BATCHED",
    "DEFAULT_BENCH_PATH",
    "DEFAULT_BATCHED_BENCH_PATH",
    "BenchTimings",
    "BenchRegression",
    "BatchedBenchResult",
    "run_bench_spec",
    "run_bench_specs",
    "run_bench_case",
    "run_bench",
    "run_batched_bench",
    "write_bench_file",
    "write_batched_bench_file",
    "load_bench_file",
    "compare_bench",
    "compare_batched_bench",
]

BENCH_SCHEMA_VERSION = 1

#: Where the committed perf trajectory of the decision kernel lives.
DEFAULT_BENCH_PATH = "BENCH_decision_kernel.json"

#: Where the committed perf trajectory of the batched engine lives.
DEFAULT_BATCHED_BENCH_PATH = "BENCH_batched_engine.json"

#: Benchmark fields gated by :func:`compare_bench` (lower is better).
GATED_FIELDS = ("decide_ms_per_epoch_cached", "decide_ms_per_epoch_uncached")

#: ``bench_runs``/``bench_cases`` kind tags in the results store.
BENCH_KIND_DECISION = "decision_kernel"
BENCH_KIND_BATCHED = "batched_engine"


class _TimedManager:
    """Transparent manager wrapper accumulating decide() wall time."""

    def __init__(self, inner: ManagerProtocol) -> None:
        self._inner = inner
        self.total_s = 0.0
        self.count = 0

    def decide(self, state):  # noqa: ANN001 - mirrors ManagerProtocol
        start = time.perf_counter()
        decision = self._inner.decide(state)
        self.total_s += time.perf_counter() - start
        self.count += 1
        return decision

    def __getattr__(self, name: str):
        # The simulator probes optional manager attributes (cache_stats);
        # forward everything that is not timing bookkeeping.
        return getattr(self._inner, name)


@dataclass
class BenchTimings:
    """Timings of one (scenario, manager) benchmark case."""

    scenario: str
    manager: str
    decisions: int
    jobs: int
    e2e_s: float
    e2e_s_uncached: float
    decide_ms_per_epoch_cached: float
    decide_ms_per_epoch_uncached: float

    def as_dict(self) -> Dict[str, object]:
        return {
            "decisions": self.decisions,
            "jobs": self.jobs,
            "e2e_s": self.e2e_s,
            "e2e_s_uncached": self.e2e_s_uncached,
            "decide_ms_per_epoch_cached": self.decide_ms_per_epoch_cached,
            "decide_ms_per_epoch_uncached": self.decide_ms_per_epoch_uncached,
        }

    @property
    def key(self) -> str:
        return f"{self.scenario}/{self.manager}"


@dataclass
class BenchRegression:
    """One gated metric that exceeded the allowed regression."""

    case: str
    metric: str
    baseline: float
    current: float

    @property
    def ratio(self) -> float:
        return self.current / self.baseline if self.baseline else float("inf")

    def __str__(self) -> str:
        return (
            f"{self.case} {self.metric}: {self.current:.4f} vs baseline "
            f"{self.baseline:.4f} ({self.ratio:.2f}x)"
        )


def _one_run(spec: ExperimentSpec) -> tuple:
    """(e2e seconds, decide ms/epoch, decisions, jobs) of one spec execution."""
    scenario = build_scenario_from_spec(spec)
    manager = _TimedManager(build_manager_from_spec(spec))
    simulator_config = build_simulator_config(spec)
    start = time.perf_counter()
    trace = simulate_scenario(scenario, manager, config=simulator_config)
    e2e_s = time.perf_counter() - start
    decide_ms = manager.total_s / manager.count * 1000.0 if manager.count else 0.0
    return e2e_s, decide_ms, manager.count, len(trace.jobs)


def run_bench_spec(spec: ExperimentSpec, repeats: int = 3) -> BenchTimings:
    """Benchmark one experiment spec (cached and uncached decision path).

    The spec's ``use_op_cache`` flag is overridden both ways: every case is
    timed with the operating-point cache enabled *and* disabled, since the
    two decide()-per-epoch numbers are the benchmark's payload.  Each
    configuration runs ``repeats`` times and the best (minimum) timing is
    kept — the standard way to suppress scheduler noise when the workload is
    deterministic.
    """
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    cached_spec = dataclasses.replace(spec, use_op_cache=True)
    uncached_spec = dataclasses.replace(spec, use_op_cache=False)
    cached = [_one_run(cached_spec) for _ in range(repeats)]
    uncached = [_one_run(uncached_spec) for _ in range(repeats)]
    decisions, jobs = cached[0][2], cached[0][3]
    return BenchTimings(
        scenario=spec.scenario,
        manager=spec.manager,
        decisions=decisions,
        jobs=jobs,
        e2e_s=round(min(run[0] for run in cached), 4),
        e2e_s_uncached=round(min(run[0] for run in uncached), 4),
        decide_ms_per_epoch_cached=round(min(run[1] for run in cached), 4),
        decide_ms_per_epoch_uncached=round(min(run[1] for run in uncached), 4),
    )


def _timings_payload(timings: BenchTimings) -> Dict[str, object]:
    """Store payload of one bench case (``as_dict`` plus the case identity)."""
    return {"scenario": timings.scenario, "manager": timings.manager, **timings.as_dict()}


def _timings_from_payload(payload: Dict[str, object]) -> BenchTimings:
    return BenchTimings(**payload)  # type: ignore[arg-type]


def run_bench_specs(
    specs: Sequence[ExperimentSpec],
    repeats: int = 3,
    progress=None,
    store=None,
    resume: bool = False,
) -> List[BenchTimings]:
    """Benchmark a sequence of experiment specs.

    ``progress`` is an optional callable invoked with each finished
    :class:`BenchTimings` (the CLI prints a row per case).

    ``store`` (a :class:`~repro.store.ResultsStore`) makes the bench
    incremental the same way a sweep is: each case's timings are streamed to
    the store's ``bench_cases`` table under its spec_id as the case
    finishes, and with ``resume=True`` cases already stored are *loaded*
    instead of re-timed — an interrupted bench grid picks up where it died.
    """
    if resume and store is None:
        raise ValueError("resume=True requires a results store")
    results = []
    for spec in specs:
        spec_id = spec.spec_id()
        timings = None
        if resume:
            payload = store.get_bench_case(spec_id, BENCH_KIND_DECISION)
            if payload is not None:
                timings = _timings_from_payload(payload)
        if timings is None:
            timings = run_bench_spec(spec, repeats=repeats)
            if store is not None:
                store.put_bench_case(spec_id, BENCH_KIND_DECISION, _timings_payload(timings))
        if progress is not None:
            progress(timings)
        results.append(timings)
    return results


def run_bench_case(
    scenario_name: str,
    manager_name: str,
    repeats: int = 3,
    platform_name: str = "odroid_xu3",
    seed: int = 0,
    simulator_config: Optional[SimulatorConfig] = None,
) -> BenchTimings:
    """Benchmark one (scenario, manager) combination (spec-backed front-end)."""
    spec = ExperimentSpec(
        scenario=scenario_name,
        manager=manager_name,
        platform=platform_name,
        seed=seed,
        simulator=dataclasses.asdict(simulator_config) if simulator_config else {},
    )
    return run_bench_spec(spec, repeats=repeats)


def run_bench(
    scenarios: Sequence[str],
    managers: Sequence[str],
    repeats: int = 3,
    platform_name: str = "odroid_xu3",
    seed: int = 0,
    simulator_config: Optional[SimulatorConfig] = None,
    progress=None,
) -> List[BenchTimings]:
    """Benchmark a scenarios x managers grid.

    ``progress`` is an optional callable invoked with each finished
    :class:`BenchTimings` (the CLI prints a row per case).
    """
    simulator = dataclasses.asdict(simulator_config) if simulator_config else {}
    specs = [
        ExperimentSpec(
            scenario=scenario_name,
            manager=manager_name,
            platform=platform_name,
            seed=seed,
            simulator=simulator,
        )
        for scenario_name in scenarios
        for manager_name in managers
    ]
    return run_bench_specs(specs, repeats=repeats, progress=progress)


# ------------------------------------------------------- batched-engine bench


@dataclass
class BatchedBenchResult:
    """Timings of the lock-step batched engine against the serial backend.

    ``fingerprints_identical`` is the correctness payload: every spec's trace
    fingerprint must match between the two backends, or the comparison is
    meaningless however fast the engine ran.
    """

    specs: int
    batched_s: float
    serial_s: float
    fingerprints_identical: bool
    errors: int

    @property
    def speedup(self) -> float:
        """Serial wall time over batched wall time (higher is better)."""
        return self.serial_s / self.batched_s if self.batched_s else float("inf")

    def as_dict(self) -> Dict[str, object]:
        return {
            "specs": self.specs,
            "batched_s": self.batched_s,
            "serial_s": self.serial_s,
            "speedup": round(self.speedup, 2),
            "fingerprints_identical": self.fingerprints_identical,
            "errors": self.errors,
        }


def _time_backend(specs: Sequence[ExperimentSpec], backend: str) -> tuple:
    """(wall seconds, label -> fingerprint, error count) of one batch run."""
    from repro.experiments.runner import run_many

    start = time.perf_counter()
    batch = run_many(specs, backend=backend, validate=False)
    wall_s = time.perf_counter() - start
    fingerprints = {label: trace.fingerprint() for label, trace in batch.traces.items()}
    return wall_s, fingerprints, len(batch.errors)


def run_batched_bench(
    specs: Sequence[ExperimentSpec],
    repeats: int = 1,
    progress=None,
) -> BatchedBenchResult:
    """Time the ``batched`` backend against the ``serial`` reference.

    Each backend runs ``repeats`` times and the best wall time is kept.  The
    batched passes run *before* the serial ones: hundreds of live serial
    traces inflate allocator pressure for everything timed after them, and
    ordering batched first keeps its measurement clean (the serial runs are
    long enough to be insensitive to the leftover batched state).

    ``progress`` is an optional callable invoked with a one-line message per
    completed pass (the CLI prints them).
    """
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    batched_runs = []
    for index in range(repeats):
        run = _time_backend(specs, "batched")
        batched_runs.append(run)
        if progress is not None:
            progress(f"batched pass {index + 1}/{repeats}: {run[0]:.2f} s")
    serial_runs = []
    for index in range(repeats):
        run = _time_backend(specs, "serial")
        serial_runs.append(run)
        if progress is not None:
            progress(f"serial pass {index + 1}/{repeats}: {run[0]:.2f} s")
    batched_fingerprints = batched_runs[0][1]
    serial_fingerprints = serial_runs[0][1]
    errors = batched_runs[0][2] + serial_runs[0][2]
    return BatchedBenchResult(
        specs=len(specs),
        batched_s=round(min(run[0] for run in batched_runs), 4),
        serial_s=round(min(run[0] for run in serial_runs), 4),
        fingerprints_identical=(errors == 0 and batched_fingerprints == serial_fingerprints),
        errors=errors,
    )


def write_batched_bench_file(
    path: str,
    result: BatchedBenchResult,
    repeats: int,
    platform_name: str,
    grid: Optional[Dict[str, object]] = None,
    store=None,
) -> Dict[str, object]:
    """Write the batched-engine benchmark JSON (and return the document).

    The write is atomic, and with a ``store`` the document is also appended
    to its ``bench_runs`` table — the JSON file is then just a view over the
    newest stored run.
    """
    document: Dict[str, object] = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "generated_by": "repro-experiments bench --backend batched",
        "generated_at_unix": int(time.time()),
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "system": platform.system(),
        },
        "config": {"repeats": repeats, "platform": platform_name, **(grid or {})},
        "results": result.as_dict(),
    }
    atomic_write_text(path, json.dumps(document, indent=2, sort_keys=False) + "\n")
    if store is not None:
        store.put_bench_run(BENCH_KIND_BATCHED, document)
    return document


def compare_batched_bench(
    result: BatchedBenchResult,
    baseline: Dict[str, object],
    max_regression: float = 0.25,
) -> List[BenchRegression]:
    """Gate a fresh batched-engine timing against a committed baseline.

    Only ``batched_s`` is gated — the serial backend is re-measured for
    the speedup report, not tracked.  Gating is skipped when the baseline
    measured a different spec count (the grids are not comparable).
    """
    if max_regression < 0:
        raise ValueError("max_regression must be non-negative")
    baseline_results = baseline.get("results", {})
    if not isinstance(baseline_results, dict):
        return []
    if baseline_results.get("specs") != result.specs:
        return []
    base_value = baseline_results.get("batched_s")
    if not base_value:
        return []
    if result.batched_s > float(base_value) * (1.0 + max_regression):
        return [
            BenchRegression(
                case="batched_engine",
                metric="batched_s",
                baseline=float(base_value),
                current=result.batched_s,
            )
        ]
    return []


def _speedups(reference: Dict[str, dict], results: Dict[str, dict]) -> Dict[str, dict]:
    speedups: Dict[str, dict] = {}
    for key, current in results.items():
        base = reference.get(key)
        if not base:
            continue
        entry = {}
        for metric in (
            "e2e_s",
            "e2e_s_uncached",
            "decide_ms_per_epoch_cached",
            "decide_ms_per_epoch_uncached",
        ):
            if base.get(metric) and current.get(metric):
                entry[metric] = round(base[metric] / current[metric], 2)
        if entry:
            speedups[key] = entry
    return speedups


def write_bench_file(
    path: str,
    results: Sequence[BenchTimings],
    repeats: int,
    platform_name: str,
    seed: int = 0,
    reference: Optional[Dict[str, dict]] = None,
    reference_note: str = "",
    store=None,
) -> Dict[str, object]:
    """Write the benchmark JSON (and return the document).

    ``reference`` timings — typically the pre-optimisation profile carried
    over from the existing file — are embedded unchanged, and speedup factors
    against them are recomputed from the fresh results.  The write is atomic,
    and with a ``store`` the document is appended to its ``bench_runs`` table
    so the committed JSON becomes a view over the warehouse's bench trend.
    """
    result_map = {timings.key: timings.as_dict() for timings in results}
    document: Dict[str, object] = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "generated_by": "repro-experiments bench",
        "generated_at_unix": int(time.time()),
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "system": platform.system(),
        },
        "config": {"repeats": repeats, "platform": platform_name, "seed": seed},
        "results": result_map,
    }
    if reference:
        document["reference"] = reference
        if reference_note:
            document["reference_note"] = reference_note
        document["speedup_vs_reference"] = _speedups(reference, result_map)
    atomic_write_text(path, json.dumps(document, indent=2, sort_keys=False) + "\n")
    if store is not None:
        store.put_bench_run(BENCH_KIND_DECISION, document)
    return document


def load_bench_file(path: str) -> Dict[str, object]:
    """Load a benchmark JSON document."""
    with open(path, "r", encoding="utf-8") as stream:
        return json.load(stream)


def compare_bench(
    current: Sequence[BenchTimings],
    baseline: Dict[str, object],
    max_regression: float = 0.25,
) -> List[BenchRegression]:
    """Gate fresh timings against a committed baseline document.

    Returns the decide()-per-epoch metrics that are more than
    ``max_regression`` (fraction) slower than the baseline for cases present
    in both.  End-to-end times are not gated: they carry the full simulation
    noise of the machine, while decide() time is what the decision-kernel
    trajectory tracks.
    """
    if max_regression < 0:
        raise ValueError("max_regression must be non-negative")
    baseline_results = baseline.get("results", {})
    regressions: List[BenchRegression] = []
    for timings in current:
        base = baseline_results.get(timings.key)
        if not base:
            continue
        fresh = timings.as_dict()
        for metric in GATED_FIELDS:
            base_value = base.get(metric)
            value = fresh.get(metric)
            if not base_value or value is None:
                continue
            if value > base_value * (1.0 + max_regression):
                regressions.append(
                    BenchRegression(
                        case=timings.key,
                        metric=metric,
                        baseline=float(base_value),
                        current=float(value),
                    )
                )
    return regressions
