"""The benchmark's four workloads, each as one user of the simulator runs it.

Every workload is a batch: its whole input goes to the program at once,
from one process, on the in-process ``serial``/``batched`` backends.  The
simulated content of each workload is fixed, so its output digest and its
deterministic counts are the same on every run and can be pinned; the
``--seed`` draws the order in which that content is handed to the program
(spec submission order, device-table insertion order, file names), which
must not change any result.

A workload splits one repetition into ``setup`` (untimed by the measured
phase, timed as set-up), ``execute`` (the measured phase) and ``outcome``
(digest and simulated statistics, computed after the clock stops).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Tuple

from repro.experiments import runner
from repro.experiments.spec import ExperimentSpec
from repro.fleet import orchestrator
from repro.fleet.spec import FleetSpec
from repro.workloads import diurnal

HOUR_MS = 3_600_000.0


@dataclass
class Outcome:
    """What one repetition produced, reduced to checkable numbers."""

    digest: str
    cases: int
    errors: int = 0
    jobs: int = 0
    bad_jobs: int = 0
    completed: int = 0
    energy_mj: float = 0.0
    accuracy_sum: float = 0.0
    decisions: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    migrations: int = 0
    trace_records: int = 0


def case_digest(pairs: Iterable[Tuple[str, str]]) -> str:
    """sha256 (16 hex) over the sorted (label, trace fingerprint) pairs."""
    digest = hashlib.sha256()
    for label, fingerprint in sorted(pairs):
        digest.update(f"{label}:{fingerprint}\n".encode("utf-8"))
    return digest.hexdigest()[:16]


def outcome_from_traces(traces, digest: str, cases: int, errors: int) -> Outcome:
    """Aggregate the simulated statistics of a set of traces."""
    outcome = Outcome(digest=digest, cases=cases, errors=errors)
    for trace in traces:
        completed = trace.completed_jobs()
        outcome.jobs += len(trace.jobs)
        outcome.bad_jobs += trace.violation_count()
        outcome.completed += len(completed)
        outcome.energy_mj += sum(job.energy_mj for job in completed)
        outcome.accuracy_sum += sum(job.accuracy_percent for job in completed)
        outcome.decisions += len(trace.decisions)
        counters = trace.cache_counters()
        outcome.cache_hits += counters["hits"]
        outcome.cache_misses += counters["misses"]
    return outcome


def batch_outcome(batch) -> Outcome:
    traces = batch.traces
    digest = case_digest((label, trace.fingerprint()) for label, trace in traces.items())
    return outcome_from_traces(
        traces.values(), digest, cases=len(traces) + len(batch.errors), errors=len(batch.errors)
    )


class Sweep:
    """Batched ``run_many`` grid over seeded registry scenarios, written to a store."""

    name = "sweep"
    #: (scenarios, managers, scenario seeds); scenarios must be seeded, or the
    #: batched backend deduplicates the replicas into one simulation.
    grid = (
        ("rush_hour", "diurnal", "multi_app_contention", "bursty", "chaos_rush_hour_core_failure"),
        ("rtm", "rtm_min_energy", "governor_only", "static_deployment"),
        (0, 1),
    )
    smoke_grid = (("steady",), ("rtm", "governor_only"), (0,))

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.specs = runner.grid_specs(*(self.smoke_grid if smoke else self.grid))
        random.Random(seed).shuffle(self.specs)

    def setup(self, workdir: Path):
        return workdir / "results.db"

    def execute(self, store_path: Path):
        return runner.run_many(self.specs, backend="batched", store=str(store_path))

    def outcome(self, batch) -> Outcome:
        return batch_outcome(batch)


class DecideCold:
    """Serial uncached runs of the RTM managers on contention scenarios."""

    name = "decide_cold"
    grid = (("multi_app_contention", "chaos_double_fault", "accuracy_critical"),
            ("rtm", "rtm_min_energy"), (0,))
    smoke_grid = (("accuracy_critical",), ("rtm",), (0,))

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.specs = runner.grid_specs(*(self.smoke_grid if smoke else self.grid),
                                       use_op_cache=False)
        random.Random(seed).shuffle(self.specs)

    def setup(self, workdir: Path):
        return self.specs

    def execute(self, specs):
        return runner.run_many(specs, backend="serial")

    def outcome(self, batch) -> Outcome:
        return batch_outcome(batch)


#: Device mix of the churn fleet: every preset, weighted toward the cheaper boards.
FLEET_MIX = {"a13_like": 30, "generic_quad": 90, "jetson_nano": 60, "kirin990_like": 30,
             "odroid_xu3": 90}
FLEET_MIX_SMOKE = {"generic_quad": 6, "odroid_xu3": 6}


class FleetChurn:
    """Least-loaded fleet under device failures, on the batched fleet backend."""

    name = "fleet_churn"

    def __init__(self, seed: int, smoke: bool = False) -> None:
        mix = list((FLEET_MIX_SMOKE if smoke else FLEET_MIX).items())
        random.Random(seed).shuffle(mix)
        self.spec = FleetSpec(
            "fleet_device_churn", policy="least_loaded", seed=0, devices=dict(mix)
        )

    def setup(self, workdir: Path):
        return orchestrator.FleetOrchestrator(self.spec, backend="batched")

    def execute(self, fleet):
        return fleet.run()

    def outcome(self, result) -> Outcome:
        outcome = outcome_from_traces(
            result.traces.values(), result.fingerprint(), cases=1, errors=0
        )
        outcome.migrations = len(result.migrations)
        return outcome


class LongReplay:
    """A multi-hour diurnal trace written to a gzip file, then replayed by the RTM."""

    name = "long_replay"
    config = dict(duration_ms=2 * HOUR_MS, base_rate_per_s=0.01, mean_session_ms=30_000.0)
    smoke = dict(duration_ms=120_000.0, base_rate_per_s=0.1, mean_session_ms=20_000.0)

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.traffic = diurnal.DiurnalConfig(**(self.smoke if smoke else self.config))
        self.file_name = f"diurnal-{seed}.jsonl.gz"
        self.records = 0

    def setup(self, workdir: Path):
        path = workdir / self.file_name
        self.records = diurnal.write_diurnal_trace(path, self.traffic, seed=0)
        return ExperimentSpec(
            scenario="trace", manager="rtm", name="long_replay",
            scenario_params={"path": str(path)},
        )

    def execute(self, spec):
        return runner.run(spec)

    def outcome(self, result) -> Outcome:
        trace = result.trace
        outcome = outcome_from_traces(
            [trace], case_digest([(result.label, trace.fingerprint())]), cases=1, errors=0
        )
        outcome.trace_records = self.records
        return outcome


WORKLOADS = {cls.name: cls for cls in (Sweep, DecideCold, FleetChurn, LongReplay)}
