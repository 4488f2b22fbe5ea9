"""Execute experiment specs: ``run(spec)`` and ``run_many(specs, backend=...)``.

The runner is the single execution path behind the CLI (``scenario``,
``sweep``, ``run``) and the benchmark harness:
every component of a run — scenario, platform, manager, simulator config —
is built from the spec's registry references inside the executing process, so
a spec crosses process (and machine) boundaries as pure data and replays
bit-identically wherever it lands.

Batches dispatch through the execution-backend registry
(:mod:`repro.experiments.backends`): ``serial`` runs specs one after
another, ``process`` fans them out over ``workers`` processes, ``batched``
advances all replicas in lock-step through shared decision machinery on one
core.  All backends produce bit-identical traces.

Design rules that keep every backend equivalent to a serial run:

* every spec is seeded explicitly; workers share no random state;
* results are reassembled in submission order, so aggregates are identical
  for any backend and worker count;
* a spec that raises is captured per case (``ExperimentBatch.errors``)
  instead of killing the batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.experiments.managers import MANAGER_REGISTRY, detach_op_cache, make_manager
from repro.experiments.spec import ExperimentSpec
from repro.registry import find_duplicates
from repro.sim.engine import ManagerProtocol, SimulatorConfig, simulate_scenario
from repro.sim.trace import SimulationTrace
from repro.workloads.scenarios import Scenario, build_scenario

__all__ = [
    "ExperimentResult",
    "ExperimentBatch",
    "build_scenario_from_spec",
    "build_manager_from_spec",
    "build_simulator_config",
    "build_fault_plan_from_spec",
    "run",
    "run_many",
    "grid_specs",
]


@dataclass
class ExperimentResult:
    """The outcome of one executed spec."""

    spec: ExperimentSpec
    trace: SimulationTrace

    @property
    def label(self) -> str:
        return self.spec.label

    @property
    def spec_id(self) -> str:
        return self.spec.spec_id()


@dataclass
class ExperimentBatch:
    """Results of ``run_many``: per-spec results plus per-spec errors.

    ``results`` is keyed by spec label in submission order; specs whose
    execution raised are absent from ``results`` and recorded in ``errors``
    as ``label -> message``.  Under ``run_many(..., store=..., resume=True)``
    specs whose spec_id was already in the store are not executed at all:
    their durable records land in ``skipped`` (``label ->``
    :class:`~repro.store.StoredResult`), so ``skipped_count`` vs
    ``computed_count`` reports how incremental the batch actually was.
    """

    results: Dict[str, ExperimentResult] = field(default_factory=dict)
    errors: Dict[str, str] = field(default_factory=dict)
    skipped: Dict[str, object] = field(default_factory=dict)

    @property
    def computed_count(self) -> int:
        """Specs executed by this batch (successes only)."""
        return len(self.results)

    @property
    def skipped_count(self) -> int:
        """Specs skipped because their spec_id was already stored."""
        return len(self.skipped)

    @property
    def traces(self) -> Dict[str, SimulationTrace]:
        """Per-case traces, keyed by label (submission order)."""
        return {label: result.trace for label, result in self.results.items()}

    def __len__(self) -> int:
        return len(self.results)

    # Per-case aggregates, keyed by label in submission order.

    def violation_rates(self) -> Dict[str, float]:
        """Violation rate per case."""
        return {label: result.trace.violation_rate() for label, result in self.results.items()}

    def energies_mj(self) -> Dict[str, float]:
        """Total inference energy per case."""
        return {label: result.trace.total_energy_mj() for label, result in self.results.items()}

    def mean_accuracies(self) -> Dict[str, float]:
        """Mean delivered accuracy per case."""
        return {
            label: result.trace.mean_accuracy_percent()
            for label, result in self.results.items()
        }

    def best_case(self) -> str:
        """Case with the lowest violation rate (ties broken by energy)."""
        if not self.results:
            raise ValueError("the batch produced no results")
        return min(
            self.results,
            key=lambda label: (
                self.results[label].trace.violation_rate(),
                self.results[label].trace.total_energy_mj(),
            ),
        )


# ------------------------------------------------------------------ builders


def build_scenario_from_spec(spec: ExperimentSpec) -> Scenario:
    """Instantiate the spec's scenario (seed and platform applied)."""
    return build_scenario(
        spec.scenario,
        seed=spec.seed,
        platform_name=spec.platform,
        **spec.scenario_params,
    )


def build_manager_from_spec(spec: ExperimentSpec) -> ManagerProtocol:
    """Instantiate the spec's manager, applying policy and RTM overrides.

    A spec without overrides goes through the plain registry factory, so an
    unadorned spec runs exactly the objects ``make_manager(spec.manager)``
    builds.
    """
    if not (spec.policy or spec.policy_overrides or spec.rtm):
        return make_manager(spec.manager, use_op_cache=spec.use_op_cache)

    entry = MANAGER_REGISTRY.entry(spec.manager)
    if not entry.metadata.get("configurable"):
        raise ValueError(
            f"manager {spec.manager!r} is not configurable: it accepts no "
            "policy/policy_overrides/rtm overrides"
        )
    from repro.rtm import RTMConfig, RuntimeManager
    from repro.rtm.policies import make_policy

    policy_name = spec.policy or entry.metadata.get("default_policy")
    policy = make_policy(str(policy_name)) if policy_name else None
    config = RTMConfig(**spec.rtm) if spec.rtm else None
    overrides = {
        app_id: make_policy(name) for app_id, name in spec.policy_overrides.items()
    }
    manager = RuntimeManager(
        policy=policy,
        config=config,
        policy_overrides=overrides or None,
    )
    if not spec.use_op_cache:
        detach_op_cache(manager)
    return manager


def build_simulator_config(spec: ExperimentSpec) -> Optional[SimulatorConfig]:
    """The spec's simulator tunables (``None`` means engine defaults)."""
    return SimulatorConfig(**spec.simulator) if spec.simulator else None


def build_fault_plan_from_spec(spec: ExperimentSpec):
    """The spec's fault plan (``None`` when the spec injects no faults).

    A non-empty plan overrides any plan attached to the scenario itself
    (e.g. by a ``chaos_*`` registry scenario); an empty ``faults`` table
    leaves the scenario's own plan in force.
    """
    if not spec.faults:
        return None
    from repro.sim.faults import FaultPlan

    return FaultPlan.from_dict(spec.faults)


# ----------------------------------------------------------------- execution


def run(spec: ExperimentSpec, validate: bool = True) -> ExperimentResult:
    """Execute one spec and return its result.

    Everything is built from the spec in this process: scenario (seeded),
    platform preset, manager (with policy/RTM overrides) and simulator
    config.  With ``validate`` (the default) the spec's registry references
    are checked up front so misspelled names fail with a suggestion instead
    of deep inside a worker.
    """
    if validate:
        spec.validate()
    scenario = build_scenario_from_spec(spec)
    manager = build_manager_from_spec(spec)
    trace = simulate_scenario(
        scenario,
        manager,
        config=build_simulator_config(spec),
        fault_plan=build_fault_plan_from_spec(spec),
    )
    return ExperimentResult(spec=spec, trace=trace)


def _run_one(spec: ExperimentSpec) -> ExperimentResult:
    """Worker entry point (module-level, hence picklable)."""
    return run(spec, validate=False)


def _run_one_timed(spec: ExperimentSpec):
    """Worker entry point returning ``(result, wall_seconds)``.

    The wall time is measured inside the worker, so it is the spec's own
    execution time — not submission-to-completion latency, which would fold
    in pool queueing.
    """
    import time

    start = time.perf_counter()
    result = run(spec, validate=False)
    return result, time.perf_counter() - start


def run_many(
    specs: Sequence[ExperimentSpec],
    backend: Optional[str] = None,
    workers: int = 1,
    validate: bool = True,
    store=None,
    resume: bool = False,
    retries: int = 0,
    retry_backoff: float = 0.0,
    spec_timeout: Optional[float] = None,
) -> ExperimentBatch:
    """Execute specs through a named execution backend.

    ``backend`` selects the execution strategy from
    :data:`repro.experiments.backends.EXECUTION_BACKEND_REGISTRY`:
    ``"serial"`` (one spec after another in-process), ``"process"`` (a pool
    of ``workers`` processes) or ``"batched"`` (the lock-step engine of
    :mod:`repro.sim.batched`, which shares decision machinery across
    replicas on one core).  Omitted, it defaults to ``"process"`` when
    ``workers > 1`` and ``"serial"`` otherwise, preserving the historical
    ``run_many(specs, workers=N)`` behaviour.  All backends produce
    bit-identical traces; they differ only in wall-clock time.

    ``store`` (a :class:`~repro.store.ResultsStore` or a path to one) makes
    the batch durable: every backend streams each completed result into it
    as the result finishes.  With ``resume=True`` specs whose spec_id is
    already stored are not executed — their stored records land in
    ``ExperimentBatch.skipped`` — so a killed sweep re-invoked with the same
    store completes exactly the missing work.

    Results are keyed by :attr:`ExperimentSpec.label` and reassembled in
    submission order, so aggregates are byte-identical for any backend and
    worker count.  One failing spec does not abort the batch: its error
    message lands in ``ExperimentBatch.errors`` under the label and the
    remaining specs still run.  Duplicate labels are rejected up front (give
    batch entries explicit ``name``\\ s to disambiguate repeats).

    ``retries`` re-executes specs that errored (transient crashes, lost
    workers) up to that many extra rounds, waiting ``retry_backoff * 2**i``
    seconds before round ``i``; specs recovered by a retry move from
    ``errors`` to ``results``.  ``spec_timeout`` (seconds, process backend
    only) is a per-spec watchdog: when no spec completes for that long, the
    stuck pending specs are recorded as errors instead of hanging the sweep.
    """
    import time as _time

    from repro.experiments.backends import make_execution_backend

    if workers < 1:
        raise ValueError("workers must be at least 1")
    if resume and store is None:
        raise ValueError("resume=True requires a results store")
    if retries < 0:
        raise ValueError("retries must be non-negative")
    if retry_backoff < 0:
        raise ValueError("retry_backoff must be non-negative")
    if spec_timeout is not None and spec_timeout <= 0:
        raise ValueError("spec_timeout must be positive")
    duplicates = find_duplicates(spec.label for spec in specs)
    if duplicates:
        raise ValueError(f"duplicate experiment labels: {duplicates}")
    if validate:
        for spec in specs:
            spec.validate()
    if backend is None:
        backend = "process" if workers > 1 else "serial"

    owns_store = False
    if store is not None and not hasattr(store, "put_result"):
        from repro.store import ResultsStore

        store = ResultsStore(store)
        owns_store = True
    try:
        to_run = list(specs)
        skipped: Dict[str, object] = {}
        if resume:
            present = store.ids()
            to_run = []
            for spec in specs:
                stored = store.get(spec.spec_id()) if spec.spec_id() in present else None
                if stored is not None:
                    skipped[spec.label] = stored
                else:
                    to_run.append(spec)
        execution_backend = make_execution_backend(backend)
        batch = execution_backend.execute(
            to_run, workers=workers, store=store, spec_timeout=spec_timeout
        )
        for attempt in range(retries):
            if not batch.errors:
                break
            if retry_backoff > 0:
                _time.sleep(retry_backoff * 2**attempt)
            by_label = {spec.label: spec for spec in to_run}
            retry_specs = [by_label[label] for label in batch.errors if label in by_label]
            if not retry_specs:
                break
            retry_batch = execution_backend.execute(
                retry_specs, workers=workers, store=store, spec_timeout=spec_timeout
            )
            for label, result in retry_batch.results.items():
                batch.results[label] = result
                batch.errors.pop(label, None)
            batch.errors.update(retry_batch.errors)
        # Keep results in submission order even when retries filled gaps.
        order = {spec.label: index for index, spec in enumerate(to_run)}
        batch.results = dict(
            sorted(batch.results.items(), key=lambda item: order.get(item[0], len(order)))
        )
        batch.skipped = skipped
        return batch
    finally:
        if owns_store:
            store.close()


def grid_specs(
    scenarios: Sequence[str],
    managers: Sequence[str],
    seeds: Sequence[int],
    platform: str = "odroid_xu3",
    use_op_cache: bool = True,
) -> List[ExperimentSpec]:
    """Cartesian (scenario, manager, seed) batch with ``s/m/seedN`` labels."""
    return [
        ExperimentSpec(
            scenario=scenario,
            manager=manager,
            seed=seed,
            platform=platform,
            use_op_cache=use_op_cache,
        )
        for scenario in scenarios
        for manager in managers
        for seed in seeds
    ]
