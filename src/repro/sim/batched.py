"""Batched lock-step simulation engine.

Runs N replicas (seeds x scenarios x managers) of the discrete-event
simulator in one process, advancing them in lock-step and evaluating their
decision epochs through *shared* operating-point machinery: one
enumerate/front/price pass per distinct (platform topology, model, query)
bucket, one allocator run per distinct (manager behaviour, decision inputs)
pair, replayed into every replica that asks the same question.  This is the
batching trick of the columnar decision kernel (PR 3) lifted one level up —
from the rows of one decision to the replicas of a whole sweep.

Every replica is a plain :class:`~repro.sim.engine.Simulator` — the same
class, with the same per-run memos, that serial runs use; a replica differs
only in sharing its decision store and operating-point cache entries with
the rest of the batch.  Results are bit-identical to serial runs;
fingerprints are the contract.  Four properties make that sound:

* Every shared store is keyed by *value* (model cache keys, platform
  topology keys, complete decision signatures), never by replica, and a
  replayed decision re-applies the recorded actions and home-cluster
  affinities of the allocator run it stands for.
* The operating-point cache's invalidations bound staleness and memory for a
  long-lived manager; they are not a correctness requirement (keys are
  complete).  The shared store therefore ignores flush requests, which is
  what turns N managers' redundant re-enumerations into hits.
* Replica count and order cannot influence any replica's trace: each
  replica's event queue is private, and the shared stores hold pure
  functions of complete keys — *which* replica computed an entry first
  changes nothing about its value.
* Replicas whose complete simulation inputs are equal by value (same
  scenario content, manager configuration and simulator tunables — e.g. a
  deterministic scenario swept over seeds) are collapsed to one simulation
  whose trace is shared, exactly because equal inputs produce equal traces.

The module exposes :class:`BatchedEngine` (scenario/manager level); spec
level dispatch lives in :mod:`repro.experiments.backends` as the ``batched``
execution backend.
"""

from __future__ import annotations

import gc
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.rtm.cache import OperatingPointCache
from repro.rtm.manager import RuntimeManager
from repro.sim.engine import ManagerProtocol, Simulator, SimulatorConfig
from repro.sim.faults import FaultPlan
from repro.sim.trace import SimulationTrace
from repro.workloads.scenarios import Scenario
from repro.workloads.tasks import DNNApplication, GenericApplication

__all__ = [
    "BatchedCase",
    "BatchedEngine",
    "SharedSimulationStores",
    "SharedOperatingPointCache",
    "gc_suspended",
    "make_batched_simulator",
    "scenario_content_key",
]


# --------------------------------------------------------------------- stores


class SharedSimulationStores:
    """Cross-replica value-keyed stores.

    One instance is shared by every replica of a batch.  All four
    operating-point stores are keyed by the cache's own complete query keys
    (model cache key, platform topology key, online cores, temperature
    bucket, ...) and the decision store by (manager behaviour key, decision
    signature).
    """

    def __init__(self) -> None:
        self.tables: OrderedDict = OrderedDict()
        self.pareto_tables: OrderedDict = OrderedDict()
        self.points: OrderedDict = OrderedDict()
        self.pareto_points: OrderedDict = OrderedDict()
        self.decisions: Dict[tuple, tuple] = {}


class SharedOperatingPointCache(OperatingPointCache):
    """A per-replica cache view whose entry stores are shared and never flushed.

    Each replica's manager gets its own instance (``space_for`` keeps
    per-instance ``OperatingPointSpace`` identity bookkeeping), but the four
    entry dictionaries alias the batch-wide stores.  ``invalidate`` only
    counts: entry keys are complete, so flushing is a staleness/memory bound
    for long-lived managers, not a correctness requirement — and a batch is
    short-lived by definition.
    """

    def __init__(self, stores: SharedSimulationStores, max_entries: int = 1_000_000) -> None:
        super().__init__(max_entries=max_entries)
        self._tables = stores.tables
        self._pareto_tables = stores.pareto_tables
        self._points = stores.points
        self._pareto = stores.pareto_points

    def invalidate(self, reason: str) -> None:
        self.stats.invalidations[reason] = self.stats.invalidations.get(reason, 0) + 1


# ------------------------------------------------------------------- the batch


def scenario_content_key(scenario: Scenario) -> Optional[tuple]:
    """Value key of everything a simulation reads from a scenario.

    Two scenarios with equal keys produce identical simulations under
    identical managers and configs; the batched engine uses the key to
    collapse duplicate replicas (e.g. a deterministic scenario swept over
    seeds).  Returns ``None`` (not keyable) for unknown application types.
    """
    applications = []
    for application in scenario.applications:
        base = (
            application.app_id,
            type(application).__name__,
            str(application.kind),
            application.priority,
            application.requirements.cache_key(),
            application.arrival_time_ms,
            application.departure_time_ms,
            application.memory_footprint_mb,
        )
        if isinstance(application, DNNApplication):
            applications.append(
                base
                + (
                    application.trained.cache_key(),
                    application.dynamic_dnn.active_fraction,
                    application.preprocessing_cores,
                )
            )
        elif isinstance(application, GenericApplication):
            demand = application.demand
            applications.append(
                base
                + (
                    (
                        demand.core_type,
                        demand.cores,
                        demand.min_frequency_mhz,
                        demand.utilisation,
                    ),
                )
            )
        else:
            return None
    events = tuple(
        (
            event.time_ms,
            event.kind.value,
            event.app_id,
            event.new_requirements.cache_key() if event.new_requirements is not None else None,
        )
        for event in scenario.events()
    )
    fault_plan = getattr(scenario, "fault_plan", None)
    return (
        scenario.platform_name,
        scenario.duration_ms,
        tuple(applications),
        events,
        fault_plan.content_key() if fault_plan is not None else None,
    )


@contextmanager
def gc_suspended() -> Iterator[None]:
    """Suspend the cyclic garbage collector for a many-simulator run.

    Hundreds of simultaneously-live simulators make cyclic-GC scans the
    single largest cost of a large batch or fleet, and a collection that
    lands inside a timed decision dwarfs it.  The simulators' object graph
    is reference-counted (traces and stores only grow, event closures die
    with their events), so nothing needs the collector mid-run.  The
    previous collector state is restored on exit.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def make_batched_simulator(
    scenario: Scenario,
    manager: ManagerProtocol,
    stores: SharedSimulationStores,
    config: Optional[SimulatorConfig] = None,
    fault_plan: Optional[FaultPlan] = None,
) -> Simulator:
    """One lock-step replica on shared stores.

    Attaches a :class:`SharedOperatingPointCache` to cache-bearing runtime
    managers, then builds a :class:`Simulator` on the batch's shared
    decision store.  :meth:`BatchedEngine.run`
    builds its replicas here, and so does the fleet orchestrator
    (:mod:`repro.fleet`), which steers many simulators itself (placing and
    migrating applications between ``advance_to`` strides) and therefore
    cannot go through the engine.
    """
    if isinstance(manager, RuntimeManager) and manager.cache is not None:
        manager.set_operating_point_cache(SharedOperatingPointCache(stores))
    return Simulator(
        scenario,
        manager,
        config=config,
        fault_plan=fault_plan,
        decision_store=stores.decisions,
    )


@dataclass
class BatchedCase:
    """One replica of a batch.

    ``dedup_key`` is an optional value key of the *complete* simulation
    inputs (scenario content plus manager/simulator construction inputs);
    cases with equal non-``None`` keys share one simulation and one trace.
    """

    label: str
    scenario: Scenario
    manager: ManagerProtocol
    config: Optional[SimulatorConfig] = None
    fault_plan: Optional[FaultPlan] = None
    dedup_key: Optional[tuple] = field(default=None, compare=False)


class BatchedEngine:
    """Lock-step driver advancing every replica of a batch in one process.

    All replicas are primed, then advanced together in decision-interval
    strides; replicas reaching the same decision epoch in the same stride
    resolve it through the shared stores while the entries are hot.  Slicing
    the timeline cannot change any replica's trace — the event queue's
    ordering key is (time, priority, sequence) regardless of how
    ``run_until`` calls are split — so lock-stepping is purely a locality
    choice.

    Failures are isolated per replica, mirroring the process backend: a
    replica that raises is recorded in the errors mapping and the rest of
    the batch completes.
    """

    def __init__(self, stores: Optional[SharedSimulationStores] = None) -> None:
        self.stores = stores or SharedSimulationStores()

    def run(
        self, cases: List[BatchedCase], on_complete=None
    ) -> Tuple[Dict[str, SimulationTrace], Dict[str, str]]:
        """Run every case; returns (label -> trace, label -> error message).

        ``on_complete(label, trace)``, when given, fires the moment a
        replica's timeline ends — replicas finish on different lock-step
        strides, so a consumer (e.g. a results store) receives completed
        traces progressively rather than when the whole batch drains.  A
        deduplicated group fires once per member label.

        Garbage collection is suspended for the duration of the batch (see
        :func:`gc_suspended`).
        """
        with gc_suspended():
            return self._run(cases, on_complete)

    def _run(
        self, cases: List[BatchedCase], on_complete=None
    ) -> Tuple[Dict[str, SimulationTrace], Dict[str, str]]:
        traces: Dict[str, SimulationTrace] = {}
        errors: Dict[str, str] = {}
        # Collapse duplicate replicas: equal complete inputs, equal traces.
        groups: "OrderedDict[object, List[BatchedCase]]" = OrderedDict()
        for case in cases:
            group_key = case.dedup_key if case.dedup_key is not None else ("unique", case.label)
            groups.setdefault(group_key, []).append(case)

        replicas: List[Tuple[List[str], Simulator]] = []
        for group in groups.values():
            primary = group[0]
            labels = [case.label for case in group]
            try:
                simulator = make_batched_simulator(
                    primary.scenario,
                    primary.manager,
                    self.stores,
                    config=primary.config,
                    fault_plan=primary.fault_plan,
                )
                simulator.prime()
            except Exception as exc:  # noqa: BLE001 - isolate per replica
                message = f"{type(exc).__name__}: {exc}"
                for label in labels:
                    errors[label] = message
                continue
            replicas.append((labels, simulator))

        # Advance everything in lock-step strides of the smallest decision
        # interval, so replicas sharing epoch times hit the stores together.
        active = [
            (labels, simulator, simulator.scenario.duration_ms)
            for labels, simulator in replicas
        ]
        if active:
            stride = min(simulator.config.decision_interval_ms for _, simulator, _ in active)
            now = 0.0
            while active:
                now += stride
                still_running = []
                for labels, simulator, duration_ms in active:
                    try:
                        simulator.advance_to(now)
                    except Exception as exc:  # noqa: BLE001 - isolate per replica
                        message = f"{type(exc).__name__}: {exc}"
                        for label in labels:
                            errors[label] = message
                        continue
                    if now >= duration_ms:
                        for label in labels:
                            traces[label] = simulator.trace
                            if on_complete is not None:
                                on_complete(label, simulator.trace)
                    else:
                        still_running.append((labels, simulator, duration_ms))
                active = still_running
        return traces, errors
