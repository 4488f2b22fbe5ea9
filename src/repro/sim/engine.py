"""Discrete-event simulator for runtime scenarios.

The simulator executes a :class:`~repro.workloads.scenarios.Scenario` on a
platform model under the control of a runtime manager.  It owns everything the
RTM must not decide by itself: job release and completion, core reservations,
thermal integration, and the bookkeeping of delivered performance.

The manager is pluggable: anything with a ``decide(state) -> decision`` method
(where the decision has an ``actions`` list) can drive the platform.  The
application-aware :class:`~repro.rtm.manager.RuntimeManager` and the baseline
managers in :mod:`repro.baselines` share this interface, so the Fig 2
benchmark and the ablation study replay identical scenarios under different
management schemes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import exp, isfinite
from typing import Dict, List, Optional, Protocol

from repro.perfmodel.calibrated import CalibratedLatencyModel
from repro.perfmodel.energy import EnergyModel, InferenceCost
from repro.platforms.power import ClusterPowerModel
from repro.platforms.soc import Soc
from repro.rtm.state import (
    Action,
    AppRuntimeState,
    MapApplication,
    Mapping,
    SetConfiguration,
    SetCoresOnline,
    SetFrequency,
    SystemState,
    UnmapApplication,
)
from repro.sim.events import EVENT_PRIORITY_STRUCTURAL, EventQueue
from repro.sim.faults import (
    CoreFailure,
    CoreRecovery,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    FrequencyCap,
    FrequencyCapRelease,
    SensorBias,
    SensorDropout,
    SensorRestore,
)
from repro.sim.trace import (
    DecisionRecord,
    FaultRecord,
    JobRecord,
    PowerSample,
    SimulationTrace,
)
from repro.workloads.requirements import MetricSample
from repro.workloads.scenarios import Scenario, ScenarioEvent, ScenarioEventKind
from repro.workloads.tasks import Application, DNNApplication, GenericApplication

__all__ = ["ManagerProtocol", "SimulatorConfig", "Simulator", "simulate_scenario"]


class ManagerProtocol(Protocol):
    """Anything that can make resource-management decisions for the simulator."""

    def decide(self, state: SystemState) -> object:  # pragma: no cover - protocol
        """Return an object with an ``actions`` attribute (list of Action)."""
        ...


@dataclass(frozen=True)
class SimulatorConfig:
    """Tunables of the discrete-event simulation.

    Attributes
    ----------
    decision_interval_ms:
        Period of the runtime manager's decision epochs.
    thermal_sample_interval_ms:
        Period of power/temperature sampling.
    migration_penalty_ms:
        Latency charged to the first job after an application changes cluster.
    max_backlog:
        Released-but-not-started jobs an application may queue before drops.
    busy_utilisation:
        Core utilisation assumed while an inference runs.
    retry_interval_ms:
        Release retry period for best-effort (no target fps) applications
        while they are unmapped.
    """

    decision_interval_ms: float = 500.0
    thermal_sample_interval_ms: float = 100.0
    migration_penalty_ms: float = 20.0
    max_backlog: int = 2
    busy_utilisation: float = 0.95
    retry_interval_ms: float = 100.0

    def __post_init__(self) -> None:
        # NaN passes every ordered comparison below as "valid", and a NaN or
        # infinite interval never lets the clock reach the scenario end.
        for name in (
            "decision_interval_ms",
            "thermal_sample_interval_ms",
            "migration_penalty_ms",
            "busy_utilisation",
            "retry_interval_ms",
        ):
            if not isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.decision_interval_ms <= 0 or self.thermal_sample_interval_ms <= 0:
            raise ValueError("intervals must be positive")
        if self.migration_penalty_ms < 0:
            raise ValueError("migration_penalty_ms must be non-negative")
        if self.max_backlog < 0:
            raise ValueError("max_backlog must be non-negative")
        if not 0.0 < self.busy_utilisation <= 1.0:
            raise ValueError("busy_utilisation must be in (0, 1]")
        # A non-positive retry interval would let an unmapped best-effort
        # application reschedule itself forever at the same timestamp,
        # livelocking the event loop.
        if self.retry_interval_ms <= 0:
            raise ValueError("retry_interval_ms must be positive")


@dataclass(slots=True)
class _DNNRuntime:
    """Simulator-internal bookkeeping for one DNN application."""

    job_index: int = 0
    busy: bool = False
    backlog: int = 0
    pending_penalty_ms: float = 0.0
    current_release_ms: float = 0.0
    current_start_ms: float = 0.0
    current_cluster: str = ""
    current_cores: int = 0
    #: The (constant) release callback of this application, allocated once
    #: instead of once per scheduled release.
    release_cb: Optional[object] = None
    #: Configuration -> network model / delivered accuracy of this
    #: application's jobs (both pure functions of the trained model).
    networks: Dict[float, object] = field(default_factory=dict)
    accuracies: Dict[float, float] = field(default_factory=dict)


class Simulator:
    """Discrete-event simulation of one scenario under one manager.

    Serial runs, lock-step batch replicas (:mod:`repro.sim.batched`) and
    fleet devices all run this class; a batch differs only in passing a
    shared ``decision_store``.  The hot paths are memoised per run — job
    networks and accuracies, job costs, cluster power constants and
    online-core counts — and every memo replays the float arithmetic of the
    call it stands for, operation for operation, so results are those of the
    unmemoised models bit for bit (the golden fingerprints are the
    reference).  The online-core memo needs one condition: cores go on- or
    offline only through :meth:`_apply_actions` (fault events route through
    it too), which drops the memo on every ``SetCoresOnline``.  A thermal
    sample whose successor would be the queue's next event anyway runs that
    successor inline (:meth:`EventQueue.claim_next`), so a quiet stretch
    costs one heap event rather than one per sample.

    An interval in which no core accrued busy time is priced from the
    zero-busy plan: per cluster, the static power constants and the idle
    dynamic power of its online cores.  The plan is valid while every
    cluster has the stock :class:`ClusterPowerModel` (a custom model takes
    the scalar path), each cluster's frequency equals the one the plan was
    built at (checked on every sample; a change rebuilds it) and no
    ``SetCoresOnline`` has run since (the plan is dropped with the
    online-core memo).

    Parameters
    ----------
    scenario:
        The workload and platform to simulate.
    manager:
        The resource manager driving the platform.
    energy_model:
        Cost estimator used to price inference jobs; defaults to the
        Table-I-calibrated model.  Job costs are memoised only for the
        default; an explicit model prices every job through
        :meth:`EnergyModel.cost`.
    config:
        Simulation tunables.
    fault_plan:
        Faults to inject during the run; defaults to the scenario's attached
        plan (``scenario.fault_plan``), if any.
    decision_store:
        Cross-replica decision memo, keyed by (manager behaviour key,
        decision signature).  Managers with a value-keyable behaviour replay
        a stored decision instead of re-running ``decide``; ``None`` (the
        default) calls ``manager.decide`` at every epoch.
    """

    def __init__(
        self,
        scenario: Scenario,
        manager: ManagerProtocol,
        energy_model: Optional[EnergyModel] = None,
        config: Optional[SimulatorConfig] = None,
        fault_plan: Optional[FaultPlan] = None,
        decision_store: Optional[Dict[tuple, tuple]] = None,
    ) -> None:
        self.scenario = scenario
        self.manager = manager
        # Memoise pricing only for the default model: its latency estimator
        # is deterministic and temperature-independent, which the cost
        # replay in _job_cost relies on.
        self._memoise_costs = energy_model is None
        self.energy_model = energy_model or EnergyModel(CalibratedLatencyModel())
        self.config = config or SimulatorConfig()
        self.soc: Soc = scenario.build_platform()
        plan = fault_plan if fault_plan is not None else getattr(scenario, "fault_plan", None)
        if plan is not None and plan.is_empty:
            plan = None
        self.fault_plan: Optional[FaultPlan] = plan
        self._fault_injector: Optional[FaultInjector] = (
            FaultInjector(plan, self.soc) if plan is not None else None
        )
        self._crash_profile = plan.job_crashes if plan is not None else None
        self.queue = EventQueue()
        self.trace = SimulationTrace(duration_ms=scenario.duration_ms)
        self._primed = False
        self._apps: Dict[str, AppRuntimeState] = {}
        self._dnn_runtime: Dict[str, _DNNRuntime] = {}
        self._was_throttling = False
        # Busy core-time (core-milliseconds, weighted by utilisation) accrued
        # per cluster since the last thermal sample.  Integrating busy time
        # instead of sampling instantaneous state avoids aliasing between the
        # sampling period and the job periods.
        self._busy_core_ms: Dict[str, float] = {}
        self._last_sample_ms: float = 0.0
        self._last_utilisations: Dict[str, float] = {}
        # A manager with no value key for its behaviour opts out of sharing.
        memo_key_fn = getattr(manager, "decision_memo_key", None)
        memo_key = (
            memo_key_fn() if decision_store is not None and callable(memo_key_fn) else None
        )
        self._decision_memo_key = memo_key
        self._decision_store = decision_store if memo_key is not None else None
        # Managers with an operating-point cache expose cumulative hit/miss
        # counters; recording them per decision makes cache behaviour
        # observable from the (picklable) trace without touching the manager.
        stats_fn = getattr(manager, "cache_stats", None)
        self._cache_stats_fn = stats_fn if callable(stats_fn) else None
        # Job costs keyed by (network, cluster, frequency, cores used, online
        # cores); networks and clusters are long-lived (the trained model's
        # and the soc's own), and every entry pins its network besides.
        self._cost_memo: Dict[tuple, tuple] = {}
        # Per-cluster power constants keyed by (cluster name, frequency).
        self._cluster_power_memo: Dict[tuple, tuple] = {}
        # Online-core count per cluster; see the class docstring.
        self._online_counts: Dict[str, int] = {}
        # Per-cluster (cluster, frequency, static base, leakage coefficient,
        # reference temperature, idle term) of an interval with no busy
        # core-time; see the class docstring.
        self._zero_busy_plan: Optional[List[tuple]] = None

    # ------------------------------------------------------------------ run

    def prime(self) -> None:
        """Schedule the scenario's events and the periodic sampler chains.

        Idempotent; called implicitly by :meth:`run`.  Exposed so that code
        steering many simulators — the lock-step batch of
        :mod:`repro.sim.batched`, the fleet orchestrator — can prime them all
        and interleave their execution with :meth:`advance_to`.
        """
        if self._primed:
            return
        self._primed = True
        for event in self.scenario.events():
            self.queue.schedule(
                event.time_ms,
                lambda e=event: self._handle_scenario_event(e),
                priority=EVENT_PRIORITY_STRUCTURAL,
            )
        # Fault events are scheduled after the scenario's, so equal-time
        # scenario/fault pairs replay in a fixed order (scenario first).
        if self.fault_plan is not None:
            for fault in sorted(self.fault_plan.events, key=lambda f: (f.time_ms, f.kind)):
                self.queue.schedule(
                    fault.time_ms,
                    lambda f=fault: self._handle_fault_event(f),
                    priority=EVENT_PRIORITY_STRUCTURAL,
                )
        self._schedule_thermal_sample(self.config.thermal_sample_interval_ms)
        self._schedule_decision_epoch(self.config.decision_interval_ms)

    def advance_to(self, time_ms: float) -> None:
        """Run every event up to ``time_ms`` (clamped to the scenario end).

        Calling ``advance_to`` with an increasing sequence of times executes
        exactly the same events in exactly the same order as one
        ``run_until(duration)`` call — the event queue's ordering key is
        (time, priority, sequence), independent of how the timeline is
        sliced.
        """
        self.prime()
        self.queue.run_until(min(time_ms, self.scenario.duration_ms))

    def run(self) -> SimulationTrace:
        """Execute the scenario and return the trace."""
        self.prime()
        self.queue.run_until(self.scenario.duration_ms)
        return self.trace

    # ----------------------------------------------------- external injection
    #
    # Entry points for drivers that steer a simulator from outside its
    # scenario — the fleet orchestrator (:mod:`repro.fleet`) places and
    # migrates applications across many devices by injecting arrivals and
    # departures between ``advance_to`` strides.  Injected events go through
    # the same structural priority and the same arrival/departure/decision
    # path as scenario events, so traces stay on the determinism lattice.

    def inject_arrival(self, application: Application, time_ms: float) -> None:
        """Schedule an externally-placed application to arrive at ``time_ms``.

        Times in the past are clamped to the queue's current time (the event
        queue's contract); events beyond the scenario duration never execute.
        """
        self.prime()

        def _arrive(app: Application = application) -> None:
            self._on_arrival(app)
            self._run_decision(trigger=ScenarioEventKind.APP_ARRIVAL.value)

        self.queue.schedule(time_ms, _arrive, priority=EVENT_PRIORITY_STRUCTURAL)

    def inject_departure(self, app_id: str, time_ms: float) -> None:
        """Schedule an externally-requested departure (eviction) at ``time_ms``.

        A no-op at fire time when the application is not resident (it may
        have departed on its own in the meantime).
        """
        self.prime()

        def _depart() -> None:
            if app_id not in self._apps:
                return
            self._on_departure(app_id)
            self._run_decision(trigger=ScenarioEventKind.APP_DEPARTURE.value)

        self.queue.schedule(time_ms, _depart, priority=EVENT_PRIORITY_STRUCTURAL)

    # --------------------------------------------------------- memoised models

    def _job_cost(self, network, cluster, mapping: Mapping) -> InferenceCost:
        """Latency/power/energy of one inference job at the current state."""
        temperature_c = self.soc.thermal.temperature_c
        cores_used = mapping.cores
        key = None
        if self._memoise_costs:
            online = self._online_core_count(cluster)
            key = (id(network), id(cluster), cluster.frequency_mhz, cores_used, online)
            entry = self._cost_memo.get(key)
            if entry is not None:
                latency_ms, static_base, leak_coef, reference_c, cores_eff, dyn_busy, idle_term, _ = entry
                # Replay of EnergyModel.cost: the latency estimate is
                # temperature-independent; only the leakage term varies, so
                # recompute the static power at the current temperature and
                # re-accumulate the per-core dynamic terms in the model's order.
                total = static_base * exp(leak_coef * (temperature_c - reference_c))
                for _ in range(cores_eff):
                    total += dyn_busy
                if idle_term is not None:
                    total += idle_term
                return InferenceCost(
                    latency_ms=latency_ms, power_mw=total, energy_mj=total * latency_ms / 1000.0
                )
        cost = self.energy_model.cost(
            network,
            cluster,
            frequency_mhz=None,
            cores_used=cores_used,
            temperature_c=temperature_c,
            soc_name=self.soc.name,
        )
        power_model = cluster.power_model
        if key is not None and type(power_model) is ClusterPowerModel:
            params = power_model.params
            voltage = cluster.voltage_v
            frequency = cluster.frequency_mhz
            dyn_busy = power_model.core_dynamic_mw(
                voltage, frequency, self.energy_model.busy_utilisation
            )
            dyn_idle = power_model.core_dynamic_mw(voltage, frequency, 0.0)
            cores_eff = min(cores_used, cluster.num_cores)
            idle_cores = online - cores_eff
            self._cost_memo[key] = (
                cost.latency_ms,
                # static_power_mw is (static * vscale) * exp-term; only the
                # exp term is temperature-dependent.
                params.static_mw * (voltage / params.nominal_voltage_v),
                params.leakage_temp_coefficient,
                params.reference_temperature_c,
                cores_eff,
                dyn_busy,
                idle_cores * dyn_idle if idle_cores > 0 else None,
                network,  # pin: keeps the id()-keyed entry unambiguous
            )
        return cost

    def _online_core_count(self, cluster) -> int:
        """Number of powered cores in ``cluster``."""
        counts = self._online_counts
        count = counts.get(cluster.name)
        if count is None:
            count = counts[cluster.name] = len(cluster.online_cores)
        return count

    @staticmethod
    def _cluster_power_entry(cluster) -> tuple:
        """Memo entry of the per-cluster power constants at the current OPP."""
        params = cluster.power_model.params
        voltage = cluster.voltage_v
        frequency = cluster.frequency_mhz
        return (
            params.static_mw * (voltage / params.nominal_voltage_v),
            cluster.power_model.core_dynamic_mw(voltage, frequency, 1.0),
            cluster.power_model.core_dynamic_mw(voltage, frequency, 0.0),
            params.leakage_temp_coefficient,
            params.reference_temperature_c,
            params.idle_fraction,
            # Partial-utilisation dynamic power is ceff*V*V*f*u,
            # left-associated, so the leading product folds into one
            # coefficient without changing a bit of the result.
            params.ceff_mw_per_mhz_v2 * voltage * voltage * frequency,
        )

    # ------------------------------------------------------ scenario events

    def _handle_scenario_event(self, event: ScenarioEvent) -> None:
        if event.kind == ScenarioEventKind.APP_ARRIVAL:
            self._on_arrival(self.scenario.application(event.app_id))
        elif event.kind == ScenarioEventKind.APP_DEPARTURE:
            self._on_departure(event.app_id)
        elif event.kind == ScenarioEventKind.REQUIREMENT_CHANGE:
            self._on_requirement_change(event)
        self._run_decision(trigger=event.kind.value)

    def _on_arrival(self, application: Application) -> None:
        state = AppRuntimeState(application=application)
        self._apps[application.app_id] = state
        try:
            self.soc.allocate_memory(application.memory_footprint_mb)
        except MemoryError:
            # The platform is out of DRAM; the application still arrives but
            # the shortage shows up as contention the manager cannot fix.
            pass
        if isinstance(application, GenericApplication):
            self._place_generic(state, application)
        elif isinstance(application, DNNApplication):
            self._dnn_runtime[application.app_id] = _DNNRuntime()
            self.queue.schedule(
                self.queue.now_ms,
                lambda app_id=application.app_id: self._release_job(app_id),
            )

    def _place_generic(self, state: AppRuntimeState, application: GenericApplication) -> None:
        """Give a non-DNN application the cores it demands, preempting DNNs if needed."""
        demand = application.demand
        candidates = self.soc.clusters_of_type(demand.core_type)
        if not candidates:
            candidates = self.soc.clusters
        cluster = max(candidates, key=lambda c: len(c.free_cores))
        shortfall = demand.cores - len(cluster.free_cores)
        if shortfall > 0:
            # Preempt DNN applications on this cluster, lowest priority first.
            victims = sorted(
                (
                    app
                    for app in self._apps.values()
                    if app.is_dnn
                    and app.mapping is not None
                    and app.mapping.cluster_name == cluster.name
                ),
                key=lambda app: app.application.priority,
            )
            for victim in victims:
                if shortfall <= 0:
                    break
                shortfall -= victim.mapping.cores if victim.mapping else 0
                self.soc.release_owner(victim.app_id)
                victim.mapping = None
        cores = min(demand.cores, len(cluster.free_cores))
        if cores > 0:
            cluster.reserve_cores(cores, application.app_id)
            state.mapping = Mapping(cluster_name=cluster.name, cores=cores)
            if demand.min_frequency_mhz is not None:
                # The application needs the shared frequency domain at or
                # above its minimum; raise it if it is currently below.
                wanted = cluster.opp_table.at_or_above(demand.min_frequency_mhz)
                if cluster.frequency_mhz < wanted.frequency_mhz:
                    cluster.set_frequency(wanted.frequency_mhz)

    def _on_departure(self, app_id: str) -> None:
        state = self._apps.pop(app_id, None)
        if state is None:
            return
        self.soc.release_owner(app_id)
        self.soc.free_memory(state.application.memory_footprint_mb)
        self._dnn_runtime.pop(app_id, None)

    def _on_requirement_change(self, event: ScenarioEvent) -> None:
        state = self._apps.get(event.app_id)
        if state is None or event.new_requirements is None:
            return
        state.application.requirements = event.new_requirements

    # --------------------------------------------------------- fault events

    def _handle_fault_event(self, fault: FaultEvent) -> None:
        """Apply one timeline fault, record it, and wake the manager.

        Core and frequency faults are routed through :meth:`_apply_actions`
        so the online-core memo is dropped exactly as it is for RTM-issued
        actions.
        """
        injector = self._fault_injector
        assert injector is not None
        now = self.queue.now_ms
        trace = self.trace
        if isinstance(fault, CoreFailure):
            cluster = self.soc.cluster(fault.cluster)
            online_before = len(cluster.online_cores)
            delta = injector.fail_cores(cluster, fault.cores)
            self._apply_actions(
                [SetCoresOnline(cluster_name=cluster.name, online_cores=online_before)]
            )
            trace.record_fault(FaultRecord(now, fault.kind, cluster.name, float(delta)))
        elif isinstance(fault, CoreRecovery):
            cluster = self.soc.cluster(fault.cluster)
            online_before = len(cluster.online_cores)
            recovered = injector.recover_cores(cluster, fault.cores)
            self._apply_actions(
                [
                    SetCoresOnline(
                        cluster_name=cluster.name,
                        online_cores=online_before + recovered,
                    )
                ]
            )
            trace.record_fault(FaultRecord(now, fault.kind, cluster.name, float(recovered)))
        elif isinstance(fault, FrequencyCap):
            cluster = self.soc.cluster(fault.cluster)
            resolved = injector.set_cap(cluster, fault.max_frequency_mhz)
            if cluster.frequency_mhz > resolved:
                self._apply_actions(
                    [SetFrequency(cluster_name=cluster.name, frequency_mhz=resolved)]
                )
            trace.record_fault(FaultRecord(now, fault.kind, cluster.name, resolved))
        elif isinstance(fault, FrequencyCapRelease):
            injector.release_cap(fault.cluster)
            trace.record_fault(FaultRecord(now, fault.kind, fault.cluster))
        elif isinstance(fault, SensorBias):
            self.soc.thermal.set_sensor_bias(fault.bias_c)
            trace.record_fault(FaultRecord(now, fault.kind, "", fault.bias_c))
        elif isinstance(fault, SensorDropout):
            frozen = self.soc.thermal.freeze_sensor()
            trace.record_fault(FaultRecord(now, fault.kind, "", frozen))
        elif isinstance(fault, SensorRestore):
            self.soc.thermal.restore_sensor()
            trace.record_fault(FaultRecord(now, fault.kind))
        # The manager reacts immediately: detect the loss, invalidate caches,
        # remap displaced apps, fall back to degraded operating points.
        self._run_decision(trigger="fault")

    # ------------------------------------------------------------ decisions

    def _schedule_decision_epoch(self, time_ms: float) -> None:
        if time_ms > self.scenario.duration_ms:
            return
        self.queue.schedule(
            time_ms,
            lambda: self._decision_epoch(time_ms),
            priority=EVENT_PRIORITY_STRUCTURAL,
        )

    def _decision_epoch(self, time_ms: float) -> None:
        self._run_decision(trigger="epoch")
        self._schedule_decision_epoch(time_ms + self.config.decision_interval_ms)

    def _system_state(self) -> SystemState:
        return SystemState(
            time_ms=self.queue.now_ms,
            soc=self.soc,
            apps=dict(self._apps),
            throttling=self.soc.thermal.throttling,
            cluster_utilisations=dict(self._last_utilisations),
        )

    def _run_decision(self, trigger: str) -> None:
        state = self._system_state()
        manager = self.manager
        store = self._decision_store
        signature = manager.decision_signature(state) if store is not None else None
        if signature is None:
            decision = manager.decide(state)
        else:
            key = (self._decision_memo_key, signature)
            replay = store.get(key)
            if replay is None:
                decision, replay = manager.decide_recorded(state)
                store[key] = replay
            else:
                actions, home_updates = replay
                decision = manager.replay_decision(state, actions, home_updates)
        actions = list(getattr(decision, "actions", []) or [])
        self._apply_actions(actions)
        stats_fn = self._cache_stats_fn
        stats = stats_fn() if stats_fn is not None else None
        # Positional for speed: time_ms, num_actions, trigger, cache_hits,
        # cache_misses.
        self.trace.record_decision(
            DecisionRecord(
                self.queue.now_ms,
                len(actions),
                trigger,
                stats.hits if stats is not None else 0,
                stats.misses if stats is not None else 0,
            )
        )

    def _apply_actions(self, actions: List[Action]) -> None:
        injector = self._fault_injector
        # Release first so that applications swapping clusters do not collide.
        for action in actions:
            if isinstance(action, (MapApplication, UnmapApplication)) and action.app_id:
                self.soc.release_owner(action.app_id)
        for action in actions:
            if isinstance(action, SetFrequency):
                if self.soc.has_cluster(action.cluster_name):
                    cluster = self.soc.cluster(action.cluster_name)
                    frequency_mhz = action.frequency_mhz
                    if injector is not None:
                        # An active DVFS cap silently clamps every request.
                        frequency_mhz = injector.clamp_frequency(cluster, frequency_mhz)
                    cluster.set_frequency(frequency_mhz)
            elif isinstance(action, SetCoresOnline):
                if self.soc.has_cluster(action.cluster_name):
                    cluster = self.soc.cluster(action.cluster_name)
                    online_cores = action.online_cores
                    if injector is not None:
                        # Failed cores stay dead no matter what the RTM asks.
                        online_cores = injector.effective_online(cluster, online_cores)
                    for index, core in enumerate(cluster.cores):
                        core.set_online(index < online_cores)
                    self._online_counts.clear()
                    self._zero_busy_plan = None
            elif isinstance(action, SetConfiguration):
                self._apply_configuration(action)
            elif isinstance(action, MapApplication):
                self._apply_mapping(action)
            elif isinstance(action, UnmapApplication):
                state = self._apps.get(action.app_id or "")
                if state is not None:
                    state.mapping = None

    def _apply_configuration(self, action: SetConfiguration) -> None:
        state = self._apps.get(action.app_id or "")
        if state is None or not isinstance(state.application, DNNApplication):
            return
        application = state.application
        overhead = application.dynamic_dnn.set_configuration(action.configuration)
        runtime = self._dnn_runtime.get(application.app_id)
        if runtime is not None:
            runtime.pending_penalty_ms += overhead
        if state.mapping is not None:
            state.mapping = replace(
                state.mapping, configuration=application.dynamic_dnn.active_fraction
            )

    def _apply_mapping(self, action: MapApplication) -> None:
        state = self._apps.get(action.app_id or "")
        if state is None or not self.soc.has_cluster(action.cluster_name):
            return
        cluster = self.soc.cluster(action.cluster_name)
        cores = min(action.cores, len(cluster.free_cores))
        if cores <= 0:
            state.mapping = None
            return
        cluster.reserve_cores(cores, action.app_id)
        migrated = state.mapping is not None and state.mapping.cluster_name != action.cluster_name
        configuration = 1.0
        if isinstance(state.application, DNNApplication):
            configuration = state.application.dynamic_dnn.active_fraction
        state.mapping = Mapping(
            cluster_name=action.cluster_name,
            cores=cores,
            configuration=configuration,
        )
        runtime = self._dnn_runtime.get(action.app_id or "")
        if runtime is not None and migrated:
            runtime.pending_penalty_ms += self.config.migration_penalty_ms

    # ------------------------------------------------------------------ jobs

    def _release_job(self, app_id: str) -> None:
        state = self._apps.get(app_id)
        if state is None or not isinstance(state.application, DNNApplication):
            return
        application = state.application
        runtime = self._dnn_runtime[app_id]
        queue = self.queue
        now = queue.now_ms
        period = application.period_ms()
        release_cb = runtime.release_cb
        if release_cb is None:
            release_cb = runtime.release_cb = lambda: self._release_job(app_id)

        # Schedule the next release for periodic applications regardless of
        # what happens to this one.
        if period is not None:
            queue.schedule(now + period, release_cb)

        if state.mapping is None:
            self._record_dropped(state, runtime, now, reason="unmapped")
            if period is None:
                queue.schedule(now + self.config.retry_interval_ms, release_cb)
            return
        # Graceful degradation under core-failure faults: a job whose mapped
        # cluster no longer has the online cores its mapping needs is dropped
        # (reason "cores_offline") instead of crashing the run.  Remapping
        # managers recover at the fault-triggered decision; static ones keep
        # dropping until the cores return — degraded, but alive.
        mapped_cluster = self.soc.cluster(state.mapping.cluster_name)
        if self._online_core_count(mapped_cluster) < state.mapping.cores:
            self._record_dropped(state, runtime, now, reason="cores_offline")
            if period is None:
                queue.schedule(now + self.config.retry_interval_ms, release_cb)
            return
        if runtime.busy:
            if runtime.backlog >= self.config.max_backlog:
                self._record_dropped(state, runtime, now, reason="backlog")
            else:
                runtime.backlog += 1
            return
        self._start_job(state, runtime, release_ms=now)

    def _record_dropped(
        self, state: AppRuntimeState, runtime: _DNNRuntime, now: float, reason: str
    ) -> None:
        runtime.job_index += 1
        state.violation_count += 1
        # Positional for speed; field order as declared on JobRecord:
        # app_id, job_index, release/start/finish_ms, latency_ms, energy_mj,
        # configuration, accuracy_percent, cluster, cores, frequency_mhz,
        # violations, dropped.
        self.trace.record_job(
            JobRecord(
                state.app_id, runtime.job_index, now, now, now,
                0.0, 0.0, 0.0, 0.0, "", 0, 0.0, (reason,), True,
            )
        )

    def _start_job(self, state: AppRuntimeState, runtime: _DNNRuntime, release_ms: float) -> None:
        application = state.application
        assert isinstance(application, DNNApplication)
        mapping = state.mapping
        assert mapping is not None
        cluster = self.soc.cluster(mapping.cluster_name)
        configuration = mapping.configuration
        network = runtime.networks.get(configuration)
        if network is None:
            network = runtime.networks[configuration] = application.dynamic_dnn.model_for(
                configuration
            )
        cost = self._job_cost(network, cluster, mapping)
        latency_ms = cost.latency_ms + runtime.pending_penalty_ms
        runtime.pending_penalty_ms = 0.0
        runtime.busy = True
        runtime.job_index += 1
        runtime.current_release_ms = release_ms
        runtime.current_start_ms = self.queue.now_ms
        runtime.current_cluster = mapping.cluster_name
        runtime.current_cores = mapping.cores
        job_index = runtime.job_index
        start_ms = self.queue.now_ms
        energy_mj = cost.energy_mj

        # Seeded transient crashes: each attempt crashes with a fixed hashed
        # probability; retries rerun the whole job after a bounded exponential
        # backoff.  The core stays reserved (busy) across retries.
        profile = self._crash_profile
        if profile is not None and profile.applies_to(state.app_id, start_ms):
            crashes = profile.crashes_before_success(state.app_id, job_index)
            attempts = (
                profile.max_retries + 1 if crashes is None else crashes + 1
            )
            if attempts > 1 or crashes is None:
                elapsed_ms = 0.0
                for attempt in range(attempts - 1 if crashes is None else crashes):
                    elapsed_ms += latency_ms
                    self.trace.record_fault(
                        FaultRecord(
                            start_ms + elapsed_ms,
                            "job_crash",
                            state.app_id,
                            float(attempt),
                            detail=f"job {job_index}",
                        )
                    )
                    elapsed_ms += profile.backoff_ms(attempt)
                if crashes is None:
                    # Every allowed attempt crashes: the job is lost.
                    total_ms = elapsed_ms + latency_ms
                    snapshot = (
                        mapping.configuration,
                        mapping.cluster_name,
                        mapping.cores,
                        cluster.frequency_mhz,
                        energy_mj * attempts,
                        total_ms,
                    )
                    self.trace.record_fault(
                        FaultRecord(
                            start_ms + total_ms,
                            "job_lost",
                            state.app_id,
                            float(attempts),
                            detail=f"job {job_index}",
                        )
                    )
                    self.queue.schedule(
                        start_ms + total_ms,
                        lambda: self._crash_job(state.app_id, job_index, snapshot),
                    )
                    return
                latency_ms = elapsed_ms + latency_ms
                energy_mj = energy_mj * attempts

        finish_ms = start_ms + latency_ms
        # (configuration, cluster, cores, frequency_mhz, energy_mj, latency_ms)
        snapshot = (
            mapping.configuration,
            mapping.cluster_name,
            mapping.cores,
            cluster.frequency_mhz,
            energy_mj,
            latency_ms,
        )
        self.queue.schedule(
            finish_ms,
            lambda: self._complete_job(state.app_id, job_index, snapshot),
        )

    def _complete_job(self, app_id: str, job_index: int, snapshot: tuple) -> None:
        state = self._apps.get(app_id)
        runtime = self._dnn_runtime.get(app_id)
        if state is None or runtime is None:
            return
        application = state.application
        assert isinstance(application, DNNApplication)
        runtime.busy = False
        now = self.queue.now_ms
        configuration, cluster_name, cores, frequency_mhz, energy_mj, latency_ms = snapshot
        # Accrue the busy core-time of this job since the last thermal sample.
        busy_since_ms = max(runtime.current_start_ms, self._last_sample_ms)
        if now > busy_since_ms:
            self._busy_core_ms[cluster_name] = self._busy_core_ms.get(
                cluster_name, 0.0
            ) + (now - busy_since_ms) * cores * self.config.busy_utilisation
        accuracy = runtime.accuracies.get(configuration)
        if accuracy is None:
            accuracy = runtime.accuracies[configuration] = application.accuracy_of(configuration)
        period = application.period_ms()
        effective_period = max(latency_ms, period) if period is not None else latency_ms
        sample = MetricSample(
            latency_ms=latency_ms,
            energy_mj=energy_mj,
            accuracy_percent=accuracy,
            fps=1000.0 / effective_period if effective_period > 0 else None,
        )
        violations = application.requirements.violated_metrics(sample)
        state.last_sample = sample
        state.jobs_completed += 1
        if violations:
            state.violation_count += 1
        # Positional for speed; field order as in _record_dropped.
        self.trace.record_job(
            JobRecord(
                app_id, job_index, runtime.current_release_ms,
                runtime.current_start_ms, now, latency_ms, energy_mj,
                configuration, accuracy, cluster_name, cores, frequency_mhz,
                violations,
            )
        )
        if runtime.backlog > 0 and state.mapping is not None:
            runtime.backlog -= 1
            self._start_job(state, runtime, release_ms=now)
        elif period is None and state.mapping is not None:
            # Best-effort applications run back to back.
            self.queue.schedule(now, lambda: self._release_job(app_id))

    def _crash_job(self, app_id: str, job_index: int, snapshot: tuple) -> None:
        """A job whose every retry attempt crashed: account it as dropped.

        Mirrors :meth:`_complete_job` (busy-time accrual, backlog chaining)
        but records a dropped job with reason ``"crashed"`` — the energy and
        elapsed time of the wasted attempts are kept on the record.
        """
        state = self._apps.get(app_id)
        runtime = self._dnn_runtime.get(app_id)
        if state is None or runtime is None:
            return
        application = state.application
        assert isinstance(application, DNNApplication)
        runtime.busy = False
        now = self.queue.now_ms
        configuration, cluster_name, cores, frequency_mhz, energy_mj, latency_ms = snapshot
        busy_since_ms = max(runtime.current_start_ms, self._last_sample_ms)
        if now > busy_since_ms:
            self._busy_core_ms[cluster_name] = self._busy_core_ms.get(
                cluster_name, 0.0
            ) + (now - busy_since_ms) * cores * self.config.busy_utilisation
        state.violation_count += 1
        self.trace.record_job(
            JobRecord(
                app_id, job_index, runtime.current_release_ms,
                runtime.current_start_ms, now, latency_ms, energy_mj,
                configuration, 0.0, cluster_name, cores, frequency_mhz,
                ("crashed",), True,
            )
        )
        period = application.period_ms()
        if runtime.backlog > 0 and state.mapping is not None:
            runtime.backlog -= 1
            self._start_job(state, runtime, release_ms=now)
        elif period is None and state.mapping is not None:
            self.queue.schedule(now, lambda: self._release_job(app_id))

    # --------------------------------------------------------------- thermal

    def _accrue_interval_busy_time(self, now_ms: float) -> None:
        """Add busy core-time of still-running jobs and continuous applications."""
        busy_utilisation = self.config.busy_utilisation
        last_sample_ms = self._last_sample_ms
        busy_core_ms = self._busy_core_ms
        for state in self._apps.values():
            mapping = state.mapping
            if mapping is None:
                continue
            if state.is_dnn:
                runtime = self._dnn_runtime.get(state.app_id)
                if runtime is None or not runtime.busy:
                    continue
                busy_since_ms = max(runtime.current_start_ms, last_sample_ms)
                if now_ms > busy_since_ms:
                    cluster_name = runtime.current_cluster or mapping.cluster_name
                    busy_core_ms[cluster_name] = busy_core_ms.get(
                        cluster_name, 0.0
                    ) + (now_ms - busy_since_ms) * runtime.current_cores * busy_utilisation
            else:
                application = state.application
                assert isinstance(application, GenericApplication)
                interval = now_ms - max(last_sample_ms, application.arrival_time_ms)
                if interval > 0:
                    busy_core_ms[mapping.cluster_name] = busy_core_ms.get(
                        mapping.cluster_name, 0.0
                    ) + interval * mapping.cores * application.demand.utilisation

    def _interval_power_and_utilisation(
        self, now_ms: float
    ) -> "tuple[float, Dict[str, float]]":
        """Average power and per-cluster utilisation over the last interval.

        For the stock :class:`ClusterPowerModel` this replays
        ``Soc.total_power_mw`` over the sampled per-core utilisations (full
        cores at 1.0, then one fractional core) from memoised per-cluster
        constants: the same expressions in the same order, without ever
        building the utilisation lists.
        """
        self._accrue_interval_busy_time(now_ms)
        busy_core_ms = self._busy_core_ms
        temperature_c = self.soc.thermal.temperature_c
        if not busy_core_ms:
            total = self._zero_busy_power_mw(temperature_c)
            if total is not None:
                self._last_sample_ms = now_ms
                return total, dict.fromkeys(self.soc._clusters, 0.0)
        interval_ms = max(now_ms - self._last_sample_ms, 1e-9)
        cluster_utilisation: Dict[str, float] = {}
        memo = self._cluster_power_memo
        total = 0.0
        for name, cluster in self.soc._clusters.items():
            # The true online count, which can be 0 when every core of the
            # cluster has failed: work stranded on a dead cluster contributes
            # no utilisation samples (the power model rejects more samples
            # than online cores).
            count = self._online_core_count(cluster)
            avg_busy_cores = busy_core_ms.get(name, 0.0) / interval_ms
            count_f = float(count)
            if avg_busy_cores > count_f:
                avg_busy_cores = count_f
            cluster_utilisation[name] = avg_busy_cores / (count if count > 0 else 1)
            full_cores = int(avg_busy_cores)
            fraction = avg_busy_cores - full_cores
            # avg_busy_cores <= count, so the listed cores never outnumber
            # the online ones.
            has_fraction = fraction > 1e-3 and full_cores < count
            listed = full_cores + 1 if has_fraction else full_cores
            if type(cluster.power_model) is not ClusterPowerModel:
                # A custom power model: materialise the list and take the
                # scalar path.
                utilisations = [1.0] * full_cores
                if has_fraction:
                    utilisations.append(fraction)
                total += cluster.power_mw(
                    core_utilisations=utilisations, temperature_c=temperature_c
                )
                continue
            key = (name, cluster.frequency_mhz)
            entry = memo.get(key)
            if entry is None:
                entry = memo[key] = self._cluster_power_entry(cluster)
            (
                static_base,
                dyn_full,
                dyn_idle,
                leak_coefficient,
                reference_c,
                idle_fraction,
                dyn_coefficient,
            ) = entry
            cluster_total = static_base * exp(
                leak_coefficient * (temperature_c - reference_c)
            )
            for _ in range(full_cores):
                cluster_total += dyn_full
            if has_fraction:
                cluster_total += dyn_coefficient * (
                    fraction if fraction > idle_fraction else idle_fraction
                )
            idle_cores = count - listed
            if idle_cores > 0:
                cluster_total += idle_cores * dyn_idle
            total += cluster_total
        # Running jobs continue into the next interval: the part after this
        # sample will be accrued then, so the accumulator resets here.
        self._busy_core_ms = {}
        self._last_sample_ms = now_ms
        return total, cluster_utilisation

    def _zero_busy_power_mw(self, temperature_c: float) -> Optional[float]:
        """Power of an interval in which no core accrued busy time.

        The general replay with every utilisation at zero: per cluster the
        leakage-scaled static power plus every online core's idle dynamic
        power, from the zero-busy plan (see the class docstring).  A cluster
        whose frequency moved since the plan was built rebuilds it.  ``None``
        when a cluster has a custom power model (the caller's scalar path).
        """
        plan = self._zero_busy_plan
        if plan is not None:
            total = 0.0
            for cluster, frequency, static_base, leak_coefficient, reference_c, idle_term in plan:
                if cluster.frequency_mhz != frequency:
                    break
                cluster_total = static_base * exp(
                    leak_coefficient * (temperature_c - reference_c)
                )
                if idle_term is not None:
                    cluster_total += idle_term
                total += cluster_total
            else:
                return total
        clusters = self.soc._clusters.values()
        if any(type(cluster.power_model) is not ClusterPowerModel for cluster in clusters):
            return None
        plan = self._zero_busy_plan = []
        for cluster in clusters:
            static_base, _, dyn_idle, leak_coefficient, reference_c, _, _ = (
                self._cluster_power_entry(cluster)
            )
            count = self._online_core_count(cluster)
            idle_term = count * dyn_idle if count > 0 else None
            frequency = cluster.frequency_mhz
            plan.append((cluster, frequency, static_base, leak_coefficient, reference_c, idle_term))
        return self._zero_busy_power_mw(temperature_c)

    def _schedule_thermal_sample(self, time_ms: float) -> None:
        if time_ms > self.scenario.duration_ms:
            return
        self.queue.schedule(
            time_ms,
            lambda: self._thermal_sample(time_ms),
            priority=EVENT_PRIORITY_STRUCTURAL,
        )

    def _thermal_sample(self, time_ms: float) -> None:
        """Take a power/temperature sample, then run or schedule the next one.

        While the next sample would be the queue's next event anyway
        (:meth:`EventQueue.claim_next`), it runs here in the same loop, with
        no closure and no heap push; nothing else can happen in between, so
        the samples are those the queue would have run.  A throttle flip
        ends the loop: its decision may schedule work.
        """
        queue = self.queue
        thermal = self.soc.thermal
        interval = self.config.thermal_sample_interval_ms
        while True:
            interval_ms = time_ms - self._last_sample_ms
            power_mw, utilisations = self._interval_power_and_utilisation(time_ms)
            self._last_utilisations = utilisations
            temperature_c = thermal.step(power_mw, max(interval_ms, 0.0))
            throttling = thermal.throttling
            # Positional for speed: time_ms, power_mw, temperature_c, throttling.
            self.trace.record_power(PowerSample(time_ms, power_mw, temperature_c, throttling))
            next_ms = time_ms + interval
            if throttling != self._was_throttling:
                self._was_throttling = throttling
                self._run_decision(trigger="thermal")
            elif next_ms <= self.scenario.duration_ms and queue.claim_next(
                next_ms, EVENT_PRIORITY_STRUCTURAL
            ):
                time_ms = next_ms
                continue
            self._schedule_thermal_sample(next_ms)
            return


def simulate_scenario(
    scenario: Scenario,
    manager: ManagerProtocol,
    energy_model: Optional[EnergyModel] = None,
    config: Optional[SimulatorConfig] = None,
    fault_plan: Optional[FaultPlan] = None,
) -> SimulationTrace:
    """Convenience wrapper: build a simulator, run it, return the trace."""
    return Simulator(
        scenario, manager, energy_model=energy_model, config=config, fault_plan=fault_plan
    ).run()
