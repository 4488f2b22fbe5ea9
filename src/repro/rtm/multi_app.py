"""Multi-application resource arbitration.

When several applications execute concurrently (Fig 2), the runtime manager
has to split the platform between them: decide which cluster each DNN runs
on, how many cores it gets, which dynamic configuration it uses, and what
frequency each shared voltage/frequency domain runs at.

The arbiter implemented here is a priority-ordered greedy allocator:

1. Applications are considered from highest to lowest priority.
2. Each application sees only the cores not yet claimed in this round
   (cores taken by non-DNN applications — AR/VR on the GPU, background tasks
   on the CPUs — are never offered).
3. Once an application picks a cluster and frequency, that frequency is
   pinned for lower-priority applications that land on the same cluster,
   modelling the shared-frequency-domain constraint the paper highlights
   ("the frequency setting may be sub-optimal due to other applications in
   the same frequency domain").
4. Under a power cap (thermal throttling or an explicit budget), the cap is
   divided across the DNN applications proportionally to their priority.

Greedy-by-priority is not optimal, but it is the same class of policy real
governors and the PRiME demonstrators use, it is explainable, and it is fast
enough to run at every decision epoch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.perfmodel.energy import EnergyModel
from repro.rtm.cache import (
    DECISION_MAXIMISE,
    DECISION_OBJECTIVES,
    DEFAULT_TEMPERATURE_BUCKET_C,
    OperatingPointCache,
    temperature_bucket_c,
)
from repro.rtm.operating_points import (
    OperatingPoint,
    OperatingPointSpace,
    OperatingPointTable,
)
from repro.rtm.policies import SelectionPolicy
from repro.rtm.state import (
    Action,
    AppRuntimeState,
    MapApplication,
    Mapping,
    SetConfiguration,
    SetFrequency,
    SystemState,
    UnmapApplication,
)
from repro.workloads.tasks import DNNApplication, GenericApplication

__all__ = ["AllocationDecision", "AllocationResult", "MultiAppAllocator"]


@dataclass(frozen=True)
class AllocationDecision:
    """The operating point chosen for one application (or None if unplaceable)."""

    app_id: str
    point: Optional[OperatingPoint]
    previous_mapping: Optional[Mapping]

    @property
    def placed(self) -> bool:
        """True when the application received resources this round."""
        return self.point is not None


@dataclass
class AllocationResult:
    """Outcome of one arbitration round."""

    decisions: Dict[str, AllocationDecision] = field(default_factory=dict)
    actions: List[Action] = field(default_factory=list)

    def decision_for(self, app_id: str) -> AllocationDecision:
        """Decision made for one application."""
        return self.decisions[app_id]

    @property
    def placed_apps(self) -> List[str]:
        """Applications that received resources."""
        return [app_id for app_id, decision in self.decisions.items() if decision.placed]

    @property
    def unplaced_apps(self) -> List[str]:
        """Applications that could not be placed."""
        return [app_id for app_id, decision in self.decisions.items() if not decision.placed]


class MultiAppAllocator:
    """Priority-ordered greedy allocator over the operating-point spaces.

    Parameters
    ----------
    policy:
        Per-application operating-point selection policy.
    energy_model:
        Estimator used to price operating points.
    allow_task_mapping / allow_dvfs / allow_dnn_scaling:
        Ablation switches.  Disabling task mapping pins each application to
        its current cluster; disabling DVFS pins frequencies to their current
        values; disabling DNN scaling forces the 100 % configuration.
    max_cores_per_app:
        Upper bound on the cores a single DNN may occupy.
    cache:
        Optional :class:`OperatingPointCache`; when present, enumerated point
        lists, Pareto fronts and the per-point pricing are reused across
        decision epochs.  Cached and uncached allocation are bit-for-bit
        identical.
    temperature_bucket_width_c:
        Width of the leakage-temperature buckets used when pricing candidate
        points (applied whether or not a cache is attached).
    thermal_margin_c:
        Margin kept below the throttle threshold when a throttling platform's
        sustainable power becomes the power cap.
    """

    def __init__(
        self,
        policy: SelectionPolicy,
        energy_model: EnergyModel,
        allow_task_mapping: bool = True,
        allow_dvfs: bool = True,
        allow_dnn_scaling: bool = True,
        max_cores_per_app: int = 4,
        policy_overrides: Optional[Dict[str, SelectionPolicy]] = None,
        cache: Optional[OperatingPointCache] = None,
        temperature_bucket_width_c: float = DEFAULT_TEMPERATURE_BUCKET_C,
        thermal_margin_c: float = 2.0,
    ) -> None:
        if max_cores_per_app <= 0:
            raise ValueError("max_cores_per_app must be positive")
        if temperature_bucket_width_c <= 0:
            raise ValueError("temperature_bucket_width_c must be positive")
        self.policy = policy
        self.energy_model = energy_model
        self.allow_task_mapping = allow_task_mapping
        self.allow_dvfs = allow_dvfs
        self.allow_dnn_scaling = allow_dnn_scaling
        self.max_cores_per_app = max_cores_per_app
        self.cache = cache
        self.temperature_bucket_width_c = temperature_bucket_width_c
        self.thermal_margin_c = thermal_margin_c
        #: Per-application policy overrides (app id -> policy); applications
        #: not listed use the default policy.
        self.policy_overrides: Dict[str, SelectionPolicy] = dict(policy_overrides or {})
        #: First cluster each application was placed on; used when task
        #: mapping is disabled, so that "no mapping knob" really means the
        #: application is stuck where it was first deployed.
        self._home_cluster: Dict[str, str] = {}

    def policy_for(self, app_id: str) -> SelectionPolicy:
        """The selection policy used for one application."""
        return self.policy_overrides.get(app_id, self.policy)

    # ------------------------------------------------------------- resources

    def _generic_core_usage(self, state: SystemState) -> Dict[str, int]:
        """Cores consumed by non-DNN applications, per cluster."""
        usage: Dict[str, int] = {name: 0 for name in state.soc.cluster_names}
        for app_state in state.other_apps:
            application = app_state.application
            if not isinstance(application, GenericApplication):
                continue
            mapping = app_state.mapping
            if mapping is not None:
                usage[mapping.cluster_name] = usage.get(mapping.cluster_name, 0) + mapping.cores
                continue
            # Not yet mapped: charge the demand to the first cluster of the
            # demanded core type so the DNNs do not over-commit it.
            candidates = state.soc.clusters_of_type(application.demand.core_type)
            if candidates:
                usage[candidates[0].name] += application.demand.cores
        return usage

    def _available_cores(self, state: SystemState) -> Dict[str, int]:
        """Cores available to DNN applications, per cluster."""
        generic = self._generic_core_usage(state)
        available: Dict[str, int] = {}
        for cluster in state.soc.clusters:
            online = len(cluster.online_cores)
            available[cluster.name] = max(0, online - generic.get(cluster.name, 0))
        return available

    def _frequency_floors(self, state: SystemState) -> Dict[str, float]:
        """Minimum frequency per cluster imposed by co-resident non-DNN applications."""
        floors: Dict[str, float] = {}
        for app_state in state.other_apps:
            application = app_state.application
            if not isinstance(application, GenericApplication):
                continue
            demand = application.demand
            if demand.min_frequency_mhz is None or app_state.mapping is None:
                continue
            name = app_state.mapping.cluster_name
            floors[name] = max(floors.get(name, 0.0), demand.min_frequency_mhz)
        return floors

    def _power_cap_per_app(self, state: SystemState, num_apps: int) -> Optional[float]:
        """Per-application power cap derived from throttling or an explicit cap."""
        caps = []
        if state.power_cap_mw is not None:
            caps.append(state.power_cap_mw)
        if state.throttling:
            caps.append(state.soc.thermal.sustainable_power_mw(margin_c=self.thermal_margin_c))
        if not caps:
            return None
        total_cap = min(caps)
        idle = state.soc.idle_power_mw()
        headroom = max(total_cap - idle, total_cap * 0.2)
        return headroom / max(1, num_apps)

    # ------------------------------------------------------------ allocation

    def allocate(self, state: SystemState) -> AllocationResult:
        """Run one arbitration round over the active DNN applications."""
        result = AllocationResult()
        dnn_states = state.dnn_apps
        if not dnn_states:
            return result

        available = self._available_cores(state)
        pinned_frequencies: Dict[str, float] = {}
        frequency_floors = self._frequency_floors(state)
        power_cap = self._power_cap_per_app(state, len(dnn_states))

        for app_state in dnn_states:
            application = app_state.application
            assert isinstance(application, DNNApplication)
            decision = self._allocate_one(
                state,
                app_state,
                application,
                available,
                pinned_frequencies,
                frequency_floors,
                power_cap,
            )
            result.decisions[app_state.app_id] = decision
            if decision.point is None:
                if app_state.mapping is not None:
                    result.actions.append(UnmapApplication(app_id=app_state.app_id))
                continue
            point = decision.point
            available[point.cluster_name] = max(
                0, available.get(point.cluster_name, 0) - point.cores
            )
            pinned_frequencies.setdefault(point.cluster_name, point.frequency_mhz)
            result.actions.extend(self._actions_for(app_state, point, state))
        return result

    def _allocate_one(
        self,
        state: SystemState,
        app_state: AppRuntimeState,
        application: DNNApplication,
        available: Dict[str, int],
        pinned_frequencies: Dict[str, float],
        frequency_floors: Dict[str, float],
        power_cap: Optional[float],
    ) -> AllocationDecision:
        current_mapping = app_state.mapping
        # Candidate clusters: anything with a free core when task mapping is
        # allowed.  With the mapping knob disabled, the application is pinned
        # to the cluster it was first deployed on (its "home"), even if that
        # cluster has been taken away — which is exactly why disabling the
        # mapping knob hurts in the Fig 2 scenario.
        if self.allow_task_mapping:
            clusters = [name for name, cores in available.items() if cores > 0]
        else:
            home = self._home_cluster.get(app_state.app_id)
            if home is None and current_mapping is not None:
                home = current_mapping.cluster_name
            if home is None:
                clusters = [name for name, cores in available.items() if cores > 0]
            else:
                clusters = [home] if available.get(home, 0) > 0 else []
        if not clusters:
            return AllocationDecision(app_state.app_id, None, current_mapping)

        frequencies: Dict[str, List[float]] = {}
        for name in clusters:
            cluster = state.soc.cluster(name)
            if name in pinned_frequencies:
                frequencies[name] = [pinned_frequencies[name]]
            elif not self.allow_dvfs:
                frequencies[name] = [cluster.frequency_mhz]
            elif name in frequency_floors:
                floor = frequency_floors[name]
                allowed = [f for f in cluster.available_frequencies() if f >= floor - 1e-9]
                frequencies[name] = allowed or [cluster.opp_table.max_frequency_mhz]
            # else: leave unset -> full OPP table

        configurations = None if self.allow_dnn_scaling else [1.0]
        assert application.trained is not None
        if self.cache is not None:
            space = self.cache.space_for(
                trained=application.trained,
                soc=state.soc,
                energy_model=self.energy_model,
                max_cores_per_cluster=self.max_cores_per_app,
            )
        else:
            space = OperatingPointSpace(
                trained=application.trained,
                soc=state.soc,
                energy_model=self.energy_model,
                clusters=clusters,
                max_cores_per_cluster=self.max_cores_per_app,
            )
        temperature = temperature_bucket_c(
            state.soc.thermal.temperature_c, self.temperature_bucket_width_c
        )
        core_limit = {name: min(available[name], self.max_cores_per_app) for name in clusters}
        # Columnar decision kernel: enumerate each cluster as a
        # struct-of-arrays table, pre-front it, union the fronts, front the
        # union, then let the policy score the surviving columns in numpy.
        # Per-cluster pre-fronting is behaviour-preserving (domination is
        # transitive, so the front of the union equals the front of the union
        # of per-cluster fronts, in the same order).  The fronts are kept per
        # cluster because the cache memoises each one under its own query
        # key, so an epoch that changes one cluster's query re-fronts only
        # that cluster.
        cluster_fronts: List[OperatingPointTable] = []
        query_keys: List[tuple] = []
        for name in clusters:
            kwargs = dict(
                clusters=[name],
                configurations=configurations,
                core_counts=list(range(1, core_limit[name] + 1)),
                frequencies=frequencies if name in frequencies else None,
                temperature_c=temperature,
            )
            if self.cache is not None:
                table = self.cache.enumerate_table(space, **kwargs)
                key = self.cache.query_key(space, **kwargs)
                query_keys.append(key)
                cluster_fronts.append(self.cache.pareto_table_for(key, table))
            else:
                table = space.enumerate_table(**kwargs)
                cluster_fronts.append(
                    table.pareto(objectives=DECISION_OBJECTIVES, maximise=DECISION_MAXIMISE)
                )
        # The decision front: the domination axes cover every metric the
        # requirements and policies read, so a dominated point can never win
        # the selection below, and the (memoised) front is what each epoch
        # actually has to rank.
        union = OperatingPointTable.concat(cluster_fronts)
        if len(cluster_fronts) <= 1:
            front = union
        elif self.cache is not None:
            front = self.cache.pareto_table_for(("union", tuple(query_keys)), union)
        else:
            front = union.pareto(objectives=DECISION_OBJECTIVES, maximise=DECISION_MAXIMISE)
        policy = self.policy_for(app_state.app_id)
        chosen = policy.select_table(front, application.requirements, power_cap_mw=power_cap)
        if chosen is not None:
            self._home_cluster.setdefault(app_state.app_id, chosen.cluster_name)
        return AllocationDecision(app_state.app_id, chosen, current_mapping)

    def _actions_for(
        self, app_state: AppRuntimeState, point: OperatingPoint, state: SystemState
    ) -> List[Action]:
        """Actions needed to move an application to its chosen operating point."""
        actions: List[Action] = []
        mapping = app_state.mapping
        if (
            mapping is None
            or mapping.cluster_name != point.cluster_name
            or mapping.cores != point.cores
        ):
            actions.append(
                MapApplication(
                    app_id=app_state.app_id,
                    cluster_name=point.cluster_name,
                    cores=point.cores,
                )
            )
        if mapping is None or abs(mapping.configuration - point.configuration) > 1e-9:
            actions.append(
                SetConfiguration(app_id=app_state.app_id, configuration=point.configuration)
            )
        cluster = state.soc.cluster(point.cluster_name)
        if self.allow_dvfs and abs(cluster.frequency_mhz - point.frequency_mhz) > 1e-6:
            actions.append(
                SetFrequency(cluster_name=point.cluster_name, frequency_mhz=point.frequency_mhz)
            )
        return actions
