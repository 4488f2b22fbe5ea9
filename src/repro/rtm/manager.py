"""The runtime resource manager (the RTM layer of Fig 5).

The :class:`RuntimeManager` ties everything together: at each decision point
it reads the system state (application monitors, device monitors, thermal
state), arbitrates the platform between the active applications with the
:class:`~repro.rtm.multi_app.MultiAppAllocator`, and returns the knob changes
— dynamic-DNN configurations, task mappings, DVFS settings — needed to keep
every application's requirements satisfied within the platform's power and
thermal constraints.

It also provides :meth:`RuntimeManager.select_operating_point`, the
single-application budget query used by the Section IV case study ("for a
budget of 400 ms and 100 mJ, a 100 % model on the A7 CPU at 900 MHz offers
the highest accuracy...").
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field
from math import isfinite
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.dnn.training import TrainedDynamicDNN
from repro.perfmodel.calibrated import CalibratedLatencyModel
from repro.perfmodel.energy import EnergyModel
from repro.platforms.soc import Soc
from repro.rtm.cache import (
    DECISION_MAXIMISE,
    DECISION_OBJECTIVES,
    DEFAULT_TEMPERATURE_BUCKET_C,
    CacheStats,
    OperatingPointCache,
    temperature_bucket_c,
)
from repro.rtm.monitors import Monitor, MonitorRegistry
from repro.rtm.multi_app import AllocationResult, MultiAppAllocator
from repro.rtm.operating_points import OperatingPoint, OperatingPointSpace
from repro.rtm.policies import MaxAccuracyUnderBudget, SelectionPolicy
from repro.rtm.state import Action, SystemState, UnmapApplication
from repro.workloads.requirements import Requirements
from repro.workloads.tasks import DNNApplication, GenericApplication

__all__ = ["RTMConfig", "RTMDecision", "RuntimeManager"]


@dataclass(frozen=True)
class RTMConfig:
    """Configuration of the runtime manager.

    Attributes
    ----------
    enable_dnn_scaling / enable_dvfs / enable_task_mapping:
        Which knobs the manager is allowed to use (ablation switches).
    thermal_margin_c:
        Safety margin kept below the throttle threshold when deriving power
        caps from the thermal model.
    max_cores_per_app:
        Upper bound on the cores one DNN application may use.
    enable_op_cache:
        Whether the manager memoises operating-point enumerations and Pareto
        fronts across decision epochs, and replays the previous epoch's
        decision when an epoch's :meth:`RuntimeManager.decision_signature`
        repeats it.  Cached and uncached runs produce identical decisions;
        disabling only costs time (every epoch is derived from scratch).
    temperature_bucket_width_c:
        Width of the leakage-temperature buckets the decision path prices
        candidates at (applied whether or not the cache is enabled).
    """

    enable_dnn_scaling: bool = True
    enable_dvfs: bool = True
    enable_task_mapping: bool = True
    thermal_margin_c: float = 2.0
    max_cores_per_app: int = 4
    enable_op_cache: bool = True
    temperature_bucket_width_c: float = DEFAULT_TEMPERATURE_BUCKET_C

    def __post_init__(self) -> None:
        # NaN passes every ordered comparison below as "valid".
        for name in ("thermal_margin_c", "temperature_bucket_width_c"):
            if not isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.max_cores_per_app <= 0:
            raise ValueError("max_cores_per_app must be positive")
        if self.temperature_bucket_width_c <= 0:
            raise ValueError("temperature_bucket_width_c must be positive")


@dataclass
class RTMDecision:
    """Result of one decision epoch (``allocation`` is ``None`` when replayed)."""

    time_ms: float
    actions: List[Action] = field(default_factory=list)
    allocation: Optional[AllocationResult] = None


class RuntimeManager:
    """Application-aware runtime resource manager.

    Parameters
    ----------
    policy:
        Operating-point selection policy applied per application; defaults to
        the paper's implicit policy (maximise accuracy under the budgets).
    energy_model:
        Cost estimator; defaults to the Table-I-calibrated latency model plus
        the platform power model.
    config:
        Knob-enable switches and decision-epoch parameters.
    policy_overrides:
        Optional per-application policies (app id -> policy) for workloads
        whose applications weight the metric axes differently.
    cache:
        Optional shared :class:`OperatingPointCache`.  When omitted, the
        manager creates its own unless ``config.enable_op_cache`` is False.
    """

    def __init__(
        self,
        policy: Optional[SelectionPolicy] = None,
        energy_model: Optional[EnergyModel] = None,
        config: Optional[RTMConfig] = None,
        policy_overrides: Optional[Dict[str, SelectionPolicy]] = None,
        cache: Optional[OperatingPointCache] = None,
    ) -> None:
        self.policy = policy or MaxAccuracyUnderBudget()
        self.energy_model = energy_model or EnergyModel(CalibratedLatencyModel())
        self.config = config or RTMConfig()
        if cache is None and self.config.enable_op_cache:
            cache = OperatingPointCache()
        self.cache = cache
        self.allocator = MultiAppAllocator(
            policy=self.policy,
            energy_model=self.energy_model,
            allow_task_mapping=self.config.enable_task_mapping,
            allow_dvfs=self.config.enable_dvfs,
            allow_dnn_scaling=self.config.enable_dnn_scaling,
            max_cores_per_app=self.config.max_cores_per_app,
            policy_overrides=policy_overrides,
            cache=cache,
            temperature_bucket_width_c=self.config.temperature_bucket_width_c,
            thermal_margin_c=self.config.thermal_margin_c,
        )
        #: Knob writes issued so far, over every decided or replayed epoch.
        self.total_actions = 0
        # One-entry decision replay: the last derived epoch's
        # (decision_signature, actions); see decide().
        self._last_decision: Optional[Tuple[tuple, Tuple[Action, ...]]] = None
        # (state, signature) of the last decision_signature call, consumed by
        # the next decide/replay so an epoch is keyed once.
        self._signature_memo: Optional[Tuple[SystemState, tuple]] = None
        # Device monitors (Fig 5): per-cluster online-core gauges, registered
        # lazily on the first decision epoch (clusters are only known from
        # the system state).  Fault-injected core failures surface here — the
        # RTM *observes* degraded capacity through its monitors and remaps,
        # rather than trusting the core counts it last requested.
        self.monitors = MonitorRegistry()
        # The (cluster name, online-core monitor) pairs the staleness
        # snapshot reads, pointed at the platform last seen.
        self._snapshot_monitors: Tuple[Tuple[str, Monitor], ...] = ()
        self._monitored_soc: Optional[Soc] = None
        # Structural snapshots used to invalidate the cache between epochs.
        self._last_online: Optional[tuple] = None
        self._last_bucket: Optional[float] = None
        self._last_mapped: Dict[str, bool] = {}

    # ----------------------------------------------------------------- cache

    def set_operating_point_cache(self, cache: Optional[OperatingPointCache]) -> None:
        """Attach a (possibly shared) cache, or detach with ``None``."""
        self.cache = cache
        self.allocator.cache = cache

    def cache_stats(self) -> Optional[CacheStats]:
        """Hit/miss statistics of the operating-point cache, if one is attached."""
        return self.cache.stats if self.cache is not None else None

    def _ensure_core_monitors(self, state: SystemState) -> None:
        """Point an online-core device monitor at each cluster (registered once).

        The readers are re-pointed whenever the state carries a different
        platform object, so a manager re-used against a rebuilt platform
        reads the live clusters, not stale ones.
        """
        soc = state.soc
        if soc is self._monitored_soc:
            return
        core_monitors = []
        for cluster in soc.clusters:
            reader = lambda cluster=cluster: float(len(cluster.online_cores))
            try:
                monitor = self.monitors.get(cluster.name, "online_cores")
            except KeyError:
                monitor = Monitor(
                    name="online_cores",
                    owner=cluster.name,
                    reader=reader,
                    unit="cores",
                    description="cores currently online (drops under core-failure faults)",
                )
                self.monitors.register(monitor)
            else:
                monitor.reader = reader
            core_monitors.append((cluster.name, monitor))
        self._snapshot_monitors = tuple(core_monitors)
        self._monitored_soc = soc

    def _invalidate_on_structural_change(self, state: SystemState) -> None:
        """Flush the cache when the platform or application set changed shape.

        Core-loss detection goes through the device monitors: the snapshot
        below reads each cluster's ``online_cores`` monitor, so a fault that
        forces cores offline is observed exactly like an administrative
        hotplug — the cache is flushed (``cores_offline``) and the next
        allocation remaps onto the surviving cores.

        Keys are complete, so these flushes bound staleness and memory rather
        than guard correctness (see :mod:`repro.rtm.cache`).
        """
        self._ensure_core_monitors(state)
        cache = self.cache
        if cache is None:
            return
        online = tuple([(name, monitor.read()) for name, monitor in self._snapshot_monitors])
        bucket = temperature_bucket_c(
            state.soc.thermal.temperature_c, self.config.temperature_bucket_width_c
        )
        apps = state.apps
        mapped = (
            {s.app_id: s.mapping is not None for s in apps.values()} if apps else {}
        )
        if self._last_online is not None and online != self._last_online:
            cache.invalidate("cores_offline")
        if self._last_bucket is not None and bucket != self._last_bucket:
            cache.invalidate("thermal_bucket")
        for app_id, was_mapped in self._last_mapped.items():
            if was_mapped and not mapped.get(app_id, False):
                cache.invalidate("app_unmapped")
                break
        self._last_online = online
        self._last_bucket = bucket
        self._last_mapped = mapped

    # -------------------------------------------------------------- decisions

    def decide(self, state: SystemState) -> RTMDecision:
        """Run one decision epoch over a system-state snapshot.

        The returned decision's actions must be applied by the caller (the
        simulator, or a real middleware layer on silicon).

        With the operating-point cache on, the manager remembers the last
        derived epoch's :meth:`decision_signature` and actions: an epoch
        whose signature equals it is answered by :meth:`replay_decision`
        without running the allocator (such a decision carries no
        ``allocation``).  The signature holds every input the allocator
        reads, home-cluster affinities included, so the replay issues the
        actions a full derivation would.  Subclasses and uncached managers
        (``enable_op_cache=False``) always derive.

        An epoch without a DNN application has nothing to allocate: the
        manager runs only the cache staleness bookkeeping, which decides when
        the cache is flushed and so every later hit and miss count, and
        returns the empty decision a derivation would.  Subclasses derive
        these epochs too.
        """
        signature = None
        if type(self) is RuntimeManager:
            if not any(status.is_dnn for status in state.apps.values()):
                self._signature_memo = None
                self._invalidate_on_structural_change(state)
                return RTMDecision(state.time_ms, [], allocation=AllocationResult())
            if self.cache is not None:
                signature = self.decision_signature(state)
                last = self._last_decision
                if signature is not None and last is not None and last[0] == signature:
                    # An equal signature includes equal home affinities, so
                    # the remembered epoch added none: nothing to re-apply.
                    return self.replay_decision(state, last[1], ())
        self._signature_memo = None
        self._invalidate_on_structural_change(state)
        allocation = self.allocator.allocate(state)
        if self.cache is not None and any(
            isinstance(action, UnmapApplication) for action in allocation.actions
        ):
            self.cache.invalidate("app_unmapped")
        decision = RTMDecision(
            time_ms=state.time_ms,
            actions=list(allocation.actions),
            allocation=allocation,
        )
        self.total_actions += len(decision.actions)
        if signature is not None:
            self._last_decision = (signature, tuple(decision.actions))
        return decision

    # ------------------------------------------------- table-batched path
    #
    # The batched lock-step engine (:mod:`repro.sim.batched`) evaluates many
    # replicas' decision epochs through shared machinery: one decision per
    # *distinct* (manager behaviour, decision inputs) pair, replayed into
    # every replica that asks the same question.  Three entry points support
    # this.  ``decision_memo_key`` names the manager's behaviour by value;
    # ``decision_signature`` names one epoch's complete decision inputs by
    # value; ``decide_recorded`` / ``replay_decision`` capture and re-apply a
    # decision's full side effects.  Either key method returning ``None``
    # means "not keyable by value" and disables sharing for this instance —
    # the engine then falls back to calling :meth:`decide` directly.

    def decision_memo_key(self) -> Optional[tuple]:
        """Value key of this manager's decision behaviour, or ``None``.

        Two managers with equal keys make identical decisions on any state
        with equal :meth:`decision_signature`.  ``None`` (subclasses, or
        custom policies / latency models without a ``cache_key()``) simply
        opts this instance out of cross-replica decision sharing.
        """
        if type(self) is not RuntimeManager:
            return None
        policy_key = self.policy.cache_key()
        if policy_key is None:
            return None
        overrides = []
        for app_id, policy in sorted(self.allocator.policy_overrides.items()):
            override_key = policy.cache_key()
            if override_key is None:
                return None
            overrides.append((app_id, override_key))
        # EnergyModel.cache_key falls back to id() for latency models without
        # their own key; an id() is not a value key, so refuse to memoise.
        if not callable(getattr(self.energy_model.latency_model, "cache_key", None)):
            return None
        return (
            "rtm",
            policy_key,
            tuple(overrides),
            self.energy_model.cache_key(),
            astuple(self.config),
            self.cache is not None,
        )

    def decision_signature(self, state: SystemState) -> Optional[tuple]:
        """Value key of every input one decision epoch reads, or ``None``.

        Covers the platform topology, each cluster's dynamic state, every
        application's descriptor and current mapping, the leakage-temperature
        bucket, the power-cap inputs and the allocator's home-cluster
        affinities.  ``state.time_ms`` is deliberately excluded: it is copied
        into the decision but never influences the chosen actions.  Unknown
        application types return ``None`` (epoch not keyable).

        The result for one ``state`` object is kept until the next
        :meth:`decide` or :meth:`replay_decision`, so a caller that keys an
        epoch and then decides it computes the signature once.
        """
        memo = self._signature_memo
        if memo is not None and memo[0] is state:
            return memo[1]
        soc = state.soc
        apps = []
        for app_id, status in state.apps.items():
            application = status.application
            mapping = status.mapping
            mapping_key = (
                None
                if mapping is None
                else (
                    mapping.cluster_name,
                    mapping.cores,
                    mapping.configuration,
                    mapping.frequency_mhz,
                )
            )
            if isinstance(application, DNNApplication):
                apps.append(
                    (
                        app_id,
                        "dnn",
                        application.priority,
                        application.requirements.cache_key(),
                        application.trained.cache_key(),
                        mapping_key,
                    )
                )
            elif isinstance(application, GenericApplication):
                demand = application.demand
                apps.append(
                    (
                        app_id,
                        "generic",
                        application.priority,
                        (
                            demand.core_type,
                            demand.cores,
                            demand.min_frequency_mhz,
                            demand.utilisation,
                        ),
                        mapping_key,
                    )
                )
            else:
                return None
        clusters = tuple(
            (cluster.name, cluster.frequency_mhz, len(cluster.online_cores))
            for cluster in soc.clusters
        )
        bucket = temperature_bucket_c(
            soc.thermal.temperature_c, self.config.temperature_bucket_width_c
        )
        caps = None
        if state.throttling or state.power_cap_mw is not None:
            caps = (
                state.power_cap_mw,
                state.throttling,
                (
                    soc.thermal.sustainable_power_mw(margin_c=self.config.thermal_margin_c)
                    if state.throttling
                    else None
                ),
                soc.idle_power_mw(),
            )
        home = tuple(sorted(self.allocator._home_cluster.items()))
        signature = (
            soc.topology_key(),
            clusters,
            tuple(apps),
            bucket,
            state.throttling,
            caps,
            home,
        )
        self._signature_memo = (state, signature)
        return signature

    def decide_recorded(
        self, state: SystemState
    ) -> Tuple[RTMDecision, Tuple[Tuple[Action, ...], Tuple[Tuple[str, str], ...]]]:
        """Run :meth:`decide` and capture a replayable record of its effects.

        Returns ``(decision, replay)`` where ``replay`` holds the issued
        actions plus the home-cluster affinities this epoch introduced —
        everything :meth:`replay_decision` needs to re-apply the decision to
        an identical state without re-running the allocator.
        """
        home_before = dict(self.allocator._home_cluster)
        decision = self.decide(state)
        home_delta = tuple(
            (app_id, cluster_name)
            for app_id, cluster_name in self.allocator._home_cluster.items()
            if app_id not in home_before
        )
        return decision, (tuple(decision.actions), home_delta)

    def replay_decision(
        self,
        state: SystemState,
        actions: Tuple[Action, ...],
        home_updates: Tuple[Tuple[str, str], ...],
    ) -> RTMDecision:
        """Re-apply a decision captured by :meth:`decide_recorded`.

        Valid only for a state whose :meth:`decision_signature` equals the
        recorded epoch's.  Mirrors every side effect of :meth:`decide`: the
        cache staleness bookkeeping, the allocator's home-cluster affinities
        and the action count.  Actions are frozen dataclasses, shared safely
        across replicas.
        """
        self._signature_memo = None
        self._invalidate_on_structural_change(state)
        for app_id, cluster_name in home_updates:
            self.allocator._home_cluster.setdefault(app_id, cluster_name)
        decision = RTMDecision(time_ms=state.time_ms, actions=list(actions))
        self.total_actions += len(decision.actions)
        return decision

    # --------------------------------------------------- single-app queries

    def operating_point_space(
        self,
        trained: TrainedDynamicDNN,
        soc: Soc,
        clusters: Optional[Sequence[str]] = None,
    ) -> OperatingPointSpace:
        """The operating-point space of one application on one platform."""
        return OperatingPointSpace(
            trained=trained,
            soc=soc,
            energy_model=self.energy_model,
            clusters=clusters,
            max_cores_per_cluster=self.config.max_cores_per_app,
        )

    def select_operating_point(
        self,
        trained: TrainedDynamicDNN,
        soc: Soc,
        requirements: Requirements,
        clusters: Optional[Sequence[str]] = None,
        core_counts: Optional[Sequence[int]] = None,
        power_cap_mw: Optional[float] = None,
    ) -> Optional[OperatingPoint]:
        """Choose the best operating point for one application and a budget.

        This is the Section IV case-study query: given latency / energy /
        power / accuracy budgets, return the (configuration, cluster, cores,
        frequency) combination the policy prefers.
        """
        configurations = None if self.config.enable_dnn_scaling else [1.0]
        temperature = temperature_bucket_c(
            soc.thermal.temperature_c, self.config.temperature_bucket_width_c
        )
        query = dict(
            configurations=configurations,
            core_counts=core_counts,
            temperature_c=temperature,
        )
        if self.cache is not None:
            space = self.cache.space_for(
                trained, soc, self.energy_model, clusters, self.config.max_cores_per_app
            )
            table = self.cache.enumerate_table(space, **query)
            pareto_key: Optional[tuple] = self.cache.query_key(space, **query)
        else:
            space = self.operating_point_space(trained, soc, clusters)
            table = space.enumerate_table(**query)
            pareto_key = None
        if not self.config.enable_dvfs:
            current = {cluster.name: cluster.frequency_mhz for cluster in soc.clusters}
            pinned = np.array(
                [current[name] for name in table.cluster_names], dtype=float
            )[table.cluster_index]
            table = table.take(np.flatnonzero(np.abs(table.frequency_mhz - pinned) < 1e-6))
            if pareto_key is not None:
                pareto_key = (
                    "dvfs_pinned",
                    pareto_key,
                    tuple(sorted(current.items())),
                )
        # The front is taken after any DVFS pinning: a point's dominator may
        # itself be pinned away, so filtering first would not be equivalent.
        if self.cache is not None and pareto_key is not None:
            table = self.cache.pareto_table_for(pareto_key, table)
        else:
            table = table.pareto(objectives=DECISION_OBJECTIVES, maximise=DECISION_MAXIMISE)
        return self.policy.select_table(table, requirements, power_cap_mw=power_cap_mw)

    def explain(self, point: OperatingPoint, requirements: Requirements) -> Dict[str, object]:
        """A structured explanation of why a point satisfies (or not) a budget."""
        latency_limit = requirements.effective_latency_limit_ms
        return {
            "operating_point": point.describe(),
            "latency_ms": point.latency_ms,
            "latency_limit_ms": latency_limit,
            "latency_ok": latency_limit is None or point.latency_ms <= latency_limit,
            "energy_mj": point.energy_mj,
            "energy_limit_mj": requirements.max_energy_mj,
            "energy_ok": requirements.max_energy_mj is None
            or point.energy_mj <= requirements.max_energy_mj,
            "accuracy_percent": point.accuracy_percent,
            "accuracy_floor_percent": requirements.min_accuracy_percent,
            "accuracy_ok": requirements.min_accuracy_percent is None
            or point.accuracy_percent >= requirements.min_accuracy_percent,
            "power_mw": point.power_mw,
            "power_limit_mw": requirements.max_power_mw,
        }
