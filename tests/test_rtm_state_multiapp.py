"""Tests for the RTM state/action vocabulary and the multi-application allocator."""

import pytest

from repro.rtm.manager import RTMConfig, RuntimeManager
from repro.rtm.multi_app import MultiAppAllocator
from repro.rtm.policies import MaxAccuracyUnderBudget
from repro.rtm.state import (
    AppRuntimeState,
    MapApplication,
    Mapping,
    SetConfiguration,
    SetCoresOnline,
    SetFrequency,
    SystemState,
    UnmapApplication,
)
from repro.sim.engine import Simulator
from repro.workloads.requirements import Requirements
from repro.workloads.scenarios import build_scenario
from repro.workloads.tasks import make_arvr_application, make_background_application, make_dnn_application


@pytest.fixture
def allocator(energy_model):
    return MultiAppAllocator(MaxAccuracyUnderBudget(), energy_model)


def make_state(soc, app_states, throttling=False, power_cap_mw=None):
    return SystemState(
        time_ms=0.0,
        soc=soc,
        apps={state.app_id: state for state in app_states},
        throttling=throttling,
        power_cap_mw=power_cap_mw,
    )


class TestStateVocabulary:
    def test_mapping_validation(self):
        mapping = Mapping("a15", cores=2, configuration=0.5)
        assert mapping.cores == 2
        with pytest.raises(ValueError):
            Mapping("a15", cores=0)
        with pytest.raises(ValueError):
            Mapping("a15", configuration=0.0)

    def test_action_validation(self):
        with pytest.raises(ValueError):
            SetConfiguration(app_id="a", configuration=1.5)
        with pytest.raises(ValueError):
            SetFrequency(cluster_name="", frequency_mhz=100.0)
        with pytest.raises(ValueError):
            SetFrequency(cluster_name="a15", frequency_mhz=0.0)
        with pytest.raises(ValueError):
            MapApplication(app_id="", cluster_name="a15")
        with pytest.raises(ValueError):
            MapApplication(app_id="a", cluster_name="a15", cores=0)
        with pytest.raises(ValueError):
            UnmapApplication(app_id="")
        with pytest.raises(ValueError):
            SetCoresOnline(cluster_name="", online_cores=1)

    def test_system_state_app_queries(self, xu3, trained_dnn):
        dnn = make_dnn_application("dnn1", trained_dnn, Requirements(target_fps=5.0, priority=2))
        other = make_dnn_application("dnn2", trained_dnn, Requirements(target_fps=5.0, priority=9))
        arvr = make_arvr_application("arvr")
        state = make_state(
            xu3,
            [
                AppRuntimeState(application=dnn),
                AppRuntimeState(application=other),
                AppRuntimeState(application=arvr),
            ],
        )
        dnn_ids = [app.app_id for app in state.dnn_apps]
        assert dnn_ids == ["dnn2", "dnn1"]  # priority order
        assert [app.app_id for app in state.other_apps] == ["arvr"]
        assert state.app("dnn1").is_dnn
        with pytest.raises(KeyError):
            state.app("ghost")


class TestMultiAppAllocator:
    def test_priority_app_gets_the_accelerator(self, allocator, xu3, trained_dnn):
        low = make_dnn_application(
            "low", trained_dnn, Requirements(target_fps=10.0, priority=1)
        )
        high = make_dnn_application(
            "high", trained_dnn, Requirements(target_fps=30.0, max_latency_ms=20.0, priority=9)
        )
        state = make_state(
            xu3, [AppRuntimeState(application=low), AppRuntimeState(application=high)]
        )
        result = allocator.allocate(state)
        high_point = result.decision_for("high").point
        low_point = result.decision_for("low").point
        # Only the Mali GPU meets a 20 ms latency bound for the full model;
        # the higher-priority application gets it.
        assert high_point.cluster_name == "mali_gpu"
        assert low_point.cluster_name != "mali_gpu"

    def test_shared_cluster_frequency_is_pinned(self, allocator, xu3, trained_dnn):
        apps = [
            AppRuntimeState(
                application=make_dnn_application(
                    f"dnn{i}",
                    trained_dnn,
                    Requirements(target_fps=5.0, priority=10 - i),
                )
            )
            for i in range(3)
        ]
        state = make_state(xu3, apps)
        result = allocator.allocate(state)
        frequency_by_cluster = {}
        for decision in result.decisions.values():
            point = decision.point
            if point is None:
                continue
            previous = frequency_by_cluster.setdefault(point.cluster_name, point.frequency_mhz)
            # Applications sharing a cluster in the same round share its frequency.
            assert previous == pytest.approx(point.frequency_mhz)

    def test_generic_frequency_floor_respected(self, allocator, xu3, trained_dnn):
        arvr = make_arvr_application("arvr", gpu_min_frequency_mhz=600.0)
        arvr_state = AppRuntimeState(application=arvr, mapping=Mapping("mali_gpu", cores=1))
        dnn = make_dnn_application("dnn1", trained_dnn, Requirements(target_fps=5.0))
        state = make_state(xu3, [arvr_state, AppRuntimeState(application=dnn)])
        floors = allocator._frequency_floors(state)
        assert floors == {"mali_gpu": 600.0}
        result = allocator.allocate(state)
        point = result.decision_for("dnn1").point
        if point is not None and point.cluster_name == "mali_gpu":
            assert point.frequency_mhz >= 600.0

    def test_power_cap_derived_from_throttling(self, allocator, xu3, trained_dnn):
        dnn = make_dnn_application("dnn1", trained_dnn, Requirements(target_fps=5.0))
        hot = make_state(xu3, [AppRuntimeState(application=dnn)], throttling=True)
        cap = allocator._power_cap_per_app(hot, num_apps=1)
        assert cap is not None and cap > 0
        cool = make_state(xu3, [AppRuntimeState(application=dnn)], throttling=False)
        assert allocator._power_cap_per_app(cool, num_apps=1) is None

    def test_thermal_margin_lowers_the_throttling_cap(self, xu3, trained_dnn):
        dnn = make_dnn_application("dnn1", trained_dnn, Requirements(target_fps=5.0))
        hot = make_state(xu3, [AppRuntimeState(application=dnn)], throttling=True)
        default = RuntimeManager()
        wide = RuntimeManager(config=RTMConfig(thermal_margin_c=10.0))
        default_cap = default.allocator._power_cap_per_app(hot, num_apps=1)
        wide_cap = wide.allocator._power_cap_per_app(hot, num_apps=1)
        assert wide_cap < default_cap
        # The decision signature carries the cap input the margin changes.
        assert wide.decision_signature(hot) != default.decision_signature(hot)

    def test_explicit_power_cap_used(self, allocator, xu3, trained_dnn):
        dnn = make_dnn_application("dnn1", trained_dnn, Requirements(target_fps=5.0))
        state = make_state(
            xu3, [AppRuntimeState(application=dnn)], power_cap_mw=2000.0
        )
        cap = allocator._power_cap_per_app(state, num_apps=2)
        assert cap is not None and cap <= 2000.0

    def test_actions_only_for_changes(self, allocator, xu3, trained_dnn):
        dnn = make_dnn_application("dnn1", trained_dnn, Requirements(target_fps=5.0))
        state = make_state(xu3, [AppRuntimeState(application=dnn)])
        first = allocator.allocate(state)
        point = first.decision_for("dnn1").point
        # Install exactly the chosen operating point, then re-allocate: no new
        # mapping or configuration actions should be emitted.
        xu3.cluster(point.cluster_name).set_frequency(point.frequency_mhz)
        xu3.cluster(point.cluster_name).reserve_cores(point.cores, "dnn1")
        dnn.dynamic_dnn.set_configuration(point.configuration)
        mapped_state = make_state(
            xu3,
            [
                AppRuntimeState(
                    application=dnn,
                    mapping=Mapping(
                        point.cluster_name,
                        cores=point.cores,
                        configuration=point.configuration,
                    ),
                )
            ],
        )
        second = allocator.allocate(mapped_state)
        assert not [
            a
            for a in second.actions
            if isinstance(a, (MapApplication, SetConfiguration))
        ]

    def test_unplaced_app_gets_unmapped(self, energy_model, xu3, trained_dnn):
        allocator = MultiAppAllocator(MaxAccuracyUnderBudget(), energy_model)
        # Background tasks occupy every core of every cluster.
        hogs = []
        for index, cluster in enumerate(xu3.clusters):
            hog = make_background_application(
                f"hog{index}", cores=cluster.num_cores, core_type=cluster.core_type
            )
            cluster.reserve_cores(cluster.num_cores, hog.app_id)
            hogs.append(AppRuntimeState(application=hog, mapping=Mapping(cluster.name, cluster.num_cores)))
        dnn = make_dnn_application("dnn1", trained_dnn, Requirements(target_fps=5.0))
        dnn_state = AppRuntimeState(application=dnn, mapping=Mapping("a7", cores=1))
        state = make_state(xu3, hogs + [dnn_state])
        result = allocator.allocate(state)
        assert not result.decision_for("dnn1").placed
        assert any(isinstance(a, UnmapApplication) and a.app_id == "dnn1" for a in result.actions)
        assert result.unplaced_apps == ["dnn1"]

    def test_home_cluster_pinning_without_task_mapping(self, energy_model, xu3, trained_dnn):
        allocator = MultiAppAllocator(
            MaxAccuracyUnderBudget(), energy_model, allow_task_mapping=False
        )
        dnn = make_dnn_application("dnn1", trained_dnn, Requirements(target_fps=10.0))
        state = make_state(xu3, [AppRuntimeState(application=dnn)])
        first = allocator.allocate(state)
        home = first.decision_for("dnn1").point.cluster_name
        # The home cluster is now fully occupied by someone else.
        xu3.cluster(home).reserve_cores(len(xu3.cluster(home).free_cores), "other")
        other = make_background_application("other", cores=1)
        other_state = AppRuntimeState(
            application=other, mapping=Mapping(home, cores=len(xu3.cluster(home).cores))
        )
        second = allocator.allocate(
            make_state(xu3, [AppRuntimeState(application=dnn), other_state])
        )
        # Without the mapping knob the application cannot move elsewhere.
        assert not second.decision_for("dnn1").placed

    def test_invalid_max_cores(self, energy_model):
        with pytest.raises(ValueError):
            MultiAppAllocator(MaxAccuracyUnderBudget(), energy_model, max_cores_per_app=0)


def _count_allocations(manager):
    """Record every allocator run of ``manager``."""
    calls = []
    allocate = manager.allocator.allocate

    def counted(state):
        calls.append(state.time_ms)
        return allocate(state)

    manager.allocator.allocate = counted
    return calls


class _SubclassedManager(RuntimeManager):
    """Behaves like its base but is not keyable by value."""


class TestDecisionReplay:
    """The one-entry decision replay inside RuntimeManager.decide."""

    @staticmethod
    def _warm(manager, xu3, trained_dnn):
        dnn = make_dnn_application("dnn1", trained_dnn, Requirements(target_fps=5.0))
        state = make_state(xu3, [AppRuntimeState(application=dnn)])
        # The first epoch records the home cluster, which is a decision input.
        manager.decide(state)
        return dnn, state, manager.decide(state)

    def test_repeated_signature_replays_without_the_allocator(self, xu3, trained_dnn):
        manager = RuntimeManager()
        _, state, derived = self._warm(manager, xu3, trained_dnn)
        assert derived.actions and derived.allocation is not None
        calls = _count_allocations(manager)
        replayed = manager.decide(state)
        assert calls == []
        assert replayed.allocation is None
        assert replayed.actions == derived.actions
        assert manager.total_actions == 3 * len(derived.actions)
        # Same actions as a manager that derives every epoch.
        uncached = RuntimeManager(config=RTMConfig(enable_op_cache=False))
        for _ in range(3):
            reference = uncached.decide(state)
        assert reference.actions == replayed.actions

    @pytest.mark.parametrize("change", ["requirement", "temperature_bucket", "online_cores"])
    def test_changed_input_is_derived(self, xu3, trained_dnn, change):
        manager = RuntimeManager()
        dnn, state, _ = self._warm(manager, xu3, trained_dnn)
        before = manager.decision_signature(state)
        if change == "requirement":
            dnn.requirements = Requirements(target_fps=10.0)
        elif change == "temperature_bucket":
            xu3.thermal.temperature_c = xu3.thermal.temperature_c + 20.0
        else:
            xu3.cluster("a7").cores[-1].set_online(False)
        state = make_state(xu3, list(state.apps.values()))
        assert manager.decision_signature(state) != before
        calls = _count_allocations(manager)
        decision = manager.decide(state)
        assert len(calls) == 1 and decision.allocation is not None

    @pytest.mark.parametrize(
        "make",
        [_SubclassedManager, lambda: RuntimeManager(config=RTMConfig(enable_op_cache=False))],
        ids=["subclass", "uncached"],
    )
    def test_replay_is_off_for_subclasses_and_uncached_managers(self, xu3, trained_dnn, make):
        manager = make()
        _, state, _ = self._warm(manager, xu3, trained_dnn)
        calls = _count_allocations(manager)
        for _ in range(3):
            assert manager.decide(state).allocation is not None
        assert len(calls) == 3


def _forget_replays(manager):
    """Make ``manager`` derive every DNN epoch, as a subclass does.

    The one-entry decision replay answers an epoch without cache lookups, so
    a subclass (which never replays) records more cache hits.  Forgetting
    the remembered epoch before every decision leaves the early return for
    epochs without a DNN application as the only difference between the
    base class and a subclass.
    """
    decide = manager.decide

    def derive(state):
        manager._last_decision = None
        return decide(state)

    manager.decide = derive


class TestEpochsWithoutDNNApplications:
    """The early return of RuntimeManager.decide for epochs with no DNN app."""

    def test_returns_the_empty_decision_of_the_full_path(self, xu3):
        background = make_background_application("bg", cores=1)
        state = make_state(xu3, [AppRuntimeState(application=background)])
        manager = RuntimeManager()
        calls = _count_allocations(manager)
        decision = manager.decide(state)
        reference = _SubclassedManager().decide(state)
        assert calls == []
        assert decision.actions == reference.actions == []
        assert decision.allocation.decisions == reference.allocation.decisions == {}
        assert decision.allocation.actions == reference.allocation.actions == []

    @pytest.mark.parametrize("case", ["diurnal", "trace", "chaos_double_fault"])
    def test_idle_heavy_runs_match_a_subclass_that_always_derives(self, case):
        # diurnal (seed 0) has no DNN application from 8.5 s to 20.5 s; the
        # trace replays it, and the chaos_double_fault plan lands its core
        # failure, DVFS cap and sensor bias inside that gap.
        plan = build_scenario(case, seed=0).fault_plan if case == "chaos_double_fault" else None
        traces, managers, allocations = [], [], []
        for manager in (RuntimeManager(), _SubclassedManager()):
            # A fresh scenario per run: runs mutate their applications.
            if case == "trace":
                scenario = build_scenario("trace", seed=0, source="diurnal")
            else:
                scenario = build_scenario("diurnal", seed=0)
            _forget_replays(manager)
            allocations.append(_count_allocations(manager))
            traces.append(Simulator(scenario, manager, fault_plan=plan).run())
            managers.append(manager)
        early, full = traces
        # The base class skipped the allocator on some epochs.
        assert len(allocations[0]) < len(allocations[1])
        assert early.fingerprint() == full.fingerprint()
        # Cache counters are outside the fingerprint: the staleness
        # bookkeeping decides when the cache is flushed, hence every count.
        assert early.decisions == full.decisions
        assert managers[0].total_actions == managers[1].total_actions
        early_stats, full_stats = (manager.cache_stats() for manager in managers)
        assert early_stats.invalidations == full_stats.invalidations
