"""Tests for simulator internals: accounting, penalties, preemption, actions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.managers import make_manager
from repro.perfmodel.calibrated import CalibratedLatencyModel
from repro.perfmodel.energy import EnergyModel
from repro.platforms.power import ClusterPowerModel
from repro.rtm.manager import RuntimeManager
from repro.rtm.state import MapApplication, SetConfiguration, SetFrequency
from repro.sim.engine import Simulator, SimulatorConfig
from repro.sim.events import EventQueue
from repro.sim.faults import CoreFailure, CoreRecovery, FaultPlan
from repro.workloads.requirements import Requirements
from repro.workloads.scenarios import Scenario, build_scenario
from repro.workloads.tasks import (
    make_arvr_application,
    make_background_application,
    make_dnn_application,
)


def dnn_scenario(trained_dnn, extra_apps=(), duration_ms=3000.0, fps=5.0, **req):
    app = make_dnn_application(
        "dnn1", trained_dnn, Requirements(target_fps=fps, priority=3, **req)
    )
    return Scenario(
        name="unit",
        platform_name="odroid_xu3",
        applications=[app, *extra_apps],
        duration_ms=duration_ms,
    )


class _ScriptedManager:
    """A manager that issues a fixed action script on its first decision."""

    def __init__(self, actions):
        self._actions = list(actions)
        self.calls = 0

    def decide(self, state):
        self.calls += 1
        actions = self._actions if self.calls == 1 else []

        class _Decision:
            pass

        decision = _Decision()
        decision.actions = actions
        return decision


class TestScriptedActions:
    def test_map_and_configure_actions_are_applied(self, trained_dnn):
        scenario = dnn_scenario(trained_dnn, duration_ms=2000.0)
        manager = _ScriptedManager(
            [
                MapApplication(app_id="dnn1", cluster_name="a7", cores=2),
                SetConfiguration(app_id="dnn1", configuration=0.5),
                SetFrequency(cluster_name="a7", frequency_mhz=1000.0),
            ]
        )
        simulator = Simulator(scenario, manager)
        trace = simulator.run()
        jobs = trace.completed_jobs("dnn1")
        assert jobs
        assert all(job.cluster == "a7" for job in jobs)
        assert all(job.cores == 2 for job in jobs)
        assert all(job.configuration == pytest.approx(0.5) for job in jobs)
        assert all(job.frequency_mhz == pytest.approx(1000.0) for job in jobs)
        # The cores are genuinely reserved on the platform.
        assert len(simulator.soc.cluster("a7").cores_reserved_by("dnn1")) == 2

    def test_unknown_cluster_in_action_is_ignored(self, trained_dnn):
        scenario = dnn_scenario(trained_dnn, duration_ms=1000.0)
        manager = _ScriptedManager(
            [
                SetFrequency(cluster_name="npu", frequency_mhz=1000.0),
                MapApplication(app_id="dnn1", cluster_name="npu", cores=1),
            ]
        )
        trace = Simulator(scenario, manager).run()
        # The bogus actions are dropped; the DNN stays unmapped and its jobs drop.
        assert all(job.dropped for job in trace.jobs_for("dnn1"))

    def test_migration_penalty_charged_once(self, trained_dnn):
        scenario = dnn_scenario(trained_dnn, duration_ms=4000.0, fps=2.0)
        config = SimulatorConfig(migration_penalty_ms=50.0, decision_interval_ms=1000.0)

        class _MigratingManager:
            """Maps to the GPU first, then migrates to the A15 at the next call."""

            def __init__(self):
                self.calls = 0

            def decide(self, state):
                self.calls += 1

                class _Decision:
                    actions = []

                decision = _Decision()
                if self.calls == 1:
                    decision.actions = [MapApplication(app_id="dnn1", cluster_name="mali_gpu", cores=1)]
                elif self.calls == 2:
                    decision.actions = [MapApplication(app_id="dnn1", cluster_name="a15", cores=1)]
                else:
                    decision.actions = []
                return decision

        trace = Simulator(scenario, _MigratingManager(), config=config).run()
        a15_jobs = [job for job in trace.completed_jobs("dnn1") if job.cluster == "a15"]
        assert len(a15_jobs) >= 2
        # The first job after migration carries the 50 ms penalty.
        assert a15_jobs[0].latency_ms > a15_jobs[1].latency_ms + 40.0

    def test_configuration_switch_overhead_charged(self, trained_dnn):
        scenario = dnn_scenario(trained_dnn, duration_ms=3000.0, fps=2.0)

        class _SwitchingManager:
            def __init__(self):
                self.calls = 0

            def decide(self, state):
                self.calls += 1

                class _Decision:
                    actions = []

                decision = _Decision()
                if self.calls == 1:
                    decision.actions = [
                        MapApplication(app_id="dnn1", cluster_name="a15", cores=1),
                        SetConfiguration(app_id="dnn1", configuration=1.0),
                    ]
                elif self.calls == 2:
                    decision.actions = [SetConfiguration(app_id="dnn1", configuration=0.5)]
                else:
                    decision.actions = []
                return decision

        config = SimulatorConfig(decision_interval_ms=600.0)
        trace = Simulator(scenario, _SwitchingManager(), config=config).run()
        half_jobs = [j for j in trace.completed_jobs("dnn1") if j.configuration == pytest.approx(0.5)]
        assert len(half_jobs) >= 2
        # The switch overhead (1 ms by default) lands on the first 50 % job.
        assert half_jobs[0].latency_ms > half_jobs[1].latency_ms


class TestGenericApplications:
    def test_arvr_preempts_dnn_from_gpu(self, trained_dnn):
        arvr = make_arvr_application("arvr", arrival_time_ms=1000.0, priority=9)
        scenario = dnn_scenario(trained_dnn, extra_apps=[arvr], duration_ms=3000.0, fps=10.0)
        simulator = Simulator(scenario, RuntimeManager())
        simulator.run()
        gpu = simulator.soc.cluster("mali_gpu")
        # At the end of the run the AR/VR application owns the GPU core.
        assert gpu.cores_reserved_by("arvr")

    def test_arvr_raises_gpu_frequency_to_its_floor(self, trained_dnn):
        arvr = make_arvr_application("arvr", arrival_time_ms=500.0, gpu_min_frequency_mhz=600.0)
        scenario = dnn_scenario(trained_dnn, extra_apps=[arvr], duration_ms=1500.0)

        class _IdleManager:
            def decide(self, state):
                class _Decision:
                    actions = []

                return _Decision()

        simulator = Simulator(scenario, _IdleManager())
        simulator.soc.cluster("mali_gpu").set_frequency(177.0)
        simulator.run()
        assert simulator.soc.cluster("mali_gpu").frequency_mhz >= 600.0

    def test_background_task_occupies_cpu_cores(self, trained_dnn):
        background = make_background_application(
            "bg", cores=2, arrival_time_ms=0.0, departure_time_ms=2000.0
        )
        scenario = dnn_scenario(trained_dnn, extra_apps=[background], duration_ms=3000.0)
        simulator = Simulator(scenario, RuntimeManager())
        simulator.run()
        # After the background task departs its cores are free again.
        assert not any(
            core.reserved_by == "bg" for core in simulator.soc.all_cores
        )

    def test_memory_accounting_follows_arrivals_and_departures(self, trained_dnn):
        background = make_background_application(
            "bg", cores=1, arrival_time_ms=0.0, departure_time_ms=1000.0
        )
        scenario = dnn_scenario(trained_dnn, extra_apps=[background], duration_ms=2000.0)
        simulator = Simulator(scenario, RuntimeManager())
        simulator.run()
        # Only the DNN (which never departs) still holds memory at the end.
        dnn_footprint = scenario.application("dnn1").memory_footprint_mb
        assert simulator.soc.allocated_memory_mb == pytest.approx(dnn_footprint)


class TestPowerIntegration:
    def test_interval_power_reflects_load(self, trained_dnn):
        scenario = dnn_scenario(trained_dnn, duration_ms=3000.0, fps=20.0)
        simulator = Simulator(scenario, RuntimeManager())
        trace = simulator.run()
        idle_power = simulator.soc.idle_power_mw()
        # With a 20 fps DNN running, the mean sampled power must exceed the
        # idle floor (the busy-time integration must see the jobs even though
        # the sampling period is a multiple of the job period).
        assert trace.mean_power_mw() > idle_power * 1.02

    def test_utilisations_exposed_to_manager(self, trained_dnn):
        seen = {}

        class _SpyManager(RuntimeManager):
            def decide(self, state):
                if state.cluster_utilisations:
                    seen.update(state.cluster_utilisations)
                return super().decide(state)

        scenario = dnn_scenario(trained_dnn, duration_ms=3000.0, fps=20.0)
        Simulator(scenario, _SpyManager()).run()
        assert seen  # utilisation samples reached the manager
        assert all(0.0 <= value <= 1.0 for value in seen.values())
        assert max(seen.values()) > 0.0


class _ScalarPowerModel(ClusterPowerModel):
    """The stock power model under another type: no memoised replay applies."""


def _run_registry_scenario(name, manager="rtm", energy_model=None, scalar_power=False, fault_plan=None):
    simulator = Simulator(
        build_scenario(name, seed=0),
        make_manager(manager),
        energy_model=energy_model,
        fault_plan=fault_plan,
    )
    if scalar_power:
        for cluster in simulator.soc.clusters:
            cluster.power_model = _ScalarPowerModel(cluster.power_model.params)
    return simulator, simulator.run()


#: Every A15 core fails mid-run (under multi_dnn, while a job runs there)
#: and comes back later.
_A15_BLACKOUT = FaultPlan(
    events=(
        CoreFailure(time_ms=4_000.0, cluster="a15", cores=4),
        CoreRecovery(time_ms=12_000.0, cluster="a15", cores=4),
    )
)


#: Two A15 cores fail and recover inside diurnal's gap without a DNN
#: application (seed 0: 8.5 s to 20.5 s).
_IDLE_GAP_CORE_FAILURE = FaultPlan(
    events=(
        CoreFailure(time_ms=10_000.0, cluster="a15", cores=2),
        CoreRecovery(time_ms=15_000.0, cluster="a15", cores=2),
    )
)


class TestMemoisedArithmetic:
    """The simulator's per-run memos against the models they replay."""

    @pytest.mark.parametrize("name", ["chaos_double_fault", "thermal_stress"])
    def test_cost_memo_matches_energy_model_cost(self, name):
        # An explicit energy model prices every job through EnergyModel.cost.
        reference, expected = _run_registry_scenario(
            name, energy_model=EnergyModel(CalibratedLatencyModel())
        )
        memoised, actual = _run_registry_scenario(name)
        assert not reference._cost_memo and memoised._cost_memo
        assert actual.fingerprint() == expected.fingerprint()
        if name == "thermal_stress":
            # Leakage varies with temperature on every memo hit.
            assert any(sample.throttling for sample in actual.power_samples)

    @pytest.mark.parametrize(
        "name, manager, fault_plan",
        [
            ("chaos_double_fault", "rtm", None),
            ("thermal_stress", "rtm", None),
            ("multi_dnn", "static_deployment", _A15_BLACKOUT),
            # Changes while nothing runs: the governor moves frequencies in
            # idle gaps, a sensor fault shifts the leakage temperature, and
            # cores fail and recover in an idle gap.
            ("diurnal", "governor_only", None),
            ("chaos_thermal_sensor_dropout", "rtm", None),
            ("diurnal", "rtm", _IDLE_GAP_CORE_FAILURE),
        ],
        ids=[
            "chaos_double_fault",
            "thermal_stress",
            "a15_blackout",
            "idle_governor_dvfs",
            "sensor_dropout",
            "idle_core_failure",
        ],
    )
    def test_power_memo_matches_cluster_power_model(self, name, manager, fault_plan):
        # A power model subclass takes the scalar cluster.power_mw fallback,
        # for busy and zero-busy intervals alike.
        reference, expected = _run_registry_scenario(
            name, manager, scalar_power=True, fault_plan=fault_plan
        )
        memoised, actual = _run_registry_scenario(name, manager, fault_plan=fault_plan)
        assert not reference._cluster_power_memo and memoised._cluster_power_memo
        assert reference._zero_busy_plan is None
        assert actual.fingerprint() == expected.fingerprint()
        # Bit for bit, not only to the fingerprint's six decimals.
        assert actual.power_samples == expected.power_samples
        if name == "diurnal":
            assert memoised._zero_busy_plan is not None
        if fault_plan is _A15_BLACKOUT:
            (failure,) = actual.faults_of_kind("core_failure")
            assert failure.value == 4.0
            assert any(job.violations == ("cores_offline",) for job in actual.jobs)


class _ScheduledOnlyQueue(EventQueue):
    """An event queue that never lets a callback run the next event inline."""

    __slots__ = ()

    def claim_next(self, time_ms, priority):
        return False


def _quiet_scenario():
    """No applications: every thermal sample is the next event but epochs."""
    return Scenario(
        name="quiet", platform_name="odroid_xu3", applications=[], duration_ms=3000.0
    )


def _inline_simulator(name, queue_cls=EventQueue):
    """A simulator for one inline-sampling case on the given queue class.

    ``quiet`` drops the A15 frequency at the first epoch (500 ms), which
    coincides with a sample: the sample must price the interval after the
    epoch's action.
    """
    if name == "quiet":
        simulator = Simulator(
            _quiet_scenario(),
            _ScriptedManager([SetFrequency(cluster_name="a15", frequency_mhz=200.0)]),
        )
    else:
        simulator = Simulator(build_scenario(name, seed=0), make_manager("rtm"))
    simulator.queue = queue_cls()
    return simulator


_REFERENCE_FINGERPRINTS = {}


def _reference_fingerprint(name):
    if name not in _REFERENCE_FINGERPRINTS:
        reference = _inline_simulator(name, _ScheduledOnlyQueue)
        _REFERENCE_FINGERPRINTS[name] = reference.run().fingerprint()
    return _REFERENCE_FINGERPRINTS[name]


class TestInlineThermalSamples:
    """Samples run inline between events are the samples the heap would run."""

    @pytest.mark.parametrize("name", ["quiet", "chaos_double_fault", "thermal_stress"])
    def test_inline_samples_match_scheduled_samples(self, name):
        simulator = _inline_simulator(name)
        reference = _inline_simulator(name, _ScheduledOnlyQueue)
        popped = []
        for sim in (simulator, reference):
            sim.prime()
            popped.append(sim.queue.run_until(sim.scenario.duration_ms))
        assert simulator.trace.fingerprint() == reference.trace.fingerprint()
        if name != "thermal_stress":  # never idle between two samples
            assert popped[0] < popped[1]

    def test_sample_at_an_epoch_time_runs_after_the_epoch(self):
        trace = _inline_simulator("quiet").run()
        power = {sample.time_ms: sample.power_mw for sample in trace.power_samples}
        # The 500 ms epoch drops the A15 frequency before the 500 ms sample.
        assert power[500.0] < 0.8 * power[400.0]

    @pytest.mark.parametrize("name", ["quiet", "chaos_double_fault", "thermal_stress"])
    def test_advance_to_cut_points_match_one_run(self, name):
        @given(
            fractions=st.lists(
                st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=12
            ).map(sorted)
        )
        @settings(max_examples=15, deadline=None)
        def check(fractions):
            simulator = _inline_simulator(name)
            for fraction in fractions:
                cut = fraction * simulator.scenario.duration_ms
                simulator.advance_to(cut)
                assert simulator.queue.now_ms == cut
                # No sample runs past the end of the stride.
                assert all(s.time_ms <= cut for s in simulator.trace.power_samples)
            simulator.advance_to(simulator.scenario.duration_ms)
            assert simulator.trace.fingerprint() == _reference_fingerprint(name)

        check()
