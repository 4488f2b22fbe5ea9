"""Tests for the event queue, trace records and the discrete-event simulator."""

import math

import pytest

from repro.rtm.manager import RuntimeManager
from repro.sim.engine import Simulator, SimulatorConfig, simulate_scenario
from repro.sim.events import EVENT_PRIORITY_DEFAULT, EVENT_PRIORITY_STRUCTURAL, EventQueue
from repro.sim.trace import JobRecord, PowerSample, SimulationTrace
from repro.workloads.requirements import Requirements
from repro.workloads.scenarios import Scenario, single_dnn_scenario, thermal_stress_scenario
from repro.workloads.tasks import make_dnn_application


class TestEventQueue:
    def test_events_run_in_time_order(self):
        queue = EventQueue()
        order = []
        queue.schedule(30.0, lambda: order.append("c"))
        queue.schedule(10.0, lambda: order.append("a"))
        queue.schedule(20.0, lambda: order.append("b"))
        queue.run_until(100.0)
        assert order == ["a", "b", "c"]
        assert queue.now_ms == 100.0

    def test_priority_breaks_ties(self):
        queue = EventQueue()
        order = []
        queue.schedule(10.0, lambda: order.append("normal"))
        queue.schedule(10.0, lambda: order.append("structural"), priority=EVENT_PRIORITY_STRUCTURAL)
        queue.run_until(100.0)
        assert order == ["structural", "normal"]

    def test_same_priority_fifo(self):
        queue = EventQueue()
        order = []
        queue.schedule(10.0, lambda: order.append(1))
        queue.schedule(10.0, lambda: order.append(2))
        queue.run_until(100.0)
        assert order == [1, 2]

    def test_events_after_horizon_not_run(self):
        queue = EventQueue()
        order = []
        queue.schedule(10.0, lambda: order.append("early"))
        queue.schedule(200.0, lambda: order.append("late"))
        executed = queue.run_until(100.0)
        assert executed == 1
        assert order == ["early"]

    def test_scheduling_in_past_clamped(self):
        queue = EventQueue()
        order = []
        queue.schedule(50.0, lambda: queue.schedule(10.0, lambda: order.append("late")))
        queue.run_until(100.0)
        assert order == ["late"]

    def test_events_can_schedule_followups(self):
        queue = EventQueue()
        ticks = []

        def tick(time_ms):
            ticks.append(time_ms)
            if time_ms < 50.0:
                queue.schedule(time_ms + 10.0, lambda: tick(time_ms + 10.0))

        queue.schedule(10.0, lambda: tick(10.0))
        queue.run_until(100.0)
        assert ticks == [10.0, 20.0, 30.0, 40.0, 50.0]


class TestEventQueueSemantics:
    """Boundary and tie-break semantics of the event queue."""

    def test_same_time_orders_by_priority_then_sequence(self):
        queue = EventQueue()
        order = []
        queue.schedule(10.0, lambda: order.append("d1"))
        queue.schedule(10.0, lambda: order.append("s1"), priority=EVENT_PRIORITY_STRUCTURAL)
        queue.schedule(10.0, lambda: order.append("d2"))
        queue.schedule(10.0, lambda: order.append("s2"), priority=EVENT_PRIORITY_STRUCTURAL)
        queue.run_until(100.0)
        assert order == ["s1", "s2", "d1", "d2"]

    def test_sequence_tie_break_is_deterministic(self):
        def run_once():
            queue = EventQueue()
            order = []
            for label in range(8):
                queue.schedule(5.0, lambda label=label: order.append(label))
            queue.run_until(10.0)
            return order

        assert run_once() == run_once() == list(range(8))

    def test_run_until_executes_event_exactly_at_boundary(self):
        queue = EventQueue()
        order = []
        queue.schedule(100.0, lambda: order.append("boundary"))
        executed = queue.run_until(100.0)
        assert executed == 1
        assert order == ["boundary"]
        assert queue.now_ms == 100.0

    def test_run_until_leaves_post_boundary_events_live(self):
        queue = EventQueue()
        queue.schedule(100.0 + 1e-9, lambda: None)
        assert queue.run_until(100.0) == 0
        assert queue.run_until(200.0) == 1

    def test_boundary_event_scheduling_at_boundary_runs_in_same_pass(self):
        queue = EventQueue()
        order = []
        queue.schedule(
            100.0, lambda: (order.append("a"), queue.schedule(100.0, lambda: order.append("b")))
        )
        assert queue.run_until(100.0) == 2
        assert order == ["a", "b"]
        assert queue.now_ms == 100.0

    def test_run_until_on_empty_queue_advances_the_clock(self):
        queue = EventQueue()
        assert queue.run_until(50.0) == 0
        assert queue.now_ms == 50.0
        # A later event scheduled "in the past" relative to the clock is clamped.
        order = []
        queue.schedule(10.0, lambda: order.append(queue.now_ms))
        assert queue.run_until(60.0) == 1
        assert order == [50.0]

    def test_followups_beyond_the_horizon_wait_for_the_next_run(self):
        queue = EventQueue()
        order = []
        queue.schedule(90.0, lambda: queue.schedule(150.0, lambda: order.append("followup")))
        assert queue.run_until(100.0) == 1
        assert order == []
        assert queue.now_ms == 100.0
        assert queue.run_until(200.0) == 1
        assert order == ["followup"]

    def test_split_runs_execute_the_same_events_as_one_run(self):
        def schedule_all(queue, order):
            for time_ms in (5.0, 25.0, 25.0, 40.0, 75.0, 99.0):
                queue.schedule(time_ms, lambda t=time_ms: order.append(t))

        whole, whole_order = EventQueue(), []
        schedule_all(whole, whole_order)
        total = whole.run_until(100.0)

        split, split_order = EventQueue(), []
        schedule_all(split, split_order)
        counts = [split.run_until(end) for end in (25.0, 50.0, 100.0)]
        assert counts == [3, 1, 2]
        assert sum(counts) == total == 6
        assert split_order == whole_order

    def test_claim_next_is_false_outside_a_run(self):
        queue = EventQueue()
        assert not queue.claim_next(10.0, EVENT_PRIORITY_STRUCTURAL)
        queue.run_until(50.0)
        assert not queue.claim_next(60.0, EVENT_PRIORITY_STRUCTURAL)
        assert queue.now_ms == 50.0

    def test_claim_next_follows_the_pop_order(self):
        queue = EventQueue()
        answers = []

        def probe():
            # Head: (20.0, structural).  Only a strictly earlier (time,
            # priority) pair wins; an equal pair loses on its sequence number.
            answers.append(queue.claim_next(20.0, EVENT_PRIORITY_STRUCTURAL))
            answers.append(queue.claim_next(25.0, EVENT_PRIORITY_STRUCTURAL))
            answers.append(queue.claim_next(15.0, EVENT_PRIORITY_DEFAULT))
            answers.append(queue.now_ms)

        queue.schedule(10.0, probe)
        queue.schedule(20.0, lambda: None, priority=EVENT_PRIORITY_STRUCTURAL)
        queue.run_until(100.0)
        assert answers == [False, False, True, 15.0]

    def test_claim_next_beats_a_lower_priority_head_at_equal_time(self):
        queue = EventQueue()
        answers = []
        queue.schedule(10.0, lambda: answers.append(queue.claim_next(20.0, EVENT_PRIORITY_STRUCTURAL)))
        queue.schedule(20.0, lambda: None)
        queue.run_until(100.0)
        assert answers == [True]

    def test_claim_next_stops_at_the_run_horizon(self):
        queue = EventQueue()
        answers = []
        queue.schedule(
            10.0,
            lambda: answers.extend(
                [queue.claim_next(60.0, EVENT_PRIORITY_STRUCTURAL),
                 queue.claim_next(50.0, EVENT_PRIORITY_STRUCTURAL)]
            ),
        )
        queue.run_until(50.0)
        assert answers == [False, True]


class TestSimulatorConfigValidation:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("retry_interval_ms", 0.0),
            ("retry_interval_ms", -5.0),
            ("retry_interval_ms", math.nan),
            ("decision_interval_ms", math.nan),
            ("thermal_sample_interval_ms", math.nan),
            ("migration_penalty_ms", math.nan),
            ("decision_interval_ms", math.inf),
        ],
    )
    def test_rejects_non_positive_or_non_finite_tunables(self, field, value):
        with pytest.raises(ValueError, match=field):
            SimulatorConfig(**{field: value})

    def test_default_config_is_valid(self):
        config = SimulatorConfig()
        assert config.retry_interval_ms > 0


class TestSimulationTrace:
    def _job(self, app_id="app", violations=(), dropped=False, energy=10.0, latency=20.0):
        return JobRecord(
            app_id=app_id,
            job_index=1,
            release_ms=0.0,
            start_ms=0.0,
            finish_ms=latency,
            latency_ms=latency,
            energy_mj=energy,
            configuration=1.0,
            accuracy_percent=71.2,
            cluster="a15",
            cores=1,
            frequency_mhz=1800.0,
            violations=violations,
            dropped=dropped,
        )

    def test_violation_rate_counts_drops_and_violations(self):
        trace = SimulationTrace(duration_ms=1000.0)
        trace.record_job(self._job())
        trace.record_job(self._job(violations=("latency_ms",)))
        trace.record_job(self._job(dropped=True))
        assert trace.violation_count() == 2
        assert trace.violation_rate() == pytest.approx(2 / 3)

    def test_per_app_statistics(self):
        trace = SimulationTrace(duration_ms=2000.0)
        trace.record_job(self._job("a", energy=10.0, latency=10.0))
        trace.record_job(self._job("a", energy=30.0, latency=30.0))
        trace.record_job(self._job("b", energy=5.0))
        assert trace.total_energy_mj("a") == pytest.approx(40.0)
        assert trace.mean_latency_ms("a") == pytest.approx(20.0)
        assert trace.delivered_fps("a") == pytest.approx(1.0)
        assert trace.app_ids() == ["a", "b"]

    def test_power_statistics(self):
        trace = SimulationTrace(duration_ms=1000.0)
        trace.record_power(PowerSample(0.0, 1000.0, 40.0, False))
        trace.record_power(PowerSample(100.0, 3000.0, 80.0, True))
        assert trace.mean_power_mw() == pytest.approx(2000.0)
        assert trace.peak_temperature_c() == pytest.approx(80.0)
        assert trace.throttling_fraction() == pytest.approx(0.5)

    def test_empty_trace_statistics_are_zero(self):
        trace = SimulationTrace()
        assert trace.violation_rate() == 0.0
        assert trace.mean_latency_ms() == 0.0
        assert trace.mean_power_mw() == 0.0

    def test_summary_structure(self):
        trace = SimulationTrace(duration_ms=1000.0)
        trace.record_job(self._job())
        summary = trace.summary()
        assert summary["total_jobs"] == 1
        assert "app" in summary["per_app"]


class TestSimulator:
    def test_single_dnn_meets_requirements(self, trained_dnn):
        scenario = single_dnn_scenario(duration_ms=4000.0)
        trace = simulate_scenario(scenario, RuntimeManager())
        assert trace.violation_rate() < 0.05
        jobs = trace.completed_jobs("dnn1")
        assert jobs
        # Delivered frame rate close to the 5 fps target.
        assert trace.delivered_fps("dnn1") == pytest.approx(5.0, rel=0.2)

    def test_periodic_release_count(self, trained_dnn):
        scenario = single_dnn_scenario(duration_ms=4000.0, target_fps=10.0)
        trace = simulate_scenario(scenario, RuntimeManager())
        # 10 fps for 4 s -> about 40 releases (boundary effects allowed).
        assert 35 <= len(trace.jobs_for("dnn1")) <= 42

    def test_power_and_temperature_recorded(self, trained_dnn):
        scenario = single_dnn_scenario(duration_ms=3000.0)
        trace = simulate_scenario(scenario, RuntimeManager())
        assert len(trace.power_samples) >= 25
        assert trace.peak_temperature_c() > 25.0

    def test_jobs_record_mapping_details(self, trained_dnn):
        scenario = single_dnn_scenario(duration_ms=3000.0)
        trace = simulate_scenario(scenario, RuntimeManager())
        job = trace.completed_jobs("dnn1")[0]
        assert job.cluster in {"a15", "a7", "mali_gpu"}
        assert job.cores >= 1
        assert job.energy_mj > 0
        assert job.met_requirements

    def test_unmanaged_scenario_drops_jobs(self, trained_dnn):
        class NullManager:
            def decide(self, state):
                class _Decision:
                    actions: list = []

                return _Decision()

        scenario = single_dnn_scenario(duration_ms=2000.0)
        trace = simulate_scenario(scenario, NullManager())
        # Nothing ever maps the DNN, so every released job is dropped.
        assert all(job.dropped for job in trace.jobs_for("dnn1"))
        assert trace.violation_rate() == 1.0

    def test_thermal_stress_triggers_throttling(self):
        trace = simulate_scenario(thermal_stress_scenario(), RuntimeManager())
        assert trace.peak_temperature_c() > 80.0
        assert trace.throttling_fraction() > 0.0

    def test_simulator_config_validation(self):
        with pytest.raises(ValueError):
            SimulatorConfig(decision_interval_ms=0.0)
        with pytest.raises(ValueError):
            SimulatorConfig(max_backlog=-1)
        with pytest.raises(ValueError):
            SimulatorConfig(busy_utilisation=0.0)

    def test_decisions_recorded_with_triggers(self, trained_dnn):
        scenario = single_dnn_scenario(duration_ms=2000.0)
        simulator = Simulator(scenario, RuntimeManager())
        trace = simulator.run()
        triggers = {decision.trigger for decision in trace.decisions}
        assert "app_arrival" in triggers
        assert "epoch" in triggers

    def test_departure_releases_cores(self, trained_dnn):
        app = make_dnn_application(
            "dnn1",
            trained_dnn,
            Requirements(target_fps=5.0),
            arrival_time_ms=0.0,
            departure_time_ms=1500.0,
        )
        scenario = Scenario(
            name="departure",
            platform_name="odroid_xu3",
            applications=[app],
            duration_ms=3000.0,
        )
        simulator = Simulator(scenario, RuntimeManager())
        trace = simulator.run()
        # After departure no cores stay reserved for the application.
        assert all(core.reserved_by != "dnn1" for core in simulator.soc.all_cores)
        # Jobs exist only before the departure time.
        assert all(job.release_ms < 1500.0 for job in trace.jobs_for("dnn1"))
