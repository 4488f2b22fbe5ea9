"""Property-based simulation invariants across the whole scenario registry.

The scenario space now grows by composition and fuzzing faster than anyone
can eyeball individual traces, so these tests pin down what must hold for
*every* simulation, whatever the workload and manager:

* event/job times are ordered (release <= start <= finish, monotone samples);
* job accounting conserves: released jobs are completed, dropped, or (at
  most one per application) still in flight at the horizon;
* physical quantities are non-negative and accuracies are percentages;
* a (spec, seed) pair is deterministic: rerunning yields the identical
  fingerprint;
* the operating-point cache never changes behaviour, including on fuzzed
  scenarios nobody hand-shaped.

The full suite sweeps the session-scoped registry grid (every scenario x
manager at seed 0).  The ``smoke``-marked subset runs a handful of fresh
simulations end to end — cheap enough for the CI invariants step — and the
hypothesis block samples seeded scenario constructions without simulating.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments import ExperimentSpec, run
from repro.sim.trace import SimulationTrace
from repro.workloads import ScenarioFuzzer, build_scenario, perturb, scale

#: Invariant-suite hypothesis profile: scenario construction is fast but not
#: free (each build trains the simulated DNN), so bound the sample count and
#: drop the per-example deadline (the first build pays one-off import costs).
SAMPLING = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ------------------------------------------------------------------ checkers


def assert_times_ordered(trace: SimulationTrace, label: str) -> None:
    """Per-job ordering plus monotone decision/power-sample timelines."""
    for job in trace.jobs:
        assert job.release_ms <= job.start_ms <= job.finish_ms, (label, job)
        if not job.dropped:
            assert job.finish_ms - job.start_ms == pytest.approx(job.latency_ms), (label, job)
    decision_times = [decision.time_ms for decision in trace.decisions]
    assert decision_times == sorted(decision_times), label
    sample_times = [sample.time_ms for sample in trace.power_samples]
    assert all(b > a for a, b in zip(sample_times, sample_times[1:])), label


def assert_job_conservation(trace: SimulationTrace, label: str) -> None:
    """Released jobs are conserved: completed + dropped + at most 1 in flight.

    Every release (or drop) takes the next per-application job index, and
    each indexed job is recorded exactly once — unless it was still running
    when the scenario ended or its application departed, which can strand at
    most one job per application (the simulator runs one inference at a time
    per application).
    """
    for app_id in trace.app_ids():
        indexes = [job.job_index for job in trace.jobs_for(app_id)]
        assert len(indexes) == len(set(indexes)), (label, app_id, "duplicate job index")
        assert min(indexes) >= 1, (label, app_id)
        in_flight = max(indexes) - len(indexes)
        assert in_flight in (0, 1), (label, app_id, f"{in_flight} jobs unaccounted for")
        completed = len(trace.completed_jobs(app_id))
        dropped = len([job for job in trace.jobs_for(app_id) if job.dropped])
        assert max(indexes) == completed + dropped + in_flight, (label, app_id)


def assert_physical_quantities(trace: SimulationTrace, label: str) -> None:
    """Energies, latencies and powers non-negative; accuracies are percentages."""
    for job in trace.jobs:
        assert job.latency_ms >= 0.0, (label, job)
        assert job.energy_mj >= 0.0, (label, job)
        assert 0.0 <= job.accuracy_percent <= 100.0, (label, job)
        assert job.cores >= 0, (label, job)
        assert job.frequency_mhz >= 0.0, (label, job)
    for sample in trace.power_samples:
        assert sample.power_mw >= 0.0, (label, sample)
        assert 0.0 < sample.temperature_c < 200.0, (label, sample)


def assert_all_invariants(trace: SimulationTrace, label: str) -> None:
    assert_times_ordered(trace, label)
    assert_job_conservation(trace, label)
    assert_physical_quantities(trace, label)


# ------------------------------------------------- full registry x managers


class TestRegistryGridInvariants:
    """Every registry scenario under every manager satisfies the invariants."""

    def test_event_times_ordered(self, registry_grid_cached):
        for label, trace in registry_grid_cached.traces.items():
            assert_times_ordered(trace, label)

    def test_job_count_conservation(self, registry_grid_cached):
        for label, trace in registry_grid_cached.traces.items():
            assert_job_conservation(trace, label)

    def test_physical_quantities_sane(self, registry_grid_cached):
        for label, trace in registry_grid_cached.traces.items():
            assert_physical_quantities(trace, label)

    def test_every_trace_produced_jobs(self, registry_grid_cached):
        for label, trace in registry_grid_cached.traces.items():
            assert trace.jobs, f"{label} simulated no jobs at all"

    def test_fault_records_only_under_fault_plans(self, registry_grid_cached):
        """Fault records appear exactly on the chaos scenarios, time-ordered.

        The registry grid includes the ``chaos_*`` scenarios, so this pins
        both directions: fault-free scenarios must not record faults (their
        fingerprints predate the subsystem), and every chaos trace must
        carry its injections, inside the horizon, in schedule order.
        """
        from repro.sim.faults import FAULT_EVENT_KINDS

        for label, trace in registry_grid_cached.traces.items():
            if label.startswith("chaos_"):
                assert trace.faults, f"{label} injected no faults"
                assert all(fault.time_ms >= 0.0 for fault in trace.faults), label
                # Timeline events (core failures, caps, sensor faults) fire in
                # schedule order inside the horizon.  Crash-model records are
                # exempt: they are written at job start with their *projected*
                # crash/retry timestamps, which interleave across apps.
                timeline = [
                    fault.time_ms
                    for fault in trace.faults
                    if fault.kind in FAULT_EVENT_KINDS
                ]
                assert timeline == sorted(timeline), label
                assert all(t <= trace.duration_ms for t in timeline), label
            else:
                assert not trace.faults, f"{label} recorded unexpected faults"

    def test_trace_records_hold_only_builtin_values(self, registry_grid_cached):
        """Every record field is a builtin scalar or a tuple of str.

        ``fingerprint()`` hashes ``repr``, and numpy 2 prints a numpy scalar
        as ``np.float64(x)`` where numpy 1 printed ``x``: a leaked numpy
        value would make the goldens depend on the installed numpy.
        """
        scalars = (int, float, str, bool)
        for label, trace in registry_grid_cached.traces.items():
            for record in (*trace.jobs, *trace.power_samples, *trace.decisions, *trace.faults):
                for field in dataclasses.fields(record):
                    value = getattr(record, field.name)
                    if type(value) is tuple:
                        ok = all(type(item) is str for item in value)
                    else:
                        ok = type(value) in scalars
                    assert ok, (label, type(record).__name__, field.name, type(value))

    def test_crashed_jobs_are_conserved_drops(self, registry_grid_cached):
        """Jobs lost to transient crashes stay inside job conservation."""
        for label, trace in registry_grid_cached.traces.items():
            for job in trace.crashed_jobs():
                assert job.dropped, (label, job)
            assert len(trace.crashed_jobs()) == len(trace.faults_of_kind("job_lost")), label


# -------------------------------------------------------- fuzzed cache parity


class TestFuzzedCacheParity:
    """Cache on == cache off, on scenarios nobody hand-shaped."""

    @pytest.mark.parametrize("seed", [5, 9])
    def test_fingerprints_match_and_invariants_hold(self, seed):
        cached = run(ExperimentSpec(scenario="fuzzed", seed=seed, use_op_cache=True))
        uncached = run(ExperimentSpec(scenario="fuzzed", seed=seed, use_op_cache=False))
        assert cached.trace.fingerprint() == uncached.trace.fingerprint()
        assert_all_invariants(cached.trace, f"fuzzed/seed{seed}")


# ------------------------------------------------------------- smoke subset
#
# Fresh end-to-end runs small enough for the CI invariants step
# (pytest tests/test_invariants.py -m smoke): no session grid, a handful of
# short simulations.


@pytest.mark.smoke
class TestSmokeInvariants:
    SPECS = (
        ExperimentSpec(scenario="steady", manager="rtm"),
        ExperimentSpec(scenario="fuzzed", manager="governor_only", seed=3),
        ExperimentSpec(scenario="compose", manager="rtm", seed=1),
    )

    def test_invariants_on_fresh_runs(self):
        for spec in self.SPECS:
            assert_all_invariants(run(spec).trace, spec.label)

    def test_fingerprint_deterministic_for_fixed_seed(self):
        spec = ExperimentSpec(scenario="fuzzed", manager="governor_only", seed=3)
        assert run(spec).trace.fingerprint() == run(spec).trace.fingerprint()

    def test_fuzzed_cache_parity_smoke(self):
        cached = run(ExperimentSpec(scenario="fuzzed", seed=1, use_op_cache=True))
        uncached = run(ExperimentSpec(scenario="fuzzed", seed=1, use_op_cache=False))
        assert cached.trace.fingerprint() == uncached.trace.fingerprint()


# --------------------------------------------- seeded construction sampling
#
# Hypothesis samples scenario *constructions* (no simulation): whatever the
# seed, composed and fuzzed workloads must come out structurally valid, and
# equal seeds must reproduce them exactly.


def _shape(scenario):
    return [
        (app.app_id, app.arrival_time_ms, app.departure_time_ms, app.requirements)
        for app in scenario.applications
    ]


class TestSeededConstructionProperties:
    @SAMPLING
    @given(seed=st.integers(min_value=0, max_value=2**20))
    def test_fuzzed_scenarios_are_valid_and_reproducible(self, seed):
        scenario = ScenarioFuzzer(seed=seed).scenario()
        ids = [app.app_id for app in scenario.applications]
        assert len(ids) == len(set(ids))
        assert scenario.duration_ms > 0
        assert scenario.applications
        for app in scenario.applications:
            assert app.arrival_time_ms >= 0.0
            if app.departure_time_ms is not None:
                assert app.departure_time_ms > app.arrival_time_ms
        assert _shape(ScenarioFuzzer(seed=seed).scenario()) == _shape(scenario)

    @SAMPLING
    @given(
        seed=st.integers(min_value=0, max_value=2**20),
        factor=st.floats(min_value=0.25, max_value=4.0),
    )
    def test_scale_preserves_event_counts_and_order(self, seed, factor):
        base = build_scenario("bursty", seed=seed % 16)
        scaled = scale(base, arrival_factor=factor)
        assert len(scaled.events()) == len(base.events())
        assert [event.app_id for event in scaled.events()] == [
            event.app_id for event in base.events()
        ]

    @SAMPLING
    @given(seed=st.integers(min_value=0, max_value=2**20))
    def test_perturb_keeps_scenarios_valid(self, seed):
        base = build_scenario("multi_app_contention", seed=seed % 16)
        jittered = perturb(base, seed=seed)
        assert len(jittered.applications) == len(base.applications)
        for app in jittered.applications:
            assert app.arrival_time_ms >= 0.0
            if app.departure_time_ms is not None:
                assert app.departure_time_ms > app.arrival_time_ms
