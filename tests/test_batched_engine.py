"""Batched lock-step engine: bit-identity against the serial backend.

The batched backend's whole contract is that sharing decision machinery
across replicas is an *optimisation*, never a behaviour change: every
replica's trace fingerprint must equal its serial twin's, and neither the
number of replicas in the batch nor their order may leak into any result.
"""

import pytest

from repro.experiments import (
    EXECUTION_BACKEND_REGISTRY,
    ExperimentSpec,
    grid_specs,
    make_execution_backend,
    run_many,
)
from repro.workloads import SCENARIO_REGISTRY

#: Every registered manager the sweeps exercise.
MANAGERS = ["rtm", "rtm_min_energy", "governor_only", "static_deployment"]

#: Short generated scenarios keep the property tests inside the test budget.
SHORT = {"duration_ms": 2000.0}


def _fingerprints(batch):
    return {label: trace.fingerprint() for label, trace in batch.traces.items()}


def _short_specs():
    return [
        ExperimentSpec(scenario="steady", manager=manager, seed=seed, scenario_params=SHORT)
        for manager in ("rtm", "governor_only")
        for seed in (0, 1)
    ]


class TestBackendRegistry:
    def test_all_backends_registered(self):
        assert {"serial", "process", "batched"} <= set(EXECUTION_BACKEND_REGISTRY)

    def test_unknown_backend_raises_with_available_names(self):
        with pytest.raises(ValueError, match="serial"):
            make_execution_backend("threaded")

    def test_single_process_backends_reject_worker_pools(self):
        specs = [ExperimentSpec(scenario="steady", manager="rtm", scenario_params=SHORT)]
        for name in ("serial", "batched"):
            with pytest.raises(ValueError, match="single-process"):
                run_many(specs, backend=name, workers=2)

    def test_run_many_rejects_unknown_backend(self):
        specs = [ExperimentSpec(scenario="steady", manager="rtm", scenario_params=SHORT)]
        with pytest.raises(ValueError, match="batched"):
            run_many(specs, backend="thredded")


class TestBatchedSerialParity:
    @pytest.mark.integration
    def test_every_scenario_under_every_manager_seed0(self):
        # The acceptance grid: all registered scenarios x all managers at
        # seed 0, bit-identical fingerprints between the two backends.
        specs = grid_specs(sorted(SCENARIO_REGISTRY), MANAGERS, seeds=[0])
        serial = run_many(specs, backend="serial")
        batched = run_many(specs, backend="batched")
        assert not serial.errors and not batched.errors
        assert _fingerprints(serial) == _fingerprints(batched)

    def test_fuzzed_scenarios_sample(self):
        specs = [
            ExperimentSpec(scenario="fuzzed", manager=manager, seed=seed)
            for manager in ("rtm", "static_deployment")
            for seed in (0, 3)
        ]
        serial = run_many(specs, backend="serial")
        batched = run_many(specs, backend="batched")
        assert not serial.errors and not batched.errors
        assert _fingerprints(serial) == _fingerprints(batched)


class TestBatchCompositionInvariance:
    def test_replica_order_never_changes_fingerprints(self):
        specs = _short_specs()
        forward = run_many(specs, backend="batched")
        backward = run_many(list(reversed(specs)), backend="batched")
        assert not forward.errors and not backward.errors
        assert _fingerprints(forward) == _fingerprints(backward)
        # Results themselves come back in submission order.
        assert list(backward.traces) == [spec.label for spec in reversed(specs)]

    def test_replica_count_never_changes_fingerprints(self):
        specs = _short_specs()
        base = run_many(specs, backend="batched")
        extra = specs + [
            ExperimentSpec(
                scenario="bursty", manager="rtm", seed=7, scenario_params=SHORT
            )
        ]
        enlarged = run_many(extra, backend="batched")
        assert not base.errors and not enlarged.errors
        base_fingerprints = _fingerprints(base)
        enlarged_fingerprints = _fingerprints(enlarged)
        for label, fingerprint in base_fingerprints.items():
            assert enlarged_fingerprints[label] == fingerprint

    def test_seed_insensitive_replicas_share_one_trace(self):
        # fig2 ignores the seed, so the engine deduplicates the replicas;
        # every label must still come back, all with the same fingerprint.
        specs = [ExperimentSpec(scenario="fig2", manager="rtm", seed=seed) for seed in (0, 1)]
        batch = run_many(specs, backend="batched")
        assert not batch.errors
        fingerprints = _fingerprints(batch)
        assert len(fingerprints) == 2
        assert len(set(fingerprints.values())) == 1


class TestBatchedErrorIsolation:
    def test_one_failing_spec_does_not_abort_the_batch(self):
        good = ExperimentSpec(
            scenario="steady", manager="rtm", seed=0, scenario_params=SHORT
        )
        bad = ExperimentSpec(
            name="bad", scenario="steady", manager="rtm", seed=1,
            scenario_params={"not_a_param": 1},
        )
        batch = run_many([good, bad], backend="batched", validate=False)
        assert good.label in batch.traces
        assert "bad" in batch.errors
