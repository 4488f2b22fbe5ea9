"""Cached-vs-uncached and serial-vs-parallel parity of the sweep engine.

The operating-point cache is a pure memoisation layer: for every registry
scenario under every registered manager, the cached and uncached simulations
must produce bit-for-bit identical traces (same fingerprints, same
aggregates).  The uncached grid is executed through ``run_many`` on the
``process`` backend with two workers, so one pass also re-checks that worker
fan-out does not perturb results; a smaller triangulation run pins
serial-uncached against both.
"""

from __future__ import annotations

import pytest

from repro.experiments import MANAGER_REGISTRY, grid_specs, run_many
from repro.workloads.scenarios import SCENARIO_REGISTRY

SCENARIOS = sorted(SCENARIO_REGISTRY)
MANAGERS = sorted(MANAGER_REGISTRY)


@pytest.fixture(scope="module")
def registry_grid_uncached_parallel():
    """Every scenario x manager at seed 0, cache off, two worker processes."""
    result = run_many(
        grid_specs(SCENARIOS, MANAGERS, seeds=[0], use_op_cache=False),
        backend="process",
        workers=2,
    )
    assert not result.errors, result.errors
    return result


class TestCachedUncachedParity:
    def test_traces_are_bit_for_bit_identical(
        self, registry_grid_cached, registry_grid_uncached_parallel
    ):
        cached = registry_grid_cached.traces
        uncached = registry_grid_uncached_parallel.traces
        assert list(cached) == list(uncached)
        mismatches = [
            name
            for name in cached
            if cached[name].fingerprint() != uncached[name].fingerprint()
        ]
        assert not mismatches, f"cache changed behaviour for: {mismatches}"

    def test_aggregates_are_identical(
        self, registry_grid_cached, registry_grid_uncached_parallel
    ):
        assert (
            registry_grid_cached.violation_rates()
            == registry_grid_uncached_parallel.violation_rates()
        )
        assert (
            registry_grid_cached.energies_mj()
            == registry_grid_uncached_parallel.energies_mj()
        )
        assert (
            registry_grid_cached.mean_accuracies()
            == registry_grid_uncached_parallel.mean_accuracies()
        )

    def test_cached_runs_actually_used_the_cache(self, registry_grid_cached):
        # The RTM-family managers enumerate operating points every epoch, so
        # any non-trivial scenario must show cache hits; the baselines never
        # enumerate and must report zero lookups.
        rtm_counters = registry_grid_cached.traces["rush_hour/rtm/seed0"].cache_counters()
        assert rtm_counters["hits"] > rtm_counters["misses"] > 0
        baseline = registry_grid_cached.traces["rush_hour/governor_only/seed0"]
        assert baseline.cache_counters() == {"hits": 0, "misses": 0}

    def test_uncached_runs_report_zero_counters(self, registry_grid_uncached_parallel):
        counters = registry_grid_uncached_parallel.traces[
            "rush_hour/rtm/seed0"
        ].cache_counters()
        assert counters == {"hits": 0, "misses": 0}


class TestWorkerCountParity:
    def test_serial_uncached_matches_both_grids(
        self, registry_grid_cached, registry_grid_uncached_parallel
    ):
        scenarios = ["steady", "thermal_stress"]
        managers = ["rtm", "static_deployment"]
        serial = run_many(
            grid_specs(scenarios, managers, seeds=[0], use_op_cache=False),
            backend="serial",
        )
        assert not serial.errors, serial.errors
        for name, trace in serial.traces.items():
            fingerprint = trace.fingerprint()
            assert fingerprint == registry_grid_uncached_parallel.traces[name].fingerprint()
            assert fingerprint == registry_grid_cached.traces[name].fingerprint()
