"""Fleet orchestration tests: specs, invariants, goldens, policy quality.

The heart of the file is the module-scoped ``fleet_grid`` fixture — one
batched fleet run per (scenario, policy) combination on small pinned device
mixes — shared by the conservation invariant, the golden fleet fingerprint
table, the orchestrated-beats-static assertion and the migration checks.
Backend and device-order identity get their own (serial / permuted) runs.

Regenerate the golden table after an intentional behaviour change with::

    PYTHONPATH=src python -m tests.test_fleet
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

import pytest

from repro.cli import main
from repro.fleet import (
    FLEET_POLICY_REGISTRY,
    FleetSpec,
    FleetSpecError,
    DeviceTelemetry,
    build_fleet_scenario,
    compare_fleet_bench,
    dump_fleet_specs,
    fleet_specs_to_toml,
    load_fleet_specs,
    make_fleet_policy,
    run_fleet,
)
from repro.fleet.bench import bench_device_mix
from repro.fleet.orchestrator import FleetResult

#: Small pinned device mixes: big enough for placement to matter, small
#: enough that the whole grid stays test-suite friendly.
SMALL_MIXES: Dict[str, Dict[str, int]] = {
    "fleet_rush_hour_regional": {"generic_quad": 6, "odroid_xu3": 6},
    "fleet_device_churn": {"generic_quad": 4, "odroid_xu3": 4},
    "fleet_stragglers": {"generic_quad": 4, "jetson_nano": 2},
    "fleet_mixed_platforms": {"generic_quad": 2, "jetson_nano": 2, "odroid_xu3": 2},
    "fleet_diurnal": {"generic_quad": 4, "odroid_xu3": 4},
}

GRID_POLICIES = ("static", "least_loaded")

# Golden fleet fingerprints of the grid above (seed 0, batched backend).  A
# changed digest means fleet *behaviour* changed — placement, migration
# timing, per-device simulation — and must be deliberate, exactly like
# tests/test_golden_traces.py.  Regenerate with the module's __main__ hook.
GOLDEN_FLEET_FINGERPRINTS: Dict[Tuple[str, str], str] = {
    ("fleet_device_churn", "least_loaded"): "04355d6ba672e4cd",
    ("fleet_device_churn", "static"): "627f7d23b9bc4039",
    ("fleet_diurnal", "least_loaded"): "7233d7e898056018",
    ("fleet_diurnal", "static"): "37195436c2b84ade",
    ("fleet_mixed_platforms", "least_loaded"): "90c6165e479cea91",
    ("fleet_mixed_platforms", "static"): "2459660fbb0946c6",
    ("fleet_rush_hour_regional", "least_loaded"): "6daad25fdebdfa3a",
    ("fleet_rush_hour_regional", "static"): "6daf92538a383b5e",
    ("fleet_stragglers", "least_loaded"): "28328ebfbbcc5c99",
    ("fleet_stragglers", "static"): "d297648783108c69",
}


@pytest.fixture(scope="module")
def fleet_grid(trained_dnn) -> Dict[Tuple[str, str], FleetResult]:
    """One batched fleet run per (scenario, policy) on the pinned mixes."""
    results: Dict[Tuple[str, str], FleetResult] = {}
    for scenario, mix in sorted(SMALL_MIXES.items()):
        for policy in GRID_POLICIES:
            spec = FleetSpec(scenario=scenario, policy=policy, devices=mix)
            results[(scenario, policy)] = run_fleet(
                spec, backend="batched", trained=trained_dnn
            )
    return results


# ------------------------------------------------------------------- specs


class TestFleetSpec:
    def test_toml_round_trip(self, tmp_path):
        spec = FleetSpec(
            scenario="fleet_rush_hour_regional",
            policy="thermal_headroom",
            seed=3,
            devices={"odroid_xu3": 4, "generic_quad": 2},
            epoch_ms=500.0,
            policy_params={},
        )
        path = tmp_path / "fleet.toml"
        spec.save(path)
        assert load_fleet_specs(path) == [spec]

    def test_json_round_trip(self, tmp_path):
        spec = FleetSpec(scenario="fleet_stragglers", name="straggler_case")
        path = tmp_path / "fleet.json"
        spec.save(path)
        loaded = load_fleet_specs(path)
        assert loaded == [spec]
        assert loaded[0].label == "straggler_case"

    def test_batch_round_trip_preserves_order(self, tmp_path):
        specs = [
            FleetSpec(scenario="fleet_device_churn", policy="static"),
            FleetSpec(scenario="fleet_device_churn", policy="least_loaded"),
        ]
        path = tmp_path / "batch.toml"
        dump_fleet_specs(specs, path)
        assert "[[fleet]]" in path.read_text()
        assert load_fleet_specs(path) == specs

    def test_fleet_id_ignores_device_insertion_order(self):
        forward = FleetSpec(
            scenario="fleet_mixed_platforms",
            devices={"generic_quad": 2, "odroid_xu3": 3},
        )
        backward = FleetSpec(
            scenario="fleet_mixed_platforms",
            devices={"odroid_xu3": 3, "generic_quad": 2},
        )
        assert forward.fleet_id() == backward.fleet_id()

    def test_fleet_id_sees_every_field(self):
        base = FleetSpec(scenario="fleet_stragglers")
        assert base.fleet_id() != FleetSpec(scenario="fleet_stragglers", seed=1).fleet_id()
        assert (
            base.fleet_id()
            != FleetSpec(scenario="fleet_stragglers", epoch_ms=2000.0).fleet_id()
        )

    def test_unknown_keys_rejected(self):
        with pytest.raises(FleetSpecError, match="unknown fleet spec keys"):
            FleetSpec.from_dict({"scenario": "fleet_stragglers", "epoch": 5})

    def test_validate_suggests_for_typos(self):
        with pytest.raises(FleetSpecError, match="least_loaded"):
            FleetSpec(scenario="fleet_stragglers", policy="least_loded").validate()
        with pytest.raises(FleetSpecError):
            FleetSpec(scenario="fleet_stragglerz").validate()

    def test_bad_shapes_rejected(self):
        with pytest.raises(FleetSpecError, match="positive integer"):
            FleetSpec.from_dict(
                {"scenario": "fleet_stragglers", "devices": {"odroid_xu3": 0}}
            )
        with pytest.raises(FleetSpecError, match="epoch_ms"):
            FleetSpec.from_dict({"scenario": "fleet_stragglers", "epoch_ms": -1.0})
        for key in ("epoch_ms", "migration_latency_ms"):
            with pytest.raises(FleetSpecError, match=f"{key}.*finite"):
                FleetSpec(scenario="fleet_stragglers", **{key: math.nan}).validate()

    def test_single_spec_toml_has_no_header(self):
        text = fleet_specs_to_toml([FleetSpec(scenario="fleet_stragglers")])
        assert "[[fleet]]" not in text
        assert 'scenario = "fleet_stragglers"' in text


# ---------------------------------------------------------------- policies


def _telemetry(device_id: str, **overrides) -> DeviceTelemetry:
    payload = dict(
        device_id=device_id,
        preset="generic_quad",
        time_ms=0.0,
        assigned_apps=0,
        online_cores=4,
        total_cores=4,
        utilisation=0.0,
        thermal_headroom_c=20.0,
        recent_violation_rate=0.0,
        recent_jobs=0,
    )
    payload.update(overrides)
    return DeviceTelemetry(**payload)


class TestPolicies:
    def test_registry_holds_all_five(self):
        assert set(FLEET_POLICY_REGISTRY.names()) == {
            "static",
            "round_robin",
            "least_loaded",
            "thermal_headroom",
            "random",
        }

    def test_static_hashes_over_the_full_table_and_never_rebalances(self):
        policy = make_fleet_policy("static")
        policy.bind(["a", "b", "c"])
        assert policy.rebalances is False
        first = policy.place("app-1", [])
        assert first in {"a", "b", "c"}
        assert policy.place("app-1", []) == first  # pure content hash

    def test_round_robin_cycles_candidates(self):
        policy = make_fleet_policy("round_robin")
        policy.bind(["a", "b"])
        candidates = [_telemetry("a"), _telemetry("b")]
        placed = [policy.place(f"app-{i}", candidates) for i in range(4)]
        assert placed == ["a", "b", "a", "b"]

    def test_least_loaded_prefers_low_load_and_breaks_ties_on_id(self):
        policy = make_fleet_policy("least_loaded")
        policy.bind(["a", "b", "c"])
        candidates = [
            _telemetry("a", assigned_apps=2),
            _telemetry("b", assigned_apps=1),
            _telemetry("c", assigned_apps=1),
        ]
        assert policy.place("app", candidates) == "b"

    def test_thermal_headroom_ranks_occupancy_then_coolness(self):
        policy = make_fleet_policy("thermal_headroom")
        policy.bind(["a", "b", "c"])
        candidates = [
            _telemetry("a", assigned_apps=1, thermal_headroom_c=30.0),
            _telemetry("b", assigned_apps=0, thermal_headroom_c=10.0),
            _telemetry("c", assigned_apps=0, thermal_headroom_c=25.0),
        ]
        assert policy.place("app", candidates) == "c"

    def test_random_is_seeded_and_reset_by_bind(self):
        policy = make_fleet_policy("random", {"seed": 7})
        candidates = [_telemetry(d) for d in ("a", "b", "c", "d")]
        policy.bind([t.device_id for t in candidates])
        first = [policy.place(f"app-{i}", candidates) for i in range(6)]
        policy.bind([t.device_id for t in candidates])
        again = [policy.place(f"app-{i}", candidates) for i in range(6)]
        assert first == again

    def test_empty_candidates_reject(self):
        for name in ("round_robin", "least_loaded", "thermal_headroom", "random"):
            policy = make_fleet_policy(name)
            policy.bind([])
            assert policy.place("app", []) is None

    def test_unknown_policy_suggests(self):
        with pytest.raises(KeyError, match="least_loaded"):
            make_fleet_policy("least_loadedd")


# -------------------------------------------------------------- invariants


class TestFleetInvariants:
    def test_job_conservation(self, fleet_grid):
        """Fleet-wide accounting: every arrival is placed, rejected or gone."""
        for (scenario, policy), result in fleet_grid.items():
            counts = result.app_counts
            assert counts["arrived"] == (
                counts["rejected"]
                + counts["departed"]
                + counts["resident"]
                + counts["in_migration"]
            ), (scenario, policy, counts)
            assert counts["placed"] == counts["arrived"] - counts["rejected"]
            templates = len(build_fleet_scenario(scenario, devices=SMALL_MIXES[scenario]).arrivals)
            assert counts["arrived"] == templates

    def test_device_metrics_sum_to_totals(self, fleet_grid):
        for result in fleet_grid.values():
            assert result.total_jobs() == sum(
                int(m["jobs"]) for m in result.device_metrics.values()
            )
            assert set(result.device_metrics) == set(result.device_ids)

    def test_fingerprint_ignores_device_table_order(self, trained_dnn):
        scenario = "fleet_rush_hour_regional"
        forward = FleetSpec(
            scenario=scenario, devices={"generic_quad": 6, "odroid_xu3": 6}
        )
        backward = FleetSpec(
            scenario=scenario, devices={"odroid_xu3": 6, "generic_quad": 6}
        )
        assert (
            run_fleet(forward, backend="batched", trained=trained_dnn).fingerprint()
            == run_fleet(backward, backend="batched", trained=trained_dnn).fingerprint()
        )

    @pytest.mark.parametrize("scenario", ["fleet_stragglers", "fleet_device_churn"])
    def test_serial_and_batched_backends_agree(self, fleet_grid, trained_dnn, scenario):
        """The fleet digest is bit-identical across execution backends."""
        spec = FleetSpec(
            scenario=scenario, policy="least_loaded", devices=SMALL_MIXES[scenario]
        )
        serial = run_fleet(spec, backend="serial", trained=trained_dnn)
        batched = fleet_grid[(scenario, "least_loaded")]
        assert serial.fingerprint() == batched.fingerprint()
        assert serial.app_counts == batched.app_counts

    def test_migrations_happen_under_faults(self, fleet_grid):
        """Churn evacuates dying devices; the rush overloads and sheds.

        Stragglers, notably, do NOT migrate under ``least_loaded``: the
        per-device RTM absorbs the frequency cap by dropping to cheaper
        operating points, so capped devices never cross the eviction
        threshold — fleet-level eviction only fires where device-level
        adaptation is not enough.
        """
        churn = fleet_grid[("fleet_device_churn", "least_loaded")]
        assert churn.migrations
        assert {record.reason for record in churn.migrations} == {"churn"}
        rush = fleet_grid[("fleet_rush_hour_regional", "least_loaded")]
        assert rush.migrations
        assert "overload" in {record.reason for record in rush.migrations}
        assert not fleet_grid[("fleet_stragglers", "least_loaded")].migrations
        # Static placement never migrates anything, by construction.
        for scenario in SMALL_MIXES:
            assert not fleet_grid[(scenario, "static")].migrations

    def test_migration_arrivals_carry_the_latency_penalty(self, fleet_grid):
        spec_latency = FleetSpec(scenario="fleet_stragglers").migration_latency_ms
        for scenario in ("fleet_device_churn", "fleet_rush_hour_regional"):
            for record in fleet_grid[(scenario, "least_loaded")].migrations:
                assert record.arrival_ms == pytest.approx(record.time_ms + spec_latency)
                assert record.source != record.target


# ------------------------------------------------------- orchestration wins


class TestOrchestrationQuality:
    def test_least_loaded_beats_static_on_rush_hour(self, fleet_grid):
        """The ISSUE's acceptance criterion, asserted deterministically."""
        orchestrated = fleet_grid[("fleet_rush_hour_regional", "least_loaded")]
        static = fleet_grid[("fleet_rush_hour_regional", "static")]
        assert orchestrated.violation_rate() < static.violation_rate()

    def test_least_loaded_beats_static_everywhere(self, fleet_grid):
        for scenario in SMALL_MIXES:
            orchestrated = fleet_grid[(scenario, "least_loaded")]
            static = fleet_grid[(scenario, "static")]
            assert orchestrated.violation_rate() < static.violation_rate(), scenario


# ----------------------------------------------------------------- goldens


class TestGoldenFleetFingerprints:
    def test_every_combination_is_locked(self, fleet_grid):
        observed = {combo: result.fingerprint() for combo, result in fleet_grid.items()}
        assert set(observed) == set(GOLDEN_FLEET_FINGERPRINTS), (
            "fleet grid changed: regenerate GOLDEN_FLEET_FINGERPRINTS "
            "(PYTHONPATH=src python -m tests.test_fleet)"
        )
        mismatches = {
            combo: (fingerprint, GOLDEN_FLEET_FINGERPRINTS[combo])
            for combo, fingerprint in observed.items()
            if fingerprint != GOLDEN_FLEET_FINGERPRINTS[combo]
        }
        assert not mismatches, (
            f"fleet behaviour changed for {sorted(mismatches)}; if intentional, "
            "regenerate GOLDEN_FLEET_FINGERPRINTS "
            "(PYTHONPATH=src python -m tests.test_fleet)"
        )

    def test_fingerprint_is_recomputable_from_the_result(self, fleet_grid):
        result = fleet_grid[("fleet_mixed_platforms", "least_loaded")]
        assert result.fingerprint() == result.fingerprint()


# ------------------------------------------------------------------- bench


class TestFleetBenchHelpers:
    def test_bench_device_mix_sums_and_is_deterministic(self):
        assert sum(bench_device_mix(1000).values()) == 1000
        assert sum(bench_device_mix(7).values()) == 7
        assert bench_device_mix(50) == bench_device_mix(50)
        assert all(count > 0 for count in bench_device_mix(3).values())

    def test_bench_device_mix_rejects_empty_fleets(self):
        with pytest.raises(ValueError):
            bench_device_mix(0)

    def test_compare_fleet_bench_gates_and_skips(self):
        from repro.fleet.bench import FleetBenchResult

        result = FleetBenchResult(
            devices=100,
            scenario="fleet_mixed_platforms",
            policy="least_loaded",
            orchestrated_s=2.0,
            static_s=1.0,
            serial_s=3.0,
            fingerprints_identical=True,
            orchestrated_violation_rate=0.01,
            static_violation_rate=0.2,
            migrations=3,
            orchestrated_fingerprint="aa",
            static_fingerprint="bb",
        )
        baseline = {"results": {"devices": 100, "scenario": "fleet_mixed_platforms", "orchestrated_s": 1.0}}
        regressions = compare_fleet_bench(result, baseline, max_regression=0.25)
        assert len(regressions) == 1 and regressions[0].metric == "orchestrated_s"
        assert not compare_fleet_bench(result, baseline, max_regression=2.0)
        # A baseline from a different fleet size is not comparable.
        other = {"results": {"devices": 10, "scenario": "fleet_mixed_platforms", "orchestrated_s": 1.0}}
        assert not compare_fleet_bench(result, other, max_regression=0.0)


# --------------------------------------------------------------------- CLI


class TestFleetCLI:
    def test_policies_list(self, capsys):
        assert main(["fleet", "policies", "list"]) == 0
        output = capsys.readouterr().out
        assert "least_loaded" in output and "static" in output

    def test_scenarios_list(self, capsys):
        assert main(["fleet", "scenarios", "list"]) == 0
        assert "fleet_rush_hour_regional" in capsys.readouterr().out

    def test_run_spec_file_with_store_and_resume(self, capsys, tmp_path):
        spec = FleetSpec(
            scenario="fleet_mixed_platforms",
            policy="round_robin",
            devices={"generic_quad": 2},
        )
        path = tmp_path / "fleet.toml"
        spec.save(path)
        store = tmp_path / "fleet.sqlite"
        assert main(["fleet", "run", str(path), "--store", str(store)]) == 0
        first = capsys.readouterr().out
        assert spec.fleet_id() in first
        assert "1 fleet result(s) streamed" in first
        # Resuming replays the stored aggregate without recomputing.
        assert main(["fleet", "run", str(path), "--store", str(store), "--resume"]) == 0
        second = capsys.readouterr().out
        assert "1 fleet(s) skipped (already stored), 0 computed" in second
        fingerprint = next(
            line for line in first.splitlines() if spec.fleet_id() in line
        ).split()[-1]
        assert fingerprint in second

    def test_run_rejects_unknown_policy(self, capsys):
        assert main(["fleet", "run", "--policy", "nope"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_run_rejects_bad_device_mix(self, capsys):
        assert main(["fleet", "run", "--devices", "generic_quad"]) == 2
        assert "PRESET=COUNT" in capsys.readouterr().err
        assert main(["fleet", "run", "--devices", "generic_quad=0"]) == 2
        assert "positive" in capsys.readouterr().err

    def test_resume_without_store_fails(self, capsys):
        assert main(["fleet", "run", "--resume"]) == 2
        assert "--resume needs --store" in capsys.readouterr().err


def _regenerate() -> None:  # pragma: no cover - maintenance hook
    from repro.dnn import IncrementalTrainer, make_dynamic_cifar_dnn

    trained = IncrementalTrainer().train(make_dynamic_cifar_dnn())
    for scenario, mix in sorted(SMALL_MIXES.items()):
        for policy in sorted(GRID_POLICIES):
            spec = FleetSpec(scenario=scenario, policy=policy, devices=mix)
            result = run_fleet(spec, backend="batched", trained=trained)
            print(f'    ("{scenario}", "{policy}"): "{result.fingerprint()}",')


if __name__ == "__main__":  # pragma: no cover - maintenance hook
    _regenerate()
