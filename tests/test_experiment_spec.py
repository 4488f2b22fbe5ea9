"""Tests for the declarative experiment layer.

Covers the generic registry, spec round-tripping (dict / TOML / JSON),
content-hash stability across process boundaries, spec execution parity with
direct simulation (golden fingerprints), ``run_many`` across backends and
worker counts (ordering, per-spec error isolation, override forwarding), and
worker-count-independent replay of committed spec files — the
reproducibility contract of the API.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.experiments import (
    MANAGER_REGISTRY,
    ExperimentBatch,
    ExperimentSpec,
    SpecError,
    dump_specs,
    grid_specs,
    load_specs,
    make_manager,
    run,
    run_many,
)
from repro.registry import Registry
from repro.rtm import RuntimeManager
from repro.sim.engine import simulate_scenario
from repro.workloads.scenarios import build_scenario
from tests.test_golden_traces import GOLDEN_FINGERPRINTS


class TestRegistry:
    def make(self) -> Registry:
        registry = Registry("widget")
        registry.register("alpha", lambda: "a", colour="red")

        @registry.register("beta")
        def beta():
            """A beta widget."""
            return "b"

        return registry

    def test_mapping_protocol(self):
        registry = self.make()
        assert sorted(registry) == ["alpha", "beta"]
        assert "alpha" in registry and "gamma" not in registry
        assert len(registry) == 2
        assert registry["alpha"]() == "a"

    def test_get_with_default_behaves_like_mapping_get(self):
        registry = self.make()
        assert registry.get("gamma", None) is None
        assert registry.get("alpha")() == "a"

    def test_unknown_name_lists_available(self):
        registry = self.make()
        with pytest.raises(KeyError, match="unknown widget 'gamma'.*alpha, beta"):
            registry.get("gamma")

    def test_near_miss_gets_a_suggestion(self):
        registry = self.make()
        with pytest.raises(KeyError, match="did you mean 'alpha'"):
            registry.get("alpah")

    def test_duplicate_registration_rejected(self):
        registry = self.make()
        with pytest.raises(ValueError, match="widget 'alpha' is already registered"):
            registry.register("alpha", lambda: "again")

    def test_metadata_and_summary(self):
        registry = self.make()
        assert registry.metadata("alpha") == {"colour": "red"}
        assert registry.entry("beta").summary == "A beta widget."
        names = [entry.name for entry in registry.list()]
        assert names == ["alpha", "beta"]

    def test_unregister(self):
        registry = self.make()
        registry.unregister("alpha")
        assert "alpha" not in registry


class TestManagerRegistry:
    def test_known_managers(self):
        assert {"rtm", "rtm_min_energy", "governor_only", "static_deployment"} <= set(
            MANAGER_REGISTRY
        )

    def test_make_manager_builds_fresh_instances(self):
        a = make_manager("rtm")
        b = make_manager("rtm")
        assert isinstance(a, RuntimeManager)
        assert a is not b

    def test_unknown_manager_raises_with_available_names(self):
        with pytest.raises(KeyError, match="unknown manager 'nope'.*rtm"):
            make_manager("nope")


FULL_SPEC = ExperimentSpec(
    name="custom",
    scenario="rush_hour",
    manager="rtm",
    platform="jetson_nano",
    seed=7,
    policy="min_latency",
    policy_overrides={"dnn2": "min_energy"},
    rtm={"enable_dvfs": False, "thermal_margin_c": 3.0},
    simulator={"decision_interval_ms": 250.0, "max_backlog": 3},
    use_op_cache=False,
)


class TestSpecRoundTrip:
    @pytest.mark.parametrize(
        "spec",
        [ExperimentSpec(scenario="steady"), FULL_SPEC],
        ids=["minimal", "full"],
    )
    def test_dict_round_trip(self, spec):
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("suffix", [".toml", ".json"])
    def test_file_round_trip(self, tmp_path, suffix):
        path = tmp_path / f"spec{suffix}"
        FULL_SPEC.save(path)
        assert ExperimentSpec.load(path) == FULL_SPEC

    def test_batch_round_trip(self, tmp_path):
        specs = [FULL_SPEC, ExperimentSpec(scenario="steady"), ExperimentSpec(scenario="bursty")]
        for suffix in (".toml", ".json"):
            path = tmp_path / f"batch{suffix}"
            dump_specs(specs, path)
            assert load_specs(path) == specs

    def test_load_rejects_batch_file_for_single_loader(self, tmp_path):
        path = tmp_path / "batch.toml"
        dump_specs([FULL_SPEC, ExperimentSpec(scenario="steady")], path)
        with pytest.raises(SpecError, match="holds 2 experiments"):
            ExperimentSpec.load(path)

    def test_tuple_params_round_trip_as_lists(self, tmp_path):
        # Tuples are normalised to lists (the JSON/TOML-canonical form) at
        # construction, so a spec built with tuple values compares equal to
        # its reloaded form and shares its spec_id.
        spec = ExperimentSpec(scenario="steady", scenario_params={"fps_range": (3.0, 8.0)})
        assert spec.scenario_params == {"fps_range": [3.0, 8.0]}
        for suffix in (".toml", ".json"):
            path = tmp_path / f"tuples{suffix}"
            dump_specs([spec], path)
            reloaded = load_specs(path)[0]
            assert reloaded == spec
            assert reloaded.spec_id() == spec.spec_id()

    def test_defaults_are_restored_for_omitted_keys(self, tmp_path):
        path = tmp_path / "sparse.toml"
        path.write_text('scenario = "steady"\n')
        spec = ExperimentSpec.load(path)
        assert spec == ExperimentSpec(scenario="steady")
        assert spec.manager == "rtm" and spec.use_op_cache is True

    def test_label_defaults_and_respects_name(self):
        assert ExperimentSpec(scenario="steady", seed=2).label == "steady/rtm/seed2"
        assert FULL_SPEC.label == "custom"


class TestTomlStringEscaping:
    """Regression: ``_toml_value`` used to emit raw control characters.

    A spec whose name held a newline (or tab, carriage return, any
    U+0000-U+001F) serialised to a TOML basic string with the character
    embedded verbatim — invalid TOML that ``tomllib`` refused to parse back,
    breaking save/load round-trips.  Strings must escape per the TOML
    basic-string rules (short escapes where they exist, ``\\uXXXX``
    otherwise).
    """

    def _round_trip(self, tmp_path, name: str) -> ExperimentSpec:
        spec = ExperimentSpec(scenario="steady", name=name)
        path = tmp_path / "spec.toml"
        spec.save(path)
        return ExperimentSpec.load(path)

    def test_newline_in_name_round_trips(self, tmp_path):
        # The original failure mode: "line1\nline2" produced unparseable TOML.
        reloaded = self._round_trip(tmp_path, "line1\nline2")
        assert reloaded.name == "line1\nline2"

    @pytest.mark.parametrize(
        "name",
        ["tab\there", "cr\rhere", "bell\x07", "nul\x00", "del\x7f", 'quote" and \\ slash'],
        ids=["tab", "carriage-return", "bell", "nul", "del", "quote-backslash"],
    )
    def test_control_and_special_chars_round_trip(self, tmp_path, name):
        assert self._round_trip(tmp_path, name).name == name

    def test_hypothesis_arbitrary_strings_round_trip(self, tmp_path):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @given(
            name=st.text(
                alphabet=st.characters(
                    codec="utf-8", categories=("L", "N", "P", "S", "Z", "Cc")
                ),
                min_size=1,
                max_size=40,
            )
        )
        @settings(max_examples=80, deadline=None)
        def check(name: str) -> None:
            spec = ExperimentSpec(scenario="steady", name=name)
            path = tmp_path / "hypothesis_spec.toml"
            spec.save(path)
            reloaded = ExperimentSpec.load(path)
            assert reloaded.name == name
            assert reloaded.spec_id() == spec.spec_id()

        check()

    def test_control_chars_in_scenario_params_round_trip(self, tmp_path):
        spec = ExperimentSpec(
            scenario="steady", scenario_params={"note": "a\tb\nc"}
        )
        path = tmp_path / "params.toml"
        dump_specs([spec], path)
        assert load_specs(path)[0].scenario_params["note"] == "a\tb\nc"


class TestAtomicSpecWrites:
    """``save``/``dump_specs`` must replace files atomically.

    A crash mid-write used to leave a truncated file at the destination;
    with the same-directory-temp + ``os.replace`` scheme the original
    survives any failure before the final rename.
    """

    def test_failed_save_leaves_original_intact(self, tmp_path, monkeypatch):
        path = tmp_path / "spec.toml"
        ExperimentSpec(scenario="steady").save(path)
        original = path.read_text()

        def exploding_replace(src, dst):
            raise OSError("simulated crash at rename")

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(OSError, match="simulated crash"):
            ExperimentSpec(scenario="bursty").save(path)
        assert path.read_text() == original
        # The aborted temp file must not linger next to the destination.
        assert [p.name for p in tmp_path.iterdir()] == ["spec.toml"]

    def test_failed_dump_specs_leaves_original_intact(self, tmp_path, monkeypatch):
        path = tmp_path / "batch.toml"
        dump_specs([ExperimentSpec(scenario="steady")], path)
        original = path.read_text()
        monkeypatch.setattr(os, "replace", lambda src, dst: (_ for _ in ()).throw(OSError("boom")))
        with pytest.raises(OSError):
            dump_specs([FULL_SPEC], path)
        assert path.read_text() == original


class TestSpecValidation:
    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(SpecError, match="unknown experiment spec keys \\['senario'\\]"):
            ExperimentSpec.from_dict({"senario": "steady"})

    def test_bad_field_types_rejected(self):
        with pytest.raises(SpecError, match="'seed' must be an integer"):
            ExperimentSpec.from_dict({"scenario": "steady", "seed": "three"})
        with pytest.raises(SpecError, match="'rtm' must be a table"):
            ExperimentSpec.from_dict({"scenario": "steady", "rtm": ["enable_dvfs"]})

    def test_unknown_registry_names_rejected_with_suggestion(self):
        with pytest.raises(SpecError, match="unknown scenario 'rush_our'.*did you mean 'rush_hour'"):
            ExperimentSpec(scenario="rush_our").validate()
        with pytest.raises(SpecError, match="unknown manager"):
            ExperimentSpec(scenario="steady", manager="rtmm").validate()
        with pytest.raises(SpecError, match="unknown platform preset"):
            ExperimentSpec(scenario="steady", platform="pixel9000").validate()
        with pytest.raises(SpecError, match="unknown policy"):
            ExperimentSpec(scenario="steady", policy="min_enrgy").validate()

    def test_unknown_override_fields_rejected(self):
        with pytest.raises(SpecError, match="unknown rtm override keys \\['enable_warp'\\]"):
            ExperimentSpec(scenario="steady", rtm={"enable_warp": True}).validate()
        with pytest.raises(SpecError, match="unknown simulator override keys"):
            ExperimentSpec(scenario="steady", simulator={"tick": 1.0}).validate()

    def test_baselines_reject_rtm_overrides(self):
        with pytest.raises(SpecError, match="not configurable"):
            ExperimentSpec(
                scenario="steady", manager="governor_only", rtm={"enable_dvfs": False}
            ).validate()

    def test_valid_spec_passes_and_chains(self):
        assert FULL_SPEC.validate() is FULL_SPEC

    def test_decision_interval_is_a_simulator_key(self):
        # The RTM never read an rtm-level decision interval; the epoch period
        # is the simulator's, and the error says so.
        spec = ExperimentSpec(scenario="steady", rtm={"decision_interval_ms": 250.0})
        with pytest.raises(SpecError, match=r"did you mean simulator\.decision_interval_ms"):
            spec.validate()
        with pytest.raises(SpecError, match="decision_interval_ms"):
            run(spec)


class TestSpecId:
    def test_equal_specs_share_an_id(self):
        a = ExperimentSpec(scenario="steady", seed=1)
        b = ExperimentSpec(scenario="steady", seed=1)
        assert a.spec_id() == b.spec_id()

    def test_any_field_change_changes_the_id(self):
        base = ExperimentSpec(scenario="steady")
        variants = [
            ExperimentSpec(scenario="bursty"),
            ExperimentSpec(scenario="steady", seed=1),
            ExperimentSpec(scenario="steady", manager="governor_only"),
            ExperimentSpec(scenario="steady", platform="jetson_nano"),
            ExperimentSpec(scenario="steady", rtm={"enable_dvfs": False}),
            ExperimentSpec(scenario="steady", use_op_cache=False),
        ]
        ids = {spec.spec_id() for spec in [base, *variants]}
        assert len(ids) == len(variants) + 1

    def test_spec_id_is_stable_across_process_boundaries(self):
        """The content hash must not depend on the Python hash seed or process."""
        spec = FULL_SPEC
        code = (
            "import json, sys\n"
            "from repro.experiments import ExperimentSpec\n"
            "spec = ExperimentSpec.from_dict(json.load(sys.stdin))\n"
            "print(spec.spec_id())\n"
        )
        src_dir = str(Path(repro.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONHASHSEED": "12345"}
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [sys.executable, "-c", code],
            input=json.dumps(spec.to_dict()),
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        assert result.stdout.strip() == spec.spec_id()


#: Spec-driven golden pairs: one per manager, including the pair the
#: acceptance criterion names (rush_hour x rtm).
GOLDEN_SPEC_PAIRS = [
    ("rush_hour", "rtm"),
    ("steady", "governor_only"),
    ("fig2", "rtm_min_energy"),
    ("single_dnn", "static_deployment"),
]


class TestSpecExecution:
    @pytest.mark.parametrize("scenario,manager", GOLDEN_SPEC_PAIRS)
    def test_run_reproduces_golden_fingerprints(self, scenario, manager):
        result = run(ExperimentSpec(scenario=scenario, manager=manager, seed=0))
        assert result.trace.fingerprint() == GOLDEN_FINGERPRINTS[(scenario, manager)]

    def test_spec_run_is_bit_identical_to_direct_simulation(self):
        """Acceptance: run(spec) of rush_hour x rtm == simulating the built objects."""
        spec_trace = run(ExperimentSpec(scenario="rush_hour", manager="rtm", seed=0)).trace
        direct_trace = simulate_scenario(build_scenario("rush_hour", seed=0), make_manager("rtm"))
        assert spec_trace.fingerprint() == direct_trace.fingerprint()

    def test_rtm_policy_and_overrides_reach_the_manager(self):
        from repro.experiments import build_manager_from_spec
        from repro.rtm import MinEnergyUnderConstraints, MinLatencyUnderPowerCap

        manager = build_manager_from_spec(
            ExperimentSpec(
                scenario="fig2",
                policy="min_latency",
                policy_overrides={"dnn2": "min_energy"},
                rtm={"enable_dnn_scaling": False, "max_cores_per_app": 2},
            )
        )
        assert isinstance(manager.policy, MinLatencyUnderPowerCap)
        assert manager.config.enable_dnn_scaling is False
        assert manager.config.max_cores_per_app == 2
        assert isinstance(
            manager.allocator.policy_overrides["dnn2"], MinEnergyUnderConstraints
        )

    def test_scenario_params_reach_the_builder(self):
        result = run(
            ExperimentSpec(scenario="single_dnn", scenario_params={"duration_ms": 4000.0})
        )
        assert result.trace.duration_ms == 4000.0

    def test_scenario_params_override_generator_defaults(self):
        result = run(
            ExperimentSpec(scenario="steady", scenario_params={"duration_ms": 5000.0})
        )
        assert result.trace.duration_ms == 5000.0

    def test_scenario_params_rejected_when_the_builder_takes_none(self):
        # rush_hour is hand-written and takes no extra parameters; validate()
        # must refuse up front instead of failing deep inside a worker.
        with pytest.raises(SpecError, match="'rush_hour' does not accept scenario_params"):
            ExperimentSpec(
                scenario="rush_hour", scenario_params={"duration_ms": 1000.0}
            ).validate()

    def test_misspelled_generator_param_rejected_up_front(self):
        # The generator-backed builders declare their accepted params in the
        # registry metadata, so a typo fails validation (exit 2 in the CLI)
        # rather than as a TypeError inside a worker.
        with pytest.raises(SpecError, match="does not accept scenario_params \\['duratoin_ms'\\]"):
            ExperimentSpec(
                scenario="steady", scenario_params={"duratoin_ms": 500.0}
            ).validate()

    def test_wrong_typed_overrides_rejected(self):
        with pytest.raises(SpecError, match="'enable_dvfs' must be a bool"):
            ExperimentSpec(scenario="steady", rtm={"enable_dvfs": "false"}).validate()
        with pytest.raises(SpecError, match="'decision_interval_ms' must be a float"):
            ExperimentSpec(
                scenario="steady", simulator={"decision_interval_ms": "250"}
            ).validate()
        with pytest.raises(SpecError, match="'max_backlog' must be a int"):
            ExperimentSpec(scenario="steady", simulator={"max_backlog": 2.5}).validate()
        # Ints are acceptable for float fields.
        ExperimentSpec(scenario="steady", simulator={"decision_interval_ms": 250}).validate()

    @pytest.mark.parametrize("backend", [None, "serial", "batched"])
    def test_simulator_overrides_are_applied(self, backend):
        specs = [
            ExperimentSpec(
                name="fast", scenario="single_dnn", simulator={"decision_interval_ms": 250.0}
            ),
            ExperimentSpec(name="slow", scenario="single_dnn"),
        ]
        if backend is None:
            fast, slow = (run(spec).trace for spec in specs)
        else:
            traces = run_many(specs, backend=backend).traces
            fast, slow = traces["fast"], traces["slow"]
        # Twice the decision epochs in the same simulated time.
        assert len(fast.decisions) > len(slow.decisions)

    def test_cached_and_uncached_specs_are_bit_identical(self):
        cached = run(ExperimentSpec(scenario="single_dnn", use_op_cache=True)).trace
        uncached = run(ExperimentSpec(scenario="single_dnn", use_op_cache=False)).trace
        assert cached.fingerprint() == uncached.fingerprint()
        assert cached.cache_counters()["hits"] > 0
        assert uncached.cache_counters() == {"hits": 0, "misses": 0}

    def test_run_validates_by_default(self):
        with pytest.raises(SpecError, match="unknown scenario"):
            run(ExperimentSpec(scenario="nope"))


class TestRunMany:
    def test_rejects_duplicate_labels(self):
        spec = ExperimentSpec(scenario="steady")
        with pytest.raises(ValueError, match="duplicate experiment labels"):
            run_many([spec, spec])

    def test_rejects_non_positive_workers(self):
        with pytest.raises(ValueError, match="workers"):
            run_many([ExperimentSpec(scenario="steady")], workers=0)

    @pytest.mark.parametrize(
        "backend, workers", [("serial", 1), ("process", 2), ("batched", 1)]
    )
    @pytest.mark.parametrize(
        "bad, message",
        [
            ({"scenario": "steady", "platform": "not_a_platform"}, "unknown platform preset"),
            ({"scenario": "not_a_scenario"}, "unknown scenario"),
            ({"manager": "not_a_manager", "scenario": "single_dnn"}, "unknown manager"),
            (
                {"scenario": "single_dnn", "simulator": {"decision_interval_ms": math.nan}},
                "decision_interval_ms must be finite",
            ),
            (
                {"scenario": "single_dnn", "rtm": {"temperature_bucket_width_c": math.nan}},
                "temperature_bucket_width_c must be finite",
            ),
        ],
        ids=["platform", "scenario", "manager", "nan_interval", "nan_bucket_width"],
    )
    def test_errors_are_captured_per_spec(self, backend, workers, bad, message):
        specs = [
            ExperimentSpec(name="bad", **bad),
            ExperimentSpec(scenario="single_dnn", scenario_params={"duration_ms": 2000.0}),
            ExperimentSpec(
                scenario="single_dnn", manager="governor_only",
                scenario_params={"duration_ms": 2000.0},
            ),
        ]
        batch = run_many(specs, backend=backend, workers=workers, validate=False)
        assert list(batch.errors) == ["bad"]
        assert message in batch.errors["bad"]
        assert list(batch.traces) == ["single_dnn/rtm/seed0", "single_dnn/governor_only/seed0"]
        assert all(len(trace.jobs) > 0 for trace in batch.traces.values())

    @pytest.mark.parametrize(
        "backend, workers", [("serial", 1), ("process", 2), ("batched", 1)]
    )
    def test_results_follow_submission_order(self, backend, workers):
        short = {"duration_ms": 2000.0}
        specs = [
            ExperimentSpec(scenario="single_dnn", manager="governor_only", scenario_params=short),
            ExperimentSpec(scenario="steady", seed=1, scenario_params=short),
            ExperimentSpec(scenario="single_dnn", scenario_params=short),
            ExperimentSpec(scenario="steady", seed=0, scenario_params=short),
        ]
        batch = run_many(specs, backend=backend, workers=workers)
        assert not batch.errors
        assert list(batch.traces) == [spec.label for spec in specs]
        assert list(batch.violation_rates()) == [spec.label for spec in specs]

    @pytest.mark.parametrize("backend, workers", [("process", 2), ("batched", 1)])
    def test_seed_grid_aggregates_match_the_serial_backend(self, backend, workers):
        specs = [
            ExperimentSpec(scenario="steady", seed=seed, scenario_params={"duration_ms": 2000.0})
            for seed in (1, 2)
        ]
        serial = run_many(specs, backend="serial")
        other = run_many(specs, backend=backend, workers=workers)
        assert not serial.errors and not other.errors
        assert list(serial.traces) == list(other.traces) == [
            "steady/rtm/seed1",
            "steady/rtm/seed2",
        ]
        assert serial.violation_rates() == other.violation_rates()
        assert serial.energies_mj() == other.energies_mj()
        assert serial.mean_accuracies() == other.mean_accuracies()
        assert serial.best_case() == other.best_case()

    @pytest.mark.parametrize("backend", ["serial", "batched"])
    def test_aggregates_cover_only_the_surviving_specs(self, backend):
        short = {"duration_ms": 2000.0}
        specs = [
            ExperimentSpec(scenario="steady", seed=1, scenario_params=short),
            ExperimentSpec(
                scenario="steady", seed=2, platform="not_a_platform", scenario_params=short
            ),
            ExperimentSpec(scenario="steady", seed=3, scenario_params=short),
        ]
        batch = run_many(specs, backend=backend, validate=False)
        survivors = ["steady/rtm/seed1", "steady/rtm/seed3"]
        assert list(batch.errors) == ["steady/rtm/seed2"]
        assert list(batch.violation_rates()) == survivors
        assert list(batch.energies_mj()) == survivors
        assert list(batch.mean_accuracies()) == survivors
        assert batch.best_case() in survivors
        assert len(batch) == batch.computed_count == 2

    def test_manager_grid_aggregates_are_well_formed(self):
        batch = run_many(
            [
                ExperimentSpec(
                    scenario="single_dnn", manager=manager,
                    scenario_params={"duration_ms": 2000.0},
                )
                for manager in ("rtm", "governor_only")
            ]
        )
        labels = ["single_dnn/rtm/seed0", "single_dnn/governor_only/seed0"]
        assert list(batch.violation_rates()) == labels
        assert all(0.0 <= rate <= 1.0 for rate in batch.violation_rates().values())
        assert all(energy >= 0.0 for energy in batch.energies_mj().values())
        assert all(0.0 <= acc <= 100.0 for acc in batch.mean_accuracies().values())
        assert batch.best_case() in labels

    def test_empty_batch_has_no_best_case(self):
        with pytest.raises(ValueError, match="no results"):
            ExperimentBatch().best_case()

    def test_spec_file_replay_is_worker_count_independent(self, tmp_path):
        """Acceptance: a sweep from a spec file re-runs identically on 1 and N workers."""
        path = tmp_path / "sweep.toml"
        dump_specs(grid_specs(["single_dnn", "steady"], ["rtm", "governor_only"], [0]), path)

        first = run_many(load_specs(path), workers=1)
        second = run_many(load_specs(path), workers=2)
        assert not first.errors and not second.errors
        assert list(first.traces) == list(second.traces)
        fingerprints_one = {k: t.fingerprint() for k, t in first.traces.items()}
        fingerprints_two = {k: t.fingerprint() for k, t in second.traces.items()}
        assert fingerprints_one == fingerprints_two
        assert first.violation_rates() == second.violation_rates()
        assert first.energies_mj() == second.energies_mj()
        assert first.mean_accuracies() == second.mean_accuracies()
        assert first.best_case() == second.best_case()

    def test_grid_specs_labels(self):
        specs = grid_specs(["steady"], ["rtm", "governor_only"], [0, 1])
        assert [spec.label for spec in specs] == [
            "steady/rtm/seed0",
            "steady/rtm/seed1",
            "steady/governor_only/seed0",
            "steady/governor_only/seed1",
        ]


class TestCommittedExampleSpecs:
    EXAMPLES = Path(__file__).resolve().parent.parent / "examples" / "specs"

    @pytest.mark.parametrize("filename", ["fig2_managers.toml", "rush_hour_rtm.toml"])
    def test_committed_spec_files_load_and_validate(self, filename):
        specs = load_specs(self.EXAMPLES / filename)
        assert specs
        for spec in specs:
            spec.validate()
