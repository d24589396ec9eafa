"""Tests for the typed public API layer (:mod:`repro.api`).

Covers the spec dataclasses (round-trips, validation, budget parsing), the
centralized env-var resolution precedence, the algorithm registry
(capability flags, anti-drift against the CLI and the experiment harness),
spec fingerprints (golden stability file) and the bit-identical equivalence
between an explicit ``RunSpec`` and the experiment harness's ``spec_for``
spec for every registered algorithm.
"""

import json
from pathlib import Path

import pytest

from repro.api import (
    EngineConfig,
    RunSpec,
    WorkloadSpec,
    algorithm_entries,
    algorithm_names,
    experiment_algorithms,
    get_algorithm,
    parse_budgets,
    run as run_spec,
)
from repro.cli import build_parser
from repro.engine.config import ENGINE_ENV_VAR
from repro.exceptions import AlgorithmError, SpecError
from repro.experiments import ALGORITHMS, SMOKE, benchmark_network
from repro.experiments.runners import spec_for
from repro.utility.configs import CONFIGURATIONS, two_item_config

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_fingerprints.json"


class TestParseBudgets:
    def test_json_object(self):
        assert parse_budgets('{"i": 10, "j": 5}') == {"i": 10, "j": 5}

    def test_item_count_pairs(self):
        assert parse_budgets("i=10, j=5") == {"i": 10, "j": 5}

    def test_mapping_passthrough(self):
        assert parse_budgets({"i": "3"}) == {"i": 3}

    def test_malformed_pair_names_the_pair(self):
        with pytest.raises(SpecError, match="malformed budget pair 'i:10'"):
            parse_budgets("i:10")

    def test_non_integer_count_names_the_item(self):
        with pytest.raises(SpecError, match="budget for item 'j'"):
            parse_budgets("i=1,j=lots")

    def test_bad_json_is_a_spec_error(self):
        with pytest.raises(SpecError, match="not valid JSON"):
            parse_budgets('{"i": 10')

    def test_negative_budget_rejected(self):
        with pytest.raises(SpecError, match="must be >= 0"):
            parse_budgets("i=-1")

    def test_empty_rejected(self):
        with pytest.raises(SpecError):
            parse_budgets("")
        with pytest.raises(SpecError):
            parse_budgets({})


class TestSpecRoundTrips:
    def spec(self):
        return RunSpec(
            algorithm="SeqGRD-NM",
            workload=WorkloadSpec(network="nethept", scale=0.01,
                                  configuration="C1",
                                  budgets={"i": 3, "j": 1},
                                  fixed_allocation={"j": (4, 7)}),
            engine=EngineConfig(seed=11, samples=20, workers=2))

    def test_dict_round_trip(self):
        spec = self.spec()
        assert RunSpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip(self):
        spec = self.spec()
        wire = json.loads(json.dumps(spec.to_dict()))
        assert RunSpec.from_dict(wire) == spec

    def test_unknown_field_rejected(self):
        data = self.spec().to_dict()
        data["workload"]["bogus"] = 1
        with pytest.raises(SpecError, match="bogus"):
            RunSpec.from_dict(data)

    def test_unknown_top_level_field_rejected(self):
        with pytest.raises(SpecError, match="extra"):
            RunSpec.from_dict({"algorithm": "SeqGRD", "extra": {}})

    def test_missing_algorithm_rejected(self):
        with pytest.raises(SpecError, match="algorithm"):
            RunSpec.from_dict({"workload": {}})

    def test_removed_selection_strategy_field_rejected(self):
        with pytest.raises(SpecError, match="selection_strategy"):
            EngineConfig.from_dict({"selection_strategy": "lazy"})

    def test_defaults_fill_missing_sections(self):
        spec = RunSpec.from_dict({"algorithm": "TCIM"})
        assert spec.workload == WorkloadSpec()
        assert spec.engine == EngineConfig()

    def test_specs_are_hashable_values(self):
        first = self.spec()
        again = RunSpec.from_dict(first.to_dict())
        assert hash(first) == hash(again)
        assert {first: "cached"}[again] == "cached"
        assert len({first, again}) == 1


class TestValidation:
    def test_unknown_algorithm(self):
        with pytest.raises(AlgorithmError, match="Mystery"):
            RunSpec("Mystery").validate()

    def test_unknown_configuration(self):
        spec = RunSpec("SeqGRD-NM",
                       workload=WorkloadSpec(configuration="C99"))
        with pytest.raises(SpecError, match="unknown configuration"):
            spec.validate()

    def test_unknown_budget_item_rejected_against_catalog(self):
        spec = RunSpec("SeqGRD-NM",
                       workload=WorkloadSpec(configuration="C1",
                                             budgets={"i": 1, "zebra": 2}))
        with pytest.raises(SpecError, match="zebra"):
            spec.validate()

    def test_unknown_fixed_imm_item_rejected(self):
        spec = RunSpec("SeqGRD-NM",
                       workload=WorkloadSpec(configuration="C1",
                                             fixed_imm_item="zebra"))
        with pytest.raises(SpecError, match="zebra"):
            spec.validate()

    def test_workers_capability(self):
        spec = RunSpec("MaxGRD", engine=EngineConfig(workers=2))
        with pytest.raises(SpecError, match="workers"):
            spec.validate()

    def test_supported_combination_passes(self):
        RunSpec("SeqGRD-NM", engine=EngineConfig(workers=2)).validate()

    def test_bad_engine_value(self):
        spec = RunSpec("SeqGRD-NM", engine=EngineConfig(engine="quantum"))
        with pytest.raises(SpecError, match="quantum"):
            spec.validate()

    def test_fixed_imm_and_fixed_allocation_exclusive(self):
        spec = RunSpec("SeqGRD-NM", workload=WorkloadSpec(
            configuration="C1", fixed_imm_item="j",
            fixed_allocation={"j": (1,)}))
        with pytest.raises(SpecError, match="mutually exclusive"):
            spec.validate()

    def test_index_capability_enforced_at_run(self):
        graph = benchmark_network("nethept", SMOKE)
        model = two_item_config("C1")
        with pytest.raises(AlgorithmError, match="prebuilt RR-set index"):
            run_spec(RunSpec("TCIM"), graph=graph, model=model,
                     index=object())


class TestEnvPrecedence:
    """Explicit argument > environment variable > built-in default."""

    def test_defaults(self, monkeypatch):
        monkeypatch.delenv(ENGINE_ENV_VAR, raising=False)
        resolved = EngineConfig().resolve()
        assert resolved.engine == "vectorized"

    def test_env_beats_default(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, "python")
        resolved = EngineConfig().resolve()
        assert resolved.engine == "python"

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, "python")
        resolved = EngineConfig(engine="vectorized").resolve()
        assert resolved.engine == "vectorized"

    def test_invalid_env_rejected(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, "quantum")
        with pytest.raises(SpecError, match="quantum"):
            EngineConfig().resolve()

    def test_resolve_is_idempotent(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, "python")
        resolved = EngineConfig().resolve()
        monkeypatch.setenv(ENGINE_ENV_VAR, "vectorized")
        # already-resolved configs never consult the environment again
        assert resolved.resolve().engine == "python"


class TestRegistryAntiDrift:
    """Registry names, CLI choices and ALGORITHMS must never drift."""

    def test_experiment_lineup_derives_from_registry(self):
        assert ALGORITHMS == experiment_algorithms()
        assert ALGORITHMS == ("SeqGRD", "SeqGRD-NM", "MaxGRD", "SupGRD",
                              "greedyWM", "TCIM", "Balance-C", "Round-robin",
                              "Snake")

    def test_cli_choices_match_registry(self):
        parser = build_parser()
        args = parser.parse_args(["run"])
        # every registry name parses as a valid --algorithm choice
        for name in algorithm_names():
            parsed = parser.parse_args(["run", "--algorithm", name])
            assert parsed.algorithm == name
        assert args.algorithm == "SeqGRD-NM"

    def test_registry_is_superset_of_experiments(self):
        assert set(experiment_algorithms()) < set(algorithm_names())
        assert "BestOf" in algorithm_names()

    def test_capability_flags(self):
        flags = {e.name: e for e in algorithm_entries()}
        assert flags["SeqGRD-NM"].supports_index
        assert flags["SupGRD"].supports_workers
        assert not flags["TCIM"].supports_workers
        assert flags["greedyWM"].needs_candidate_pool
        assert flags["Balance-C"].needs_candidate_pool
        assert not flags["BestOf"].in_experiments

    def test_get_algorithm_unknown(self):
        with pytest.raises(AlgorithmError, match="choose from"):
            get_algorithm("Mystery")


class TestFingerprint:
    def test_stable_against_golden_file(self, monkeypatch):
        monkeypatch.delenv(ENGINE_ENV_VAR, raising=False)
        golden = json.loads(GOLDEN_PATH.read_text())
        assert golden, "golden fingerprint file must not be empty"
        for entry in golden:
            spec = RunSpec.from_dict(entry["spec"])
            assert spec.fingerprint() == entry["fingerprint"], (
                f"fingerprint drift for {entry['name']}: the RunSpec "
                f"schema changed; bump SPEC_SCHEMA_VERSION and regenerate "
                f"tests/data/golden_fingerprints.json")

    def test_env_resolution_folds_into_fingerprint(self, monkeypatch):
        monkeypatch.delenv(ENGINE_ENV_VAR, raising=False)
        implicit = RunSpec("SeqGRD-NM").fingerprint()
        explicit = RunSpec("SeqGRD-NM", engine=EngineConfig(
            engine="vectorized")).fingerprint()
        assert implicit == explicit
        monkeypatch.setenv(ENGINE_ENV_VAR, "python")
        assert RunSpec("SeqGRD-NM").fingerprint() != implicit

    def test_sensitive_to_every_layer(self):
        base = RunSpec("SeqGRD-NM")
        assert base.fingerprint() != RunSpec("SeqGRD").fingerprint()
        assert base.fingerprint() != RunSpec(
            "SeqGRD-NM",
            workload=WorkloadSpec(budget=11)).fingerprint()
        assert base.fingerprint() != RunSpec(
            "SeqGRD-NM", engine=EngineConfig(seed=2021)).fingerprint()


class TestRunSpecEquivalence:
    """Acceptance: every registered algorithm produces bit-identical
    allocations from an explicit RunSpec and from the harness's
    ``spec_for`` spec run with the preset's options."""

    @pytest.fixture(scope="class")
    def instance(self):
        graph = benchmark_network("nethept", SMOKE)
        model = two_item_config("C1")
        return graph, model

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_bit_identical_allocations(self, algorithm, instance):
        graph, model = instance
        budgets = {"i": 2} if algorithm == "SupGRD" else {"i": 2, "j": 2}
        legacy = run_spec(
            spec_for(algorithm, SMOKE, network=graph.name,
                     configuration="C1", budgets=budgets,
                     superior_item="i" if algorithm == "SupGRD" else None),
            graph=graph, model=model, options=SMOKE.imm_options)
        spec = RunSpec(
            algorithm=algorithm,
            workload=WorkloadSpec(
                network=graph.name, configuration="C1", budgets=budgets,
                superior_item="i" if algorithm == "SupGRD" else None),
            engine=EngineConfig(
                samples=SMOKE.evaluation_samples,
                marginal_samples=SMOKE.marginal_samples,
                max_rr_sets=SMOKE.imm_options.max_rr_sets,
                epsilon=SMOKE.imm_options.epsilon,
                ell=SMOKE.imm_options.ell,
                seed=SMOKE.seed,
                pool_size=SMOKE.baseline_pool_size))
        record = run_spec(spec, graph=graph, model=model)
        assert (record.result.allocation.as_dict()
                == legacy.result.allocation.as_dict())
        # same RNG stream end to end => exactly equal welfare estimates
        assert record.welfare == legacy.welfare
        assert record.adoption_counts == legacy.adoption_counts


class TestSupgrdNarrowing:
    """SupGRD budget narrowing is shared by every surface (CLI, api.run,
    serve): multi-item budget vectors narrow to one item identically."""

    def test_narrow_helper(self):
        from repro.api.runner import narrow_single_item_budgets

        assert narrow_single_item_budgets({"i": 3, "j": 1}) == {"i": 3}
        assert narrow_single_item_budgets({"i": 1, "j": 3}) == {"j": 3}
        assert narrow_single_item_budgets({"i": 2, "j": 2}) == {"i": 2}
        assert narrow_single_item_budgets({"i": 1, "j": 3},
                                     superior_item="i") == {"i": 1}
        assert narrow_single_item_budgets({"i": 4}) == {"i": 4}

    def test_run_narrows_uniform_budgets(self):
        graph = benchmark_network("nethept", SMOKE)
        model = two_item_config("C6")
        spec = RunSpec("SupGRD",
                       workload=WorkloadSpec(configuration="C6", budget=2),
                       engine=EngineConfig.from_scale(SMOKE))
        record = run_spec(spec, graph=graph, model=model)
        assert record.budgets == {"i": 2}
        assert set(record.result.allocation.as_dict()) == {"i"}


class TestConfigurationsCatalog:
    def test_catalog_matches_cli_reexport(self):
        from repro.cli import CONFIGURATIONS as cli_configurations

        assert cli_configurations is CONFIGURATIONS

    def test_all_configurations_buildable(self):
        for name in CONFIGURATIONS:
            spec = WorkloadSpec(configuration=name)
            assert spec.item_names(), name
