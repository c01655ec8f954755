"""Tests for the scenario registry."""

import numpy as np
import pytest

from repro.catalog import REQUIRED, Param, Registry
from repro.workload.functions import sebs_catalog
from repro.workload.registry import (
    SCENARIOS,
    ScenarioSpec,
    build_scenario,
    get_scenario,
    register_scenario,
    scenario_names,
)
from repro.workload.scenarios import uniform_burst

EXPECTED_BUILTINS = {
    "uniform", "skewed", "multi-node", "azure",
    "poisson", "diurnal", "zipf-multitenant", "trace", "replay",
}


class TestBuiltinCatalog:
    def test_at_least_eight_scenarios_registered(self):
        assert len(scenario_names()) >= 8

    def test_expected_builtins_present(self):
        assert EXPECTED_BUILTINS <= set(scenario_names())

    def test_every_spec_has_description_and_section(self):
        for name in scenario_names():
            spec = get_scenario(name)
            assert spec.description
            assert spec.paper_section
            for param in spec.params:
                assert param.doc  # units/meaning documented

    def test_names_sorted(self):
        names = scenario_names()
        assert names == sorted(names)


class TestRegistration:
    def test_duplicate_name_rejected(self):
        registry = Registry(ScenarioSpec, "scenarios")

        @registry.register("dup", description="first")
        def first(cores, intensity, rng, *, window, catalog):
            raise NotImplementedError

        with pytest.raises(ValueError, match="already registered"):
            @registry.register("dup", description="second")
            def second(cores, intensity, rng, *, window, catalog):
                raise NotImplementedError

    def test_duplicate_builtin_rejected_in_default_registry(self):
        with pytest.raises(ValueError, match="already registered"):
            @register_scenario("uniform", description="clash")
            def clash(cores, intensity, rng, *, window, catalog):
                raise NotImplementedError

    def test_unknown_name_error_lists_available(self):
        with pytest.raises(ValueError) as excinfo:
            get_scenario("chaos-monkey")
        message = str(excinfo.value)
        assert "chaos-monkey" in message
        for name in ("uniform", "poisson", "replay"):
            assert name in message

    def test_contains_and_len(self):
        registry = Registry(ScenarioSpec, "scenarios")
        assert "x" not in registry and len(registry) == 0

        @registry.register("x", description="d")
        def x(cores, intensity, rng, *, window, catalog):
            raise NotImplementedError

        assert "x" in registry and len(registry) == 1
        assert [spec.name for spec in registry] == ["x"]


class TestParamValidation:
    def test_unknown_param_rejected_listing_valid(self):
        with pytest.raises(ValueError) as excinfo:
            get_scenario("skewed").validate_params({"rare_functio": "sleep"})
        message = str(excinfo.value)
        assert "rare_functio" in message and "rare_function" in message

    def test_param_on_paramless_scenario_rejected(self):
        with pytest.raises(ValueError, match="(none)"):
            get_scenario("uniform").validate_params({"rate": 3})

    def test_missing_required_param_rejected(self):
        with pytest.raises(ValueError, match="path"):
            get_scenario("replay").validate_params({})

    def test_defaults_merged_under_overrides(self):
        merged = get_scenario("skewed").validate_params({"rare_count": 5})
        assert merged == {"rare_function": "dna-visualisation", "rare_count": 5}

    def test_required_sentinel(self):
        assert Param("p", REQUIRED).required
        assert not Param("p", None).required


class TestBuild:
    def test_registry_matches_direct_builder_bit_for_bit(self):
        direct = uniform_burst(4, 10, np.random.default_rng(3))
        via_registry = build_scenario("uniform", 4, 10, np.random.default_rng(3))
        assert [(r.rid, r.function.name, r.release_time, r.service_time) for r in direct] \
            == [(r.rid, r.function.name, r.release_time, r.service_time) for r in via_registry]

    def test_build_respects_window_and_catalog(self):
        catalog = sebs_catalog()[:3]
        scenario = build_scenario(
            "uniform", 10, 30, np.random.default_rng(0), window=5.0, catalog=catalog
        )
        assert len(scenario.functions) == 3
        assert all(r.release_time < 5.0 for r in scenario)

    def test_all_builtins_build_nonempty(self, tmp_path):
        from repro.workload.replay import TraceRow, write_trace_csv

        csv_path = write_trace_csv(
            tmp_path / "t.csv", [TraceRow("a", "f", 0, 20)]
        )
        for name in scenario_names():
            params = {"path": str(csv_path)} if name == "replay" else None
            scenario = build_scenario(
                name, 4, 10, np.random.default_rng(1), params=params
            )
            assert len(scenario) > 0, name
