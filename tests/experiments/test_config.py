"""Tests for experiment configurations."""

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.parallel import config_fingerprint, config_to_dict


class TestExperimentConfig:
    def test_is_baseline(self):
        assert ExperimentConfig(cores=10, intensity=30, policy="baseline").is_baseline
        assert ExperimentConfig(cores=10, intensity=30, policy="BASELINE").is_baseline
        assert not ExperimentConfig(cores=10, intensity=30, policy="SEPT").is_baseline

    def test_node_config_carries_overrides(self):
        cfg = ExperimentConfig(
            cores=10, intensity=30, node_overrides=(("kappa", 0.5), ("busy_limit", 15))
        )
        node = cfg.node_config()
        assert node.kappa == 0.5 and node.busy_limit == 15 and node.cores == 10

    def test_with_replaces(self):
        cfg = ExperimentConfig(cores=10, intensity=30, seed=1)
        assert cfg.with_(seed=7).seed == 7
        assert cfg.seed == 1  # original untouched

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(cores=10, intensity=30, scenario="chaos")

    def test_unknown_scenario_error_lists_available(self):
        with pytest.raises(ValueError, match="uniform"):
            ExperimentConfig(cores=10, intensity=30, scenario="chaos")

    def test_registered_scenarios_accepted(self):
        for name in ("poisson", "diurnal", "zipf-multitenant", "trace", "multi-node"):
            assert ExperimentConfig(cores=10, intensity=30, scenario=name).scenario == name

    def test_scenario_params_normalised_and_hashable(self):
        from_dict = ExperimentConfig(
            cores=10, intensity=30, scenario="skewed",
            scenario_params={"rare_count": 5, "rare_function": "sleep"},
        )
        from_pairs = ExperimentConfig(
            cores=10, intensity=30, scenario="skewed",
            scenario_params=(("rare_function", "sleep"), ("rare_count", 5)),
        )
        assert from_dict == from_pairs  # one canonical (sorted) form
        assert hash(from_dict) == hash(from_pairs)
        assert from_dict.scenario_kwargs() == {"rare_count": 5, "rare_function": "sleep"}

    def test_unknown_scenario_param_rejected(self):
        with pytest.raises(ValueError, match="rare_function"):
            ExperimentConfig(
                cores=10, intensity=30, scenario="skewed",
                scenario_params={"rare_functio": "sleep"},
            )

    def test_missing_required_scenario_param_rejected(self):
        with pytest.raises(ValueError, match="path"):
            ExperimentConfig(cores=10, intensity=30, scenario="replay")

    def test_list_valued_param_frozen_to_tuple(self):
        cfg = ExperimentConfig(
            cores=10, intensity=30, scenario="poisson",
            scenario_params={"rate": [1, 2]},  # freeze() makes it hashable
        )
        assert cfg.scenario_kwargs()["rate"] == (1, 2)

    def test_declared_defaults_baked_into_params(self):
        # Relying on a default and spelling it out are the same experiment,
        # so they must be the same config (and cache fingerprint).
        implicit = ExperimentConfig(cores=10, intensity=30, scenario="azure")
        explicit = ExperimentConfig(
            cores=10, intensity=30, scenario="azure",
            scenario_params={"zipf_exponent": 1.1},
        )
        assert implicit == explicit
        assert implicit.scenario_kwargs() == {"zipf_exponent": 1.1}

    def test_duplicate_param_names_last_wins(self):
        cfg = ExperimentConfig(
            cores=10, intensity=30, scenario="poisson",
            scenario_params=(("rate", 5), ("rate", 2)),  # repeated CLI flag
        )
        assert cfg.scenario_kwargs()["rate"] == 2

    def test_duplicate_params_with_mixed_types_do_not_crash(self):
        cfg = ExperimentConfig(
            cores=10, intensity=30, scenario="poisson",
            scenario_params=(("rate", 5), ("rate", "abc")),
        )
        assert cfg.scenario_kwargs()["rate"] == "abc"

    def test_mapping_valued_param_rejected(self):
        with pytest.raises(ValueError, match="unsupported value type"):
            ExperimentConfig(
                cores=10, intensity=30, scenario="poisson",
                scenario_params={"rate": {"a": 1}},
            )

    def test_unknown_policy_rejected_listing_available(self):
        with pytest.raises(ValueError, match="SEPT"):
            ExperimentConfig(cores=10, intensity=30, policy="SJF")

    def test_policy_case_preserved_but_validated_insensitively(self):
        cfg = ExperimentConfig(cores=10, intensity=30, policy="sept")
        assert cfg.policy == "sept"  # stored spelling untouched (labels, fingerprints)

    def test_registered_extension_policies_accepted(self):
        for name in ("ORACLE-SPT", "ETAS", "RR-FN", "FC-HYBRID", "SEPT-EMA"):
            assert ExperimentConfig(cores=10, intensity=30, policy=name).policy == name

    def test_policy_params_validated_and_defaults_folded(self):
        implicit = ExperimentConfig(cores=10, intensity=30, policy="ETAS")
        explicit = ExperimentConfig(
            cores=10, intensity=30, policy="ETAS", policy_params={"alpha": 0.3}
        )
        assert implicit == explicit
        assert implicit.policy_kwargs() == {"alpha": 0.3}

    def test_unknown_policy_param_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            ExperimentConfig(
                cores=10, intensity=30, policy="ETAS", policy_params={"alhpa": 0.5}
            )

    def test_policy_params_on_parameterless_policy_rejected(self):
        with pytest.raises(ValueError, match="FIFO"):
            ExperimentConfig(
                cores=10, intensity=30, policy="FIFO", policy_params={"alpha": 0.5}
            )

    def test_policy_params_on_baseline_rejected(self):
        with pytest.raises(ValueError, match="baseline"):
            ExperimentConfig(
                cores=10, intensity=30, policy="baseline",
                policy_params={"alpha": 0.5},
            )

    def test_baseline_empty_mapping_params_stay_canonical(self):
        # A falsy-but-mutable {} must still normalise to the canonical
        # empty tuple, or the frozen config loses hashability.
        cfg = ExperimentConfig(
            cores=10, intensity=30, policy="baseline", policy_params={}
        )
        assert cfg.policy_params == ()
        assert cfg == ExperimentConfig(cores=10, intensity=30, policy="baseline")
        hash(cfg)

    def test_policy_params_normalised_and_hashable(self):
        from_dict = ExperimentConfig(
            cores=10, intensity=30, policy="SEPT-EMA",
            policy_params={"window": 5, "smoothing": 0.0},
        )
        from_pairs = ExperimentConfig(
            cores=10, intensity=30, policy="SEPT-EMA",
            policy_params=(("smoothing", 0.0), ("window", 5)),
        )
        assert from_dict == from_pairs
        assert hash(from_dict) == hash(from_pairs)
        assert from_dict.policy_kwargs() == {"window": 5, "smoothing": 0.0}

    def test_policy_param_value_type_error_names_policy(self):
        with pytest.raises(ValueError, match="^policy parameter 'deadline_weight' has unsupported"):
            ExperimentConfig(
                cores=10, intensity=30, policy="FC-HYBRID",
                policy_params={"deadline_weight": {"a": 1}},
            )

    def test_mapping_node_overrides_frozen_to_pairs(self):
        # A mapping used to be stored as given: the config was unhashable
        # and serialised the override name letter by letter.
        cfg = ExperimentConfig(cores=4, intensity=10, node_overrides={"kappa": 0.1})
        assert cfg.node_overrides == (("kappa", 0.1),)
        assert cfg == ExperimentConfig(cores=4, intensity=10, node_overrides=(("kappa", 0.1),))
        hash(cfg)
        assert config_to_dict(cfg)["fields"]["node_overrides"] == [["kappa", 0.1]]
        assert cfg.node_config().kappa == 0.1

    def test_node_overrides_fingerprint_in_sorted_form(self):
        given = ExperimentConfig(
            cores=4, intensity=10, node_overrides=(("kappa", 0.5), ("busy_limit", 3))
        )
        assert given.node_overrides == (("busy_limit", 3), ("kappa", 0.5))
        assert config_fingerprint(given) == config_fingerprint(
            given.with_(node_overrides={"busy_limit": 3, "kappa": 0.5})
        )

    def test_label(self):
        cfg = ExperimentConfig(cores=10, intensity=30, policy="FC", seed=3)
        assert "FC" in cfg.label() and "seed=3" in cfg.label()
        assert "scenario" not in cfg.label()  # uniform is the default

    def test_label_names_non_default_scenario(self):
        cfg = ExperimentConfig(cores=10, intensity=30, scenario="poisson")
        assert "scenario=poisson" in cfg.label()
