"""Tests for the scheduling-policy registry (repro.scheduling.registry)."""

import pytest

from repro.catalog import REQUIRED, Param, Registry
from repro.scheduling.estimator import RuntimeEstimator
from repro.scheduling.extra import EtasLike
from repro.scheduling.parametric import HybridFairCompletion, SmoothedSEPT
from repro.scheduling.policies import FairChoice, FirstInFirstOut, SchedulingPolicy
from repro.scheduling.registry import (
    POLICY_REGISTRY,
    PolicySpec,
    build_policy,
    get_policy,
    policy_names,
)
from repro.workload.functions import catalog_by_name
from repro.workload.generator import Request


def req(name: str, service: float, rid: int = 0) -> Request:
    return Request(rid, catalog_by_name()[name], 0.0, service)


class TestCatalog:
    def test_all_builtin_policies_registered(self):
        assert set(policy_names()) == {
            "FIFO", "SEPT", "EECT", "RECT", "FC",
            "ORACLE-SPT", "ETAS", "RR-FN",
            "FC-HYBRID", "SEPT-EMA",
        }

    def test_paper_five_marked_with_section(self):
        for name in ("FIFO", "SEPT", "EECT", "RECT", "FC"):
            assert get_policy(name).paper_section == "IV"

    def test_starvation_freedom_matches_class_attribute(self):
        for name in policy_names():
            spec = get_policy(name)
            built = build_policy(name)
            assert spec.starvation_free == built.starvation_free, name

    def test_descriptions_present(self):
        for name in policy_names():
            assert get_policy(name).description


class TestLookup:
    def test_case_insensitive(self):
        assert get_policy("sept").name == "SEPT"
        assert get_policy("Fc-Hybrid").name == "FC-HYBRID"
        assert "sept-ema" in POLICY_REGISTRY

    def test_unknown_name_lists_available(self):
        with pytest.raises(ValueError, match="SEPT.*SEPT-EMA"):
            get_policy("SJF")

    def test_duplicate_registration_rejected(self):
        registry = Registry(PolicySpec, "policies", fold_case=True)
        registry.register("X", description="first")(FirstInFirstOut)
        with pytest.raises(ValueError, match="already registered"):
            registry.register("x", description="second")(FairChoice)

    def test_non_policy_registration_rejected(self):
        registry = Registry(PolicySpec, "policies", fold_case=True)
        with pytest.raises(TypeError):
            registry.register("X", description="not a policy")(object())


class TestParams:
    def test_unknown_param_rejected_with_valid_listing(self):
        with pytest.raises(ValueError, match="alpha"):
            get_policy("ETAS").validate_params({"alhpa": 0.5})

    def test_defaults_merged(self):
        assert get_policy("ETAS").validate_params(None) == {"alpha": 0.3}
        merged = get_policy("SEPT-EMA").validate_params({"window": 3})
        assert merged == {"window": 3, "smoothing": 0.0}
        assert get_policy("SEPT-EMA").defaults() == {"window": None, "smoothing": 0.0}

    def test_parameterless_policy_rejects_any_param(self):
        with pytest.raises(ValueError, match=r"\(none\)"):
            get_policy("FIFO").validate_params({"alpha": 0.5})

    def test_required_param_enforced(self):
        registry = Registry(PolicySpec, "policies", fold_case=True)

        @registry.register(
            "NEEDY",
            description="requires k",
            params=(Param("k", REQUIRED, "mandatory knob"),),
        )
        def _build(make_estimator, *, k):  # pragma: no cover - never built
            raise AssertionError

        with pytest.raises(ValueError, match="requires parameter"):
            registry.get("NEEDY").validate_params({})

    def test_policy_param_names_helper(self):
        assert get_policy("SEPT-EMA").param_names() == ["window", "smoothing"]
        assert get_policy("RECT").param_names() == []


class TestBuild:
    def test_builds_correct_classes(self):
        assert isinstance(build_policy("fifo"), FirstInFirstOut)
        assert isinstance(build_policy("ETAS"), EtasLike)
        assert isinstance(build_policy("FC-HYBRID"), HybridFairCompletion)
        assert isinstance(build_policy("SEPT-EMA"), SmoothedSEPT)

    def test_node_estimator_defaults_reach_the_policy(self):
        policy = build_policy("FC", window=7, frequency_horizon=30.0)
        assert policy.estimator.window == 7
        assert policy.estimator.frequency_horizon == 30.0

    def test_declared_window_overrides_node_default(self):
        # SEPT-EMA routes its `window` parameter into estimator
        # construction; the node default only applies when unset.
        policy = build_policy("SEPT-EMA", {"window": 3}, window=10)
        assert policy.estimator.window == 3
        default = build_policy("SEPT-EMA", {}, window=10)
        assert default.estimator.window == 10

    def test_node_estimator_window_reaches_sept_ema_through_config(self):
        # window=None (the declared default) must defer to the node's
        # estimator_window — an ablation over node_overrides applies to
        # SEPT-EMA exactly like to SEPT.
        from repro.experiments.config import ExperimentConfig
        from repro.node.invoker import Invoker
        from repro.sim.core import Environment

        cfg = ExperimentConfig(
            cores=4, intensity=10, policy="SEPT-EMA",
            node_overrides=(("estimator_window", 20),),
        )
        invoker = Invoker(
            Environment(), cfg.node_config(),
            policy=cfg.policy, policy_params=cfg.policy_kwargs(),
        )
        assert invoker.policy.estimator.window == 20

    def test_constructor_params_forwarded(self):
        assert build_policy("ETAS", {"alpha": 0.9}).alpha == 0.9

    def test_invalid_param_value_raises(self):
        with pytest.raises(ValueError):
            build_policy("ETAS", {"alpha": 0.0})
        with pytest.raises(ValueError):
            build_policy("SEPT-EMA", {"smoothing": 1.0})
        with pytest.raises(ValueError):
            build_policy("SEPT-EMA", {"window": 0})
        with pytest.raises(ValueError):
            build_policy("FC-HYBRID", {"deadline_weight": 1.5})

    def test_window_with_smoothing_rejected_as_inert(self):
        # With smoothing > 0 the priority reads only the EMA — a window
        # would change the fingerprint but not the results.
        with pytest.raises(ValueError, match="not both"):
            build_policy("SEPT-EMA", {"window": 3, "smoothing": 0.4})
        # An explicitly spelled-out smoothing=0.0 default stays valid.
        assert build_policy("SEPT-EMA", {"window": 3, "smoothing": 0.0}).estimator.window == 3

    def test_validator_runs_at_validate_params_time(self):
        # Bad values and combinations fail in validate_params — which is
        # what ExperimentConfig calls at construction — not only when the
        # policy is eventually built inside a run.
        with pytest.raises(ValueError, match="not both"):
            get_policy("SEPT-EMA").validate_params({"window": 3, "smoothing": 0.4})
        with pytest.raises(ValueError, match="must be a number"):
            get_policy("ETAS").validate_params({"alpha": "high"})
        with pytest.raises(ValueError, match="must be a number"):
            get_policy("FC-HYBRID").validate_params({"deadline_weight": True})

    def test_invalid_params_fail_at_config_construction(self):
        from repro.experiments.config import ExperimentConfig

        with pytest.raises(ValueError, match="not both"):
            ExperimentConfig(
                cores=4, intensity=10, policy="SEPT-EMA",
                policy_params={"window": 3, "smoothing": 0.4},
            )
        with pytest.raises(ValueError, match="must be a number"):
            ExperimentConfig(
                cores=4, intensity=10, policy="ETAS",
                policy_params={"alpha": "high"},
            )

    def test_integral_float_window_canonicalised(self):
        # 3.0 and 3 are the same experiment; the validator canonicalises
        # so they share one config — and one cache fingerprint.
        from repro.experiments.config import ExperimentConfig

        as_float = ExperimentConfig(
            cores=4, intensity=10, policy="SEPT-EMA", policy_params={"window": 3.0}
        )
        as_int = ExperimentConfig(
            cores=4, intensity=10, policy="SEPT-EMA", policy_params={"window": 3}
        )
        assert as_float == as_int
        assert as_float.policy_kwargs()["window"] == 3

    def test_warm_up_fills_policy_configured_window(self):
        # A policy-widened estimator window must be warmed to its own
        # length, not the node default's.
        from repro.node.config import NodeConfig
        from repro.node.invoker import Invoker
        from repro.sim.core import Environment
        from repro.workload.functions import sebs_catalog

        invoker = Invoker(
            Environment(), NodeConfig(cores=20, estimator_window=10),
            policy="SEPT-EMA", policy_params={"window": 20},
        )
        invoker.warm_up(sebs_catalog())
        assert invoker.policy.estimator.sample_count("sleep") == 20

    def test_custom_registration_is_immediately_buildable(self):
        registry = Registry(PolicySpec, "policies", fold_case=True)

        @registry.register(
            "LIFO-ISH",
            description="newest first",
            params=(Param("bias", 0.0, "priority offset"),),
        )
        class LastInFirstOut(SchedulingPolicy):
            def __init__(self, estimator: RuntimeEstimator, bias: float = 0.0):
                super().__init__(estimator)
                self.bias = bias

            def priority(self, request, received_at):
                return self.bias - received_at

        built = registry.get("lifo-ish").build({"bias": 2.0})
        assert isinstance(built, LastInFirstOut)
        assert built.priority(req("sleep", 1.0), 5.0) == -3.0


class TestHybridFairCompletion:
    def test_weight_zero_is_exactly_fc(self):
        est = RuntimeEstimator()
        hybrid = HybridFairCompletion(est, deadline_weight=0.0)
        fc = FairChoice(est)
        est.record_completion("sleep", 2.0)
        est.record_arrival("sleep", 0.0)
        r = req("sleep", 2.0)
        assert hybrid.priority(r, 10.0) == fc.priority(r, 10.0)

    def test_weight_one_is_exactly_eect(self):
        est = RuntimeEstimator()
        hybrid = HybridFairCompletion(est, deadline_weight=1.0)
        est.record_completion("sleep", 2.0)
        r = req("sleep", 2.0)
        assert hybrid.priority(r, 10.0) == 10.0 + 2.0

    def test_blend_is_convex(self):
        est = RuntimeEstimator()
        est.record_completion("sleep", 2.0)
        est.record_arrival("sleep", 9.0)
        r = req("sleep", 2.0)
        lo = HybridFairCompletion(est, deadline_weight=0.0).priority(r, 10.0)
        hi = HybridFairCompletion(est, deadline_weight=1.0).priority(r, 10.0)
        mid = HybridFairCompletion(est, deadline_weight=0.5).priority(r, 10.0)
        assert mid == pytest.approx(0.5 * lo + 0.5 * hi)


class TestSmoothedSEPT:
    def test_zero_smoothing_matches_window_mean(self):
        policy = build_policy("SEPT-EMA", {"window": 2})
        policy.on_completed(req("sleep", 1.0), 2.0)
        policy.on_completed(req("sleep", 1.0), 4.0)
        policy.on_completed(req("sleep", 1.0), 6.0)  # 2.0 falls out of window
        assert policy.priority(req("sleep", 1.0), 0.0) == pytest.approx(5.0)

    def test_positive_smoothing_orders_by_ema(self):
        policy = build_policy("SEPT-EMA", {"smoothing": 0.5})
        policy.on_completed(req("sleep", 1.0), 2.0)
        policy.on_completed(req("sleep", 1.0), 4.0)
        assert policy.ema("sleep") == pytest.approx(3.0)  # 0.5*4 + 0.5*2
        assert policy.priority(req("sleep", 1.0), 0.0) == pytest.approx(3.0)

    def test_never_seen_function_has_estimate_zero(self):
        policy = build_policy("SEPT-EMA", {"smoothing": 0.5})
        assert policy.priority(req("sleep", 1.0), 0.0) == 0.0


class TestWarmupSeedsEmaPolicies:
    """Invoker.warm_up routes through policy.record_warmup, so EMA-keeping
    policies start seeded exactly like the window-estimator ones."""

    @pytest.mark.parametrize(
        "policy,params", [("ETAS", {}), ("SEPT-EMA", {"smoothing": 0.4})]
    )
    def test_warm_up_seeds_the_ema(self, policy, params):
        from repro.node.config import NodeConfig
        from repro.node.invoker import Invoker
        from repro.sim.core import Environment
        from repro.workload.functions import sebs_catalog

        invoker = Invoker(
            Environment(), NodeConfig(cores=4), policy=policy, policy_params=params
        )
        invoker.warm_up(sebs_catalog())
        for spec in sebs_catalog():
            assert invoker.policy.ema(spec.name) == pytest.approx(
                spec.service_distribution.median
            )
            # The window estimator is seeded identically (same samples).
            assert invoker.policy.estimator.expected_processing_time(
                spec.name
            ) == pytest.approx(spec.service_distribution.median)
