"""Tests for the reactive autoscaler extension."""

import numpy as np
import pytest

from repro.cluster.autoscaler import AutoscalerConfig, ReactiveAutoscaler
from repro.cluster.platform import FaaSPlatform
from repro.cluster.spec import ClusterSpec
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.node.baseline import BaselineInvoker
from repro.node.config import NodeConfig
from repro.node.invoker import Invoker
from repro.sim.core import Environment
from repro.workload.functions import sebs_catalog
from repro.workload.scenarios import uniform_burst


def run_with_autoscaler(policy="baseline", autoscaler_config=None, intensity=60):
    env = Environment()
    node_config = NodeConfig(cores=4)

    def node(name):
        if policy == "baseline":
            return BaselineInvoker(env, node_config, name=name)
        return Invoker(env, node_config, policy=policy, name=name)

    first = node("node-0")
    first.warm_up(sebs_catalog())
    invokers = [first]
    autoscaler = ReactiveAutoscaler(
        env, invokers,
        config=autoscaler_config or AutoscalerConfig(max_nodes=3),
        factory=lambda index: node(f"scaled-{index}"),
    )
    scenario = uniform_burst(4, intensity, np.random.default_rng(1))
    platform = FaaSPlatform(env, invokers)
    records = platform.run_scenario(scenario)
    return autoscaler, records


class TestAutoscalerConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            AutoscalerConfig(max_nodes=0)
        with pytest.raises(ValueError):
            AutoscalerConfig(provisioning_delay_s=-1.0)
        with pytest.raises(ValueError):
            AutoscalerConfig(scale_out_outstanding_per_core=0.0)
        with pytest.raises(ValueError):
            AutoscalerConfig(check_interval_s=0.0)


class TestReactiveAutoscaler:
    def test_scales_out_under_overload(self):
        autoscaler, records = run_with_autoscaler(intensity=90)
        assert autoscaler.fleet_size > 1
        assert autoscaler.scale_events
        # New nodes arrive only after the provisioning delay.
        first_event_time, _ = autoscaler.scale_events[0]
        assert first_event_time >= AutoscalerConfig().provisioning_delay_s

    def test_respects_max_nodes(self):
        config = AutoscalerConfig(max_nodes=2, provisioning_delay_s=5.0)
        autoscaler, _ = run_with_autoscaler(autoscaler_config=config, intensity=90)
        assert autoscaler.fleet_size <= 2

    def test_no_scale_out_when_idle(self):
        config = AutoscalerConfig(max_nodes=4)
        autoscaler, _ = run_with_autoscaler(autoscaler_config=config, intensity=5)
        assert autoscaler.fleet_size == 1
        assert not autoscaler.scale_events

    def test_all_requests_still_served(self):
        _, records = run_with_autoscaler(intensity=60)
        assert len(records) == 264  # 1.1 * 4 * 60

    def test_scaled_nodes_receive_load(self):
        autoscaler, records = run_with_autoscaler(intensity=90)
        if autoscaler.fleet_size > 1:
            invokers_used = {r.invoker for r in records}
            assert any(name.startswith("scaled-") for name in invokers_used)

    def test_our_policy_fleet_scales_too(self):
        autoscaler, records = run_with_autoscaler(policy="FC", intensity=90)
        assert len(records) == 396
        # The factory builds the same policy on new nodes.
        if autoscaler.fleet_size > 1:
            assert type(autoscaler.invokers[-1].policy).name == "FC"

    def test_scheduling_handles_peak_autoscaler_too_late(self):
        # The paper's argument: during a 60 s burst, a 30 s provisioning
        # delay means the autoscaler's capacity arrives when most of the
        # damage is done.  FC on a fixed single node should beat the
        # autoscaled baseline's mean response.
        import numpy as np

        base_autoscaled, base_records = run_with_autoscaler("baseline", intensity=90)
        _, fc_records = run_with_autoscaler(
            "FC", AutoscalerConfig(max_nodes=1), intensity=90
        )
        base_mean = float(np.mean([r.response_time for r in base_records]))
        fc_mean = float(np.mean([r.response_time for r in fc_records]))
        assert fc_mean < base_mean


class TestScaledNodeNames:
    def test_concurrent_scale_outs_get_unique_names(self):
        # Two provisions overlap: the second starts before the first node
        # joins the fleet, so the live fleet size cannot name them apart.
        autoscaler = {"max_nodes": 3, "provisioning_delay_s": 5.0}
        result = run_experiment(
            ExperimentConfig(
                cores=4,
                intensity=60,
                policy="FC",
                cluster=ClusterSpec(
                    nodes=1, balancer="power-of-d", autoscaler=autoscaler
                ),
            )
        )
        (first, _), (second, _) = result.balancer_stats["scale_events"]
        boot = AutoscalerConfig(**autoscaler)
        assert second - first < boot.provisioning_delay_s + boot.warmup_delay_s

        names = [stats["name"] for stats in result.node_stats]
        assert names == ["FC-node-0", "scaled-1", "scaled-2"]
        breakdown = result.cluster_summary()
        assert [usage.calls for usage in breakdown.nodes] == [
            stats["completed"] for stats in result.node_stats
        ]
