#!/usr/bin/env python3
"""Peak absorption: node-level scheduling vs. horizontal autoscaling.

The paper's core economic argument (Sect. I): autoscaling cannot absorb
short load peaks because a new node takes dozens of seconds to arrive,
so operators over-provision instead — unless the node itself handles
overload gracefully.  This example replays a trace-shaped workload (a
5-minute trace with a 60-second peak, Zipf-skewed functions) against:

1. stock OpenWhisk + a reactive autoscaler (up to 3 nodes, 30 s boots);
2. a single node running the paper's Fair-Choice scheduler, no scaling.

Run:
    python examples/peak_absorption.py
"""

import numpy as np

from repro.cluster.autoscaler import AutoscalerConfig, ReactiveAutoscaler
from repro.cluster.platform import FaaSPlatform
from repro.metrics.report import format_table
from repro.node.baseline import BaselineInvoker
from repro.node.config import NodeConfig
from repro.node.invoker import Invoker
from repro.sim.core import Environment
from repro.workload.functions import sebs_catalog
from repro.workload.trace import TraceProfile, trace_scenario

PROFILE = TraceProfile(
    duration_s=300.0,
    base_rate=2.0,
    peak_rate=18.0,
    peak_start_s=120.0,
    peak_duration_s=60.0,
    zipf_exponent=1.1,
)
CORES = 8


def run_autoscaled_baseline(seed: int):
    env = Environment()
    node_config = NodeConfig(cores=CORES)
    first = BaselineInvoker(env, node_config, name="node-0")
    first.warm_up(sebs_catalog())
    invokers = [first]
    autoscaler = ReactiveAutoscaler(
        env, invokers,
        config=AutoscalerConfig(max_nodes=3, provisioning_delay_s=30.0),
        factory=lambda index: BaselineInvoker(env, node_config, name=f"scaled-{index}"),
    )
    scenario = trace_scenario(PROFILE, np.random.default_rng(seed))
    records = FaaSPlatform(env, invokers).run_scenario(scenario)
    return records, autoscaler


def run_fc_single_node(seed: int):
    env = Environment()
    invoker = Invoker(env, NodeConfig(cores=CORES), policy="FC", name="node-0")
    invoker.warm_up(sebs_catalog())
    scenario = trace_scenario(PROFILE, np.random.default_rng(seed))
    records = FaaSPlatform(env, [invoker]).run_scenario(scenario)
    return records


def stats_row(label, records, extra=""):
    responses = np.array([r.response_time for r in records])
    return [
        label,
        len(records),
        float(responses.mean()),
        float(np.percentile(responses, 50)),
        float(np.percentile(responses, 95)),
        float(np.percentile(responses, 99)),
        extra,
    ]


def main() -> None:
    print(
        f"Trace: {PROFILE.duration_s:.0f} s, base {PROFILE.base_rate:.0f} req/s, "
        f"peak {PROFILE.peak_rate:.0f} req/s for {PROFILE.peak_duration_s:.0f} s, "
        f"{CORES}-core nodes\n"
    )
    base_records, autoscaler = run_autoscaled_baseline(seed=1)
    fc_records = run_fc_single_node(seed=1)

    scale_note = (
        f"scaled to {autoscaler.fleet_size} nodes at "
        + ", ".join(f"t={t:.0f}s" for t, _ in autoscaler.scale_events)
        if autoscaler.scale_events
        else "never scaled"
    )
    rows = [
        stats_row("baseline + autoscaler (<=3 nodes)", base_records, scale_note),
        stats_row("Fair-Choice, 1 node, no scaling", fc_records),
    ]
    print(
        format_table(
            ["setup", "n", "avg [s]", "p50 [s]", "p95 [s]", "p99 [s]", "notes"],
            rows,
        )
    )
    base_mean = np.mean([r.response_time for r in base_records])
    fc_mean = np.mean([r.response_time for r in fc_records])
    print(
        f"\nOne FC node vs. an autoscaled baseline fleet: "
        f"{base_mean / fc_mean:.1f}x better mean response — the peak is over "
        f"before the new nodes can help."
    )


if __name__ == "__main__":
    main()
