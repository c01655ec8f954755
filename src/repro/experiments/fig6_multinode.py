"""Figure 6 / Tables V–VI reproduction: multi-node experiments.

Paper Sect. VIII: a fixed request sequence (1320 requests for 10-core
VMs; 2376 for 18-core VMs) is processed by 4, 3, 2 or 1 worker VMs,
comparing the stock baseline against our FC strategy.  Headline claim:
**FC on 3 VMs provides better response-time statistics than the baseline
on 4 VMs** (and FC on 2 VMs still wins on the average and 75th
percentile, losing only the extreme tail).

Since the cluster became a first-class grid dimension, this artifact is
just a sweep of :class:`~repro.experiments.config.ExperimentConfig`\\ s
whose :class:`~repro.cluster.spec.ClusterSpec` varies the node count —
executed through :func:`~repro.experiments.parallel.run_configs`, so it
parallelizes (``jobs``) and caches (``cache_dir``) like every other
experiment.  ``balancer`` selects any registered balancer flavour for
the whole sweep (the paper's protocol is ``least-loaded``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.cluster.spec import ClusterSpec
from repro.experiments.config import BASELINE, ExperimentConfig
from repro.experiments.paper_data import TABLE5
from repro.experiments.parallel import run_configs
from repro.metrics.records import CallRecord
from repro.metrics.report import format_table

__all__ = ["run_fig6", "Fig6Result", "REQUESTS_FOR_CORES", "fig6_config"]

#: Total request count per per-node core size (paper: core intensity 30
#: on 4 nodes): 4 * 11 * cores * 3.
REQUESTS_FOR_CORES = {10: 1320, 18: 2376}

#: The paper's Sect. VIII memory pool (40 GiB VMs).
MULTI_NODE_MEMORY_MB = 40960


def fig6_config(
    nodes: int,
    cores_per_node: int,
    total_requests: int,
    policy: str,
    seed: int,
    balancer: str = "least-loaded",
) -> ExperimentConfig:
    """One cell of the Sect. VIII sweep as a first-class grid config."""
    return ExperimentConfig(
        cores=cores_per_node,
        intensity=30,  # unused: the multi-node scenario pins total_requests
        policy=policy,
        seed=seed,
        memory_mb=MULTI_NODE_MEMORY_MB,
        scenario="multi-node",
        scenario_params={"total_requests": total_requests},
        cluster=ClusterSpec(nodes=nodes, balancer=balancer),
    )


@dataclass
class Fig6Result:
    """Pooled response-time statistics per (nodes, strategy)."""

    cores_per_node: int
    total_requests: int
    stats: Dict[Tuple[int, str], Dict[str, float]]

    def stat(self, nodes: int, strategy: str, key: str) -> float:
        return self.stats[(nodes, strategy)][key]

    def render(self) -> str:
        rows = []
        for (nodes, strategy), s in sorted(
            self.stats.items(), key=lambda kv: (-kv[0][0], kv[0][1])
        ):
            paper = TABLE5.get((nodes, self.cores_per_node, strategy))
            rows.append(
                [
                    nodes,
                    strategy,
                    paper[0] if paper else "-",
                    s["avg"],
                    paper[2] if paper else "-",
                    s["p75"],
                    paper[3] if paper else "-",
                    s["p95"],
                    paper[4] if paper else "-",
                    s["p99"],
                ]
            )
        return format_table(
            [
                "VMs", "strategy",
                "avg paper", "avg ours",
                "p75 paper", "p75 ours",
                "p95 paper", "p95 ours",
                "p99 paper", "p99 ours",
            ],
            rows,
            title=(
                f"Fig. 6 / Table V — multi-node response times "
                f"({self.cores_per_node} cores/VM, {self.total_requests} requests)"
            ),
        )


def run_fig6(
    cores_per_node: int = 18,
    node_counts: Sequence[int] = (4, 3, 2, 1),
    strategies: Sequence[str] = (BASELINE, "FC"),
    seeds: Sequence[int] = (1, 2, 3, 4, 5),
    balancer: str = "least-loaded",
    **engine: Any,
) -> Fig6Result:
    """Run the multi-node sweep, pooling records over seeds, as one sweep
    of :func:`~repro.experiments.parallel.run_configs` (``engine`` takes
    its keywords: ``jobs``, ``cache_dir``, ...)."""
    total_requests = REQUESTS_FOR_CORES.get(cores_per_node, 11 * 4 * cores_per_node * 3)
    cells = [(nodes, strategy) for nodes in node_counts for strategy in strategies]
    configs = [
        fig6_config(nodes, cores_per_node, total_requests, strategy, seed, balancer)
        for nodes, strategy in cells
        for seed in seeds
    ]
    flat = run_configs(configs, **engine)

    cell_stats: Dict[Tuple[int, str], Dict[str, float]] = {}
    per_cell = len(seeds)
    for i, (nodes, strategy) in enumerate(cells):
        pooled: List[CallRecord] = []
        for result in flat[i * per_cell : (i + 1) * per_cell]:
            pooled.extend(result.records)
        responses = np.array([r.response_time for r in pooled])
        cell_stats[(nodes, strategy)] = {
            "avg": float(responses.mean()),
            "p50": float(np.percentile(responses, 50)),
            "p75": float(np.percentile(responses, 75)),
            "p95": float(np.percentile(responses, 95)),
            "p99": float(np.percentile(responses, 99)),
            "max": float(responses.max()),
            "n": float(len(responses)),
        }
    return Fig6Result(
        cores_per_node=cores_per_node, total_requests=total_requests, stats=cell_stats
    )
