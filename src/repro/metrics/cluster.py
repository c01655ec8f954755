"""Per-node (cluster-level) metric breakdowns.

Single-node experiments summarize over one invoker; cluster experiments
additionally need to answer *how well the fleet was used*: how calls
spread over invokers, how far utilization diverged between nodes, and how
often the balancer had to leave its preferred target.  This module
derives those views from data every result already carries — call records
(each names its serving invoker), per-node diagnostics, and the
balancer's routing counters — so cached results gain the breakdown
retroactively.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.metrics.report import format_table

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.runner import ExperimentResult

__all__ = ["NodeUsage", "ClusterBreakdown", "cluster_breakdown"]


@dataclass(frozen=True)
class NodeUsage:
    """How one invoker participated in a run."""

    name: str
    #: Measured (client-visible) calls the node served.
    calls: int
    #: Fraction of all measured calls (0..1).
    share: float
    #: Mean client response time of the node's calls (0 when idle).
    mean_response_time: float
    cpu_utilization: float
    cold_starts: int


@dataclass
class ClusterBreakdown:
    """Fleet-level view of one experiment result.

    Attributes
    ----------
    nodes:
        One :class:`NodeUsage` per invoker, in fleet order (autoscaled
        nodes appended after the initial fleet).
    imbalance:
        ``max / mean`` of per-node measured-call counts — ``1.0`` is a
        perfectly even spread, ``n`` means one node served everything.
    spill_rate:
        Fraction of routed calls the balancer placed off its preferred
        invoker (``0.0`` for balancers without a preference notion, and
        on the default fleet of one).
    balancer:
        Balancer flavour name, or ``None`` on the default fleet of one.
    scale_events:
        ``(sim time, new fleet size)`` pairs recorded by the autoscaler.
    """

    nodes: List[NodeUsage]
    imbalance: float
    spill_rate: float
    balancer: Optional[str] = None
    scale_events: List[List[float]] = field(default_factory=list)

    def render(self) -> str:
        rows = [
            [
                usage.name,
                usage.calls,
                usage.share,
                usage.mean_response_time,
                usage.cpu_utilization,
                usage.cold_starts,
            ]
            for usage in self.nodes
        ]
        title = "Cluster breakdown"
        if self.balancer:
            title += f" — balancer={self.balancer}"
        title += f" (imbalance x{self.imbalance:.2f}, spill rate {self.spill_rate:.1%})"
        if self.scale_events:
            title += f", {len(self.scale_events)} scale-out(s)"
        return format_table(
            ["node", "calls", "share", "R.avg", "cpu util", "colds"],
            rows,
            title=title,
        )


def cluster_breakdown(result: "ExperimentResult") -> ClusterBreakdown:
    """Derive the fleet-level breakdown of one experiment result."""
    counts: Dict[str, int] = {}
    response_sums: Dict[str, float] = {}
    for record in result.records:
        counts[record.invoker] = counts.get(record.invoker, 0) + 1
        response_sums[record.invoker] = (
            response_sums.get(record.invoker, 0.0) + record.response_time
        )
    total = len(result.records)

    nodes: List[NodeUsage] = []
    per_node_counts: List[int] = []
    for stats in result.node_stats:
        name = str(stats.get("name", f"node-{len(nodes)}"))
        calls = counts.pop(name, 0)
        per_node_counts.append(calls)
        nodes.append(
            NodeUsage(
                name=name,
                calls=calls,
                share=calls / total if total else 0.0,
                mean_response_time=response_sums.get(name, 0.0) / calls if calls else 0.0,
                cpu_utilization=float(stats.get("cpu_utilization", 0.0)),
                cold_starts=int(stats.get("cold_starts", 0)),
            )
        )
    # Records naming an invoker absent from node_stats would silently
    # vanish from the breakdown — that's a bookkeeping bug, not a state.
    if counts:
        raise ValueError(
            f"records reference invoker(s) missing from node_stats: "
            f"{sorted(counts)}"
        )

    mean_calls = sum(per_node_counts) / len(per_node_counts) if per_node_counts else 0.0
    imbalance = max(per_node_counts) / mean_calls if mean_calls else 1.0

    balancer_stats: Dict[str, Any] = result.balancer_stats or {}
    return ClusterBreakdown(
        nodes=nodes,
        imbalance=imbalance,
        spill_rate=float(balancer_stats.get("spill_rate", 0.0)),
        balancer=balancer_stats.get("balancer"),
        scale_events=[list(event) for event in balancer_stats.get("scale_events", [])],
    )
