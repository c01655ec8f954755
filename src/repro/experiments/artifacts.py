"""Grid-derived paper artifacts: Tables II–IV and Figures 3–4 (plus the
per-seed appendix figures 7–36, which are the same views without pooling).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.catalog import Pairs
from repro.experiments.config import BASELINE
from repro.experiments.grid import (
    FIGURE_CORES,
    FIGURE_INTENSITIES,
    GridResults,
    GridSpec,
    run_grid,
)
from repro.experiments.paper_data import TABLE2_RATIO_RANGES, TABLE3
from repro.metrics.ascii import render_boxplot
from repro.metrics.report import format_table, render_summary_table
from repro.metrics.stats import BoxStats

__all__ = [
    "Table2Result",
    "table2_from_grid",
    "Table3Result",
    "table3_from_grid",
    "FigureBoxes",
    "fig3_from_grid",
    "fig4_from_grid",
    "reject_cluster_sweep",
]


# ----------------------------------------------------------------------
# Table II — FIFO/baseline makespan ratios
# ----------------------------------------------------------------------
def _scenario_tag(scenario: str, params: Pairs = ()) -> str:
    """Title suffix when a report's grid ran under a workload override —
    the override (name *and* parameters) changes what the numbers mean,
    so every view says so."""
    if scenario == "uniform":
        return ""
    detail = " ".join(f"{name}={value}" for name, value in params)
    return f" [scenario={scenario}{' ' + detail if detail else ''}]"


def _cluster_tag(spec: GridSpec) -> str:
    """Title suffix when the whole grid ran on one non-default cluster
    topology.  Sweeps over several topologies tag nothing here — every
    row's label then carries its own ``nodes``/``balancer``."""
    variants = spec.cluster_variants()
    if len(variants) != 1 or variants[0].is_default:
        return ""
    variant = variants[0]
    tag = f" [cluster: nodes={variant.nodes} balancer={variant.balancer}"
    if variant.autoscaler is not None:
        tag += " autoscale"
    return tag + "]"


def reject_cluster_sweep(spec: GridSpec, artifact: str) -> None:
    """Figure 3/4 and Table II views are keyed per (cores, intensity,
    strategy); under a multi-topology sweep they would silently render
    empty.  Refuse instead — one topology per invocation (Table III/IV
    render sweeps natively).  The registry calls this *before* running a
    grid so a doomed sweep fails before any simulation time is spent.
    """
    if spec.has_cluster_sweep:
        raise ValueError(
            f"{artifact} renders one cluster topology at a time; this grid "
            f"sweeps nodes={spec.nodes} x balancers={spec.balancers}. "
            f"Run per topology (single --nodes/--balancer), or view the sweep "
            f"through table3/table4."
        )


@dataclass
class Table2Result:
    """(cores, intensity) -> (lo, hi) FIFO/baseline max-c(i) ratio range."""

    ranges: Dict[Tuple[int, int], Tuple[float, float]]
    scenario: str = "uniform"
    scenario_params: Pairs = ()
    cluster_tag: str = ""

    def render(self) -> str:
        rows = []
        for (cores, intensity), (lo, hi) in sorted(self.ranges.items()):
            paper = TABLE2_RATIO_RANGES.get((cores, intensity))
            paper_cell = f"{paper[0]:.2f}-{paper[1]:.2f}" if paper else "-"
            rows.append([cores, intensity, paper_cell, f"{lo:.2f}-{hi:.2f}"])
        return format_table(
            ["cores", "intensity", "paper FIFO/baseline", "measured FIFO/baseline"],
            rows,
            title="Table II — max completion time, FIFO-to-baseline ratios"
            + _scenario_tag(self.scenario, self.scenario_params)
            + self.cluster_tag,
        )


def table2_from_grid(grid: GridResults) -> Table2Result:
    """Per-seed FIFO/baseline makespan ratios, reported as (min, max).

    The paper pairs seed *k* of FIFO with seed *k* of the baseline (both
    runs replay the same call sequence).
    """
    reject_cluster_sweep(grid.spec, "table2")
    ranges: Dict[Tuple[int, int], Tuple[float, float]] = {}
    for cores in grid.spec.cores:
        for intensity in grid.spec.intensities:
            key = (cores, intensity)
            try:
                fifo = grid.makespans(cores, intensity, "FIFO")
                base = grid.makespans(cores, intensity, BASELINE)
            except KeyError:
                continue
            ratios = [f / b for f, b in zip(fifo, base)]
            ranges[key] = (min(ratios), max(ratios))
    return Table2Result(
        ranges=ranges,
        scenario=grid.spec.scenario,
        scenario_params=grid.spec.scenario_params,
        cluster_tag=_cluster_tag(grid.spec),
    )


# ----------------------------------------------------------------------
# Table III / Table IV — aggregate and per-seed numeric grids
# ----------------------------------------------------------------------
@dataclass
class Table3Result:
    grid: GridResults
    per_seed: bool = False

    def render(self) -> str:
        entries = []
        for key in self.grid.cell_keys():
            label = self.grid.cell_label(key)
            if self.per_seed:
                for seed_idx, result in enumerate(self.grid.results_for(key), 1):
                    entries.append((f"{label} #{seed_idx}", result.summary()))
            else:
                entries.append((label, self.grid.summary_for(key)))
        title = (
            "Table IV — per-experiment numeric results"
            if self.per_seed
            else "Table III — aggregated numeric results"
        )
        title += _scenario_tag(self.grid.spec.scenario, self.grid.spec.scenario_params)
        title += _cluster_tag(self.grid.spec)
        return render_summary_table(entries, title=title)

    def render_comparison(self) -> str:
        """Paper-vs-measured for the cells present in both."""
        # The paper's Table III is single-node; comparing a different
        # topology against it would present apples as oranges.
        tag = _cluster_tag(self.grid.spec)
        if tag or self.grid.spec.has_cluster_sweep:
            return (
                "Table III — paper comparison skipped: the paper's numbers "
                "are single-node, this grid ran on a different cluster "
                "topology."
            )
        rows = []
        for (cores, intensity, strategy), paper in sorted(TABLE3.items()):
            if (cores, intensity, strategy) not in self.grid.cells:
                continue
            stats = self.grid.summary(cores, intensity, strategy)
            rows.append(
                [
                    f"c={cores} v={intensity} {strategy}",
                    paper[0],
                    stats.mean_response_time,
                    paper[1],
                    stats.response_time_percentiles[50],
                    paper[3],
                    stats.mean_stretch,
                    paper[5],
                    stats.max_completion_time,
                ]
            )
        return format_table(
            [
                "config",
                "R.avg paper", "R.avg ours",
                "R.p50 paper", "R.p50 ours",
                "S.avg paper", "S.avg ours",
                "mk paper", "mk ours",
            ],
            rows,
            title="Table III — paper vs. measured",
        )


def table3_from_grid(grid: GridResults, per_seed: bool = False) -> Table3Result:
    return Table3Result(grid=grid, per_seed=per_seed)


# ----------------------------------------------------------------------
# Figures 3 & 4 — box statistics per (cores, intensity, strategy)
# ----------------------------------------------------------------------
@dataclass
class FigureBoxes:
    """Box-plot statistics for one metric over the figure sub-grid."""

    metric: str  # "response_time" | "stretch"
    boxes: Dict[Tuple[int, int, str], BoxStats]
    scenario: str = "uniform"
    scenario_params: Pairs = ()
    cluster_tag: str = ""

    def render(self) -> str:
        rows = []
        for (cores, intensity, strategy), box in sorted(
            self.boxes.items(), key=lambda kv: (kv[0][0], kv[0][1])
        ):
            rows.append(
                [
                    f"c={cores} v={intensity}",
                    strategy,
                    box.q1,
                    box.median,
                    box.q3,
                    box.mean,
                    box.whisker_high,
                    box.n,
                ]
            )
        figure = "Fig. 3 (response time [s])" if self.metric == "response_time" else "Fig. 4 (stretch)"
        table = format_table(
            ["panel", "strategy", "q1", "median", "q3", "mean", "whisker_hi", "n"],
            rows,
            title=f"{figure} — box statistics, pooled over seeds"
            + _scenario_tag(self.scenario, self.scenario_params)
            + self.cluster_tag,
        )
        return table + "\n\n" + self.render_plots()

    def render_plots(self) -> str:
        """ASCII box plots, one panel per (cores, intensity) — the text-mode
        equivalent of the paper's figure grid (stretch panels on log axes,
        as published)."""
        panels = sorted({(c, v) for c, v, _ in self.boxes})
        blocks = []
        for cores, intensity in panels:
            entries = [
                (strategy, self.boxes[(c, v, strategy)])
                for (c, v, strategy) in sorted(
                    self.boxes, key=lambda k: list(self.boxes).index(k)
                )
                if (c, v) == (cores, intensity)
            ]
            blocks.append(
                render_boxplot(
                    entries,
                    title=f"{cores} CPU cores, intensity {intensity}",
                    log_scale=(self.metric == "stretch"),
                    unit="s" if self.metric == "response_time" else "",
                )
            )
        return "\n\n".join(blocks)


def _figure_boxes(grid: GridResults, metric: str) -> FigureBoxes:
    reject_cluster_sweep(grid.spec, "fig3/fig4")
    boxes: Dict[Tuple[int, int, str], BoxStats] = {}
    cores_list = [c for c in FIGURE_CORES if c in grid.spec.cores] or list(grid.spec.cores)
    intensities = [v for v in FIGURE_INTENSITIES if v in grid.spec.intensities] or list(
        grid.spec.intensities
    )
    for cores in cores_list:
        for intensity in intensities:
            for strategy in grid.spec.strategies:
                if (cores, intensity, strategy) not in grid.cells:
                    continue
                if metric == "response_time":
                    boxes[(cores, intensity, strategy)] = grid.response_box(
                        cores, intensity, strategy
                    )
                else:
                    boxes[(cores, intensity, strategy)] = grid.stretch_box(
                        cores, intensity, strategy
                    )
    return FigureBoxes(
        metric=metric,
        boxes=boxes,
        scenario=grid.spec.scenario,
        scenario_params=grid.spec.scenario_params,
        cluster_tag=_cluster_tag(grid.spec),
    )


def fig3_from_grid(grid: GridResults) -> FigureBoxes:
    """Figure 3: response-time boxes on the {10,20} × {30,40,60} sub-grid."""
    return _figure_boxes(grid, "response_time")


def fig4_from_grid(grid: GridResults) -> FigureBoxes:
    """Figure 4: stretch boxes on the same sub-grid."""
    return _figure_boxes(grid, "stretch")
