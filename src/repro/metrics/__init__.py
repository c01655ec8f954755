"""Metrics: per-call records, response-time/stretch statistics, reports."""

from repro.metrics.ascii import render_boxplot
from repro.metrics.cluster import ClusterBreakdown, NodeUsage, cluster_breakdown
from repro.metrics.compare import (
    COMPARE_METRICS,
    DEFAULT_METRICS,
    BootstrapCI,
    ComparisonResult,
    GridComparison,
    MannWhitneyResult,
    MetricComparison,
    bootstrap_diff_ci,
    cliffs_delta,
    compare_grid,
    compare_results,
    compare_samples,
    effect_magnitude,
    holm_bonferroni,
    mann_whitney_u,
)
from repro.metrics.records import CallRecord
from repro.metrics.stats import (
    BoxStats,
    SummaryStats,
    box_stats,
    percentile,
    summarize,
)
from repro.metrics.report import format_table, render_summary_table
from repro.metrics.serialize import (
    record_to_dict,
    records_from_columns,
    records_to_columns,
    records_to_dicts,
)
from repro.metrics.streaming import (
    ExactSum,
    MetricsAccumulator,
    StreamingSummary,
    SummaryAccumulator,
    TDigest,
    merge_accumulators,
)

__all__ = [
    "BootstrapCI",
    "BoxStats",
    "COMPARE_METRICS",
    "CallRecord",
    "ComparisonResult",
    "DEFAULT_METRICS",
    "GridComparison",
    "MannWhitneyResult",
    "MetricComparison",
    "ClusterBreakdown",
    "NodeUsage",
    "cluster_breakdown",
    "ExactSum",
    "MetricsAccumulator",
    "StreamingSummary",
    "SummaryAccumulator",
    "SummaryStats",
    "TDigest",
    "merge_accumulators",
    "bootstrap_diff_ci",
    "box_stats",
    "cliffs_delta",
    "compare_grid",
    "compare_results",
    "compare_samples",
    "effect_magnitude",
    "format_table",
    "holm_bonferroni",
    "mann_whitney_u",
    "percentile",
    "record_to_dict",
    "records_from_columns",
    "records_to_columns",
    "records_to_dicts",
    "render_boxplot",
    "render_summary_table",
    "summarize",
]
