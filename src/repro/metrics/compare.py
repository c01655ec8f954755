"""Statistically honest comparisons over per-seed metric distributions.

Every policy-vs-policy number in this repo used to be a point-estimate
delta ("FC looks ~12% faster").  The paper's rankings (Table IV) rest on
*distributions* — five (or twenty, or an adaptively chosen number of)
seeds per cell — so this module replaces eyeballing with proper tests:

* :func:`mann_whitney_u` — the Mann-Whitney U rank-sum test.  **Exact**
  null distribution (dynamic-programming enumeration, cached per sample
  size) for small tie-free samples; normal approximation **with tie
  correction** and continuity correction otherwise.  Pure stdlib — no
  scipy.
* :func:`bootstrap_diff_ci` — percentile or BCa bootstrap confidence
  intervals for the difference of a statistic (mean by default), driven
  by a **deterministic, config-seeded PRNG** so every rerun produces the
  same interval.
* :func:`cliffs_delta` — the Cliff's delta effect size (how often an A
  value exceeds a B value, in [-1, 1]) with the conventional
  negligible/small/medium/large magnitude labels.
* :func:`holm_bonferroni` — step-down multiple-comparison correction
  across a family of tests (the metric × cell grid), which never rejects
  more than the uncorrected tests would.

The user-facing surface is :func:`compare_results` (two repetition runs →
:class:`ComparisonResult`) and :func:`compare_grid` (two strategies
inside one grid → :class:`GridComparison`, Holm-corrected across every
metric × cell), consumed by ``faas-sched compare``, the adaptive seed
allocator (:mod:`repro.experiments.adaptive`) and the significance-tested
bench gate (``tools/bench_compare.py``).  Both consume retained *and*
streaming results: per-seed metric values come from
``ExperimentResult.summary()`` when records were retained and from the
constant-size accumulator otherwise — exact metrics (means, cold starts,
makespan) are bit-identical across modes, sketched percentiles agree
within the t-digest rank bound (docs/COMPARISONS.md, docs/STREAMING.md).

Every metric here is *lower-is-better* (response time, stretch, cold
starts, makespan), so a negative difference means A wins.
"""

from __future__ import annotations

import bisect
import hashlib
import math
import random
import re
from dataclasses import dataclass, replace
from functools import lru_cache
from statistics import NormalDist
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.metrics.report import format_table

__all__ = [
    "COMPARE_METRICS",
    "DEFAULT_METRICS",
    "MannWhitneyResult",
    "BootstrapCI",
    "MetricComparison",
    "ComparisonResult",
    "GridComparison",
    "mann_whitney_u",
    "cliffs_delta",
    "effect_magnitude",
    "bootstrap_diff_ci",
    "holm_bonferroni",
    "compare_samples",
    "compare_results",
    "compare_grid",
    "seed_metric_values",
    "summary_of",
]

_NORMAL = NormalDist()

#: Largest per-sample size for which the exact Mann-Whitney null
#: distribution is enumerated (DP table of O(n·m·nm) entries, cached per
#: ``(n, m)``); larger — or tied — samples use the normal approximation.
EXACT_LIMIT = 25


# ----------------------------------------------------------------------
# Mann-Whitney U
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MannWhitneyResult:
    """One two-sided Mann-Whitney U test.

    ``u_statistic`` is U for the *first* sample (small U ⇒ A's values sit
    below B's); ``method`` records whether the p-value came from the
    exact null distribution (``"exact"``) or the tie-corrected normal
    approximation (``"normal"``).
    """

    u_statistic: float
    p_value: float
    method: str
    n_a: int
    n_b: int


def _check_samples(a: Sequence[float], b: Sequence[float], what: str) -> None:
    if len(a) == 0 or len(b) == 0:
        raise ValueError(
            f"cannot run {what} on empty samples (got n_a={len(a)}, "
            f"n_b={len(b)}); each side needs at least one per-seed value — "
            f"run the experiment with at least one seed per side"
        )
    for name, values in (("A", a), ("B", b)):
        for x in values:
            if x != x:  # NaN comparisons silently corrupt every rank
                raise ValueError(f"sample {name} contains NaN; {what} is undefined")


def _midranks(pooled: Sequence[float]) -> Tuple[List[float], List[int]]:
    """Midranks of ``pooled`` (ties share the average rank) plus the tie
    group sizes (for the normal approximation's tie correction)."""
    order = sorted(range(len(pooled)), key=lambda i: pooled[i])
    ranks = [0.0] * len(pooled)
    tie_sizes: List[int] = []
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and pooled[order[j + 1]] == pooled[order[i]]:
            j += 1
        # Positions i..j (0-based) share the average of ranks i+1..j+1.
        mid = (i + j + 2) / 2.0
        for k in range(i, j + 1):
            ranks[order[k]] = mid
        tie_sizes.append(j - i + 1)
        i = j + 1
    return ranks, tie_sizes


@lru_cache(maxsize=None)
def _exact_u_cdf(n: int, m: int) -> Tuple[float, ...]:
    """``P(U <= u)`` for ``u`` in ``0..n·m`` under the tie-free null.

    Classic DP over the number of arrangements of ``n`` A-ranks among
    ``n + m`` positions achieving each U value:
    ``count(n, m, u) = count(n-1, m, u-m) + count(n, m-1, u)``.
    Cached per ``(n, m)`` so repeated small-sample tests (the calibration
    suite runs thousands) pay the table once.
    """
    max_u = n * m
    # N(u; i, j): arrangements of i A-ranks and j B-ranks with U = u.
    # Condition on the largest pooled value: an A beats all j B's
    # (N(u - j; i-1, j)), a B beats nothing (N(u; i, j-1)).
    # table[j][u] holds N(u; i, j) for the current i.
    table = [[1 if u == 0 else 0 for u in range(max_u + 1)] for _ in range(m + 1)]
    for _ in range(n):  # i = 1..n
        new = [[1 if u == 0 else 0 for u in range(max_u + 1)]]  # j = 0
        for j in range(1, m + 1):
            prev_i = table[j]
            same_i = new[j - 1]
            new.append(
                [
                    same_i[u] + (prev_i[u - j] if u >= j else 0)
                    for u in range(max_u + 1)
                ]
            )
        table = new
    counts_row = table[m]
    total = math.comb(n + m, n)
    cdf: List[float] = []
    running = 0
    for u in range(max_u + 1):
        running += counts_row[u]
        cdf.append(running / total)
    return tuple(cdf)


def mann_whitney_u(
    a: Sequence[float],
    b: Sequence[float],
    *,
    exact_limit: int = EXACT_LIMIT,
) -> MannWhitneyResult:
    """Two-sided Mann-Whitney U test of ``a`` vs ``b``.

    Exact p-value (enumerated null distribution) when both samples have
    at most ``exact_limit`` values and the pooled data is tie-free;
    normal approximation with tie correction and a 0.5 continuity
    correction otherwise.  All-tied pools (zero rank variance) return
    ``p = 1.0`` — no evidence of any difference.
    """
    _check_samples(a, b, "a Mann-Whitney U test")
    n, m = len(a), len(b)
    pooled = list(a) + list(b)
    ranks, tie_sizes = _midranks(pooled)
    rank_sum_a = sum(ranks[:n])
    u_a = rank_sum_a - n * (n + 1) / 2.0
    has_ties = any(size > 1 for size in tie_sizes)

    if not has_ties and n <= exact_limit and m <= exact_limit:
        cdf = _exact_u_cdf(n, m)
        u_int = int(round(u_a))
        u_min = min(u_int, n * m - u_int)
        p = min(1.0, 2.0 * cdf[u_min])
        return MannWhitneyResult(u_a, p, "exact", n, m)

    total = n + m
    mu = n * m / 2.0
    tie_term = sum(t**3 - t for t in tie_sizes)
    variance = n * m / 12.0 * ((total + 1) - tie_term / (total * (total - 1)))
    if variance <= 0:
        # Every pooled value identical: the test carries no information.
        return MannWhitneyResult(u_a, 1.0, "normal", n, m)
    # Continuity correction shrinks |U - mu| by 0.5 (never past zero).
    z = (abs(u_a - mu) - 0.5) / math.sqrt(variance)
    z = max(z, 0.0)
    p = min(1.0, 2.0 * (1.0 - _NORMAL.cdf(z)))
    return MannWhitneyResult(u_a, p, "normal", n, m)


# ----------------------------------------------------------------------
# Effect size
# ----------------------------------------------------------------------
#: Romano et al. magnitude thresholds for |Cliff's delta|.
_MAGNITUDES = ((0.147, "negligible"), (0.33, "small"), (0.474, "medium"))


def cliffs_delta(a: Sequence[float], b: Sequence[float]) -> float:
    """Cliff's delta: ``P(A > B) - P(A < B)`` over all cross pairs.

    ``+1`` means every A value exceeds every B value, ``-1`` the reverse,
    ``0`` perfect overlap.  With lower-is-better metrics, negative delta
    favours A.
    """
    _check_samples(a, b, "Cliff's delta")
    sorted_b = sorted(b)
    n, m = len(a), len(b)
    greater = 0
    less = 0
    # Two binary searches per A value: O((n+m) log m) instead of O(n·m).
    for x in a:
        less += len(sorted_b) - bisect.bisect_right(sorted_b, x)  # b > x
        greater += bisect.bisect_left(sorted_b, x)  # b < x
    return (greater - less) / (n * m)


def effect_magnitude(delta: float) -> str:
    """The conventional label for a Cliff's delta value."""
    magnitude = abs(delta)
    for threshold, label in _MAGNITUDES:
        if magnitude < threshold:
            return label
    return "large"


# ----------------------------------------------------------------------
# Bootstrap confidence intervals
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BootstrapCI:
    """A bootstrap confidence interval for ``statistic(A) - statistic(B)``.

    ``point`` is the observed difference; ``low``/``high`` bound it at the
    given confidence.  ``seed`` is the PRNG seed actually used, so any
    interval can be reproduced exactly.
    """

    low: float
    high: float
    point: float
    confidence: float
    method: str
    resamples: int
    seed: int

    def excludes_zero(self) -> bool:
        """Whether the interval separates the two samples (no overlap
        with "no difference")."""
        return self.low > 0.0 or self.high < 0.0


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def _quantile_of(sorted_values: Sequence[float], q: float) -> float:
    """Empirical quantile of an ascending list (nearest-rank with the
    conventional ``ceil(q·B) - 1`` index, clamped)."""
    b = len(sorted_values)
    index = min(b - 1, max(0, math.ceil(q * b) - 1))
    return sorted_values[index]


def bootstrap_diff_ci(
    a: Sequence[float],
    b: Sequence[float],
    *,
    statistic: Callable[[Sequence[float]], float] = _mean,
    confidence: float = 0.95,
    resamples: int = 2000,
    seed: int = 0,
    method: str = "bca",
) -> BootstrapCI:
    """Bootstrap CI for ``statistic(a) - statistic(b)`` (independent
    resampling of each side).

    ``method="bca"`` (the default) applies bias correction and
    acceleration (jackknife skewness); it falls back to the plain
    percentile interval when a sample is too small to jackknife (fewer
    than two values per side) or the bootstrap distribution is fully
    one-sided.  The PRNG is ``random.Random(seed)`` — deterministic, and
    independent of any global state.
    """
    _check_samples(a, b, "a bootstrap confidence interval")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence!r}")
    if resamples < 10:
        raise ValueError(f"resamples must be >= 10, got {resamples!r}")
    if method not in ("bca", "percentile"):
        raise ValueError(f"method must be 'bca' or 'percentile', got {method!r}")
    rng = random.Random(seed)
    point = statistic(a) - statistic(b)
    thetas = sorted(
        statistic(rng.choices(a, k=len(a))) - statistic(rng.choices(b, k=len(b)))
        for _ in range(resamples)
    )
    tail = (1.0 - confidence) / 2.0
    lo_q, hi_q = tail, 1.0 - tail

    used_method = method
    if method == "bca":
        adjusted = _bca_quantiles(a, b, statistic, point, thetas, lo_q, hi_q)
        if adjusted is None:
            used_method = "percentile"
        else:
            lo_q, hi_q = adjusted
    low = _quantile_of(thetas, lo_q)
    high = _quantile_of(thetas, hi_q)
    return BootstrapCI(low, high, point, confidence, used_method, resamples, seed)


def _bca_quantiles(
    a: Sequence[float],
    b: Sequence[float],
    statistic: Callable[[Sequence[float]], float],
    point: float,
    sorted_thetas: Sequence[float],
    lo_q: float,
    hi_q: float,
) -> Optional[Tuple[float, float]]:
    """BCa-adjusted tail quantiles, or ``None`` when the correction is
    undefined (degenerate bootstrap distribution or un-jackknifeable
    samples) and the percentile interval should be used instead."""
    if len(a) < 2 or len(b) < 2:
        return None
    count = len(sorted_thetas)
    below = sum(1 for t in sorted_thetas if t < point)
    equal = sum(1 for t in sorted_thetas if t == point)
    p0 = (below + 0.5 * equal) / count
    # A fully one-sided distribution makes inv_cdf blow up; percentile
    # handles that regime more honestly than a clamped z0 would.
    if p0 <= 0.0 or p0 >= 1.0:
        return None
    z0 = _NORMAL.inv_cdf(p0)
    # Jackknife over both samples for the acceleration constant.
    jack: List[float] = []
    stat_b = statistic(b)
    for i in range(len(a)):
        jack.append(statistic([x for k, x in enumerate(a) if k != i]) - stat_b)
    stat_a = statistic(a)
    for j in range(len(b)):
        jack.append(stat_a - statistic([x for k, x in enumerate(b) if k != j]))
    jbar = _mean(jack)
    cubes = sum((jbar - v) ** 3 for v in jack)
    squares = sum((jbar - v) ** 2 for v in jack)
    # squares > 0 does not guarantee squares**1.5 > 0: for deviations
    # around 1e-157 the 1.5 power underflows to exactly 0.0.
    denom = 6.0 * squares**1.5
    accel = cubes / denom if denom > 0 else 0.0

    def adjust(q: float) -> float:
        z = _NORMAL.inv_cdf(q)
        denom = 1.0 - accel * (z0 + z)
        if denom <= 0:
            return 1.0 if z0 + z > 0 else 0.0
        adj = _NORMAL.cdf(z0 + (z0 + z) / denom)
        return min(max(adj, 0.0), 1.0)

    return adjust(lo_q), adjust(hi_q)


# ----------------------------------------------------------------------
# Multiple-comparison correction
# ----------------------------------------------------------------------
def holm_bonferroni(
    p_values: Sequence[float], alpha: float = 0.05
) -> List[Tuple[float, bool]]:
    """Holm-Bonferroni step-down correction.

    Returns ``(adjusted_p, reject)`` per input p-value, in input order.
    Adjusted p-values are monotone (``p_adj >= p``), so the corrected
    procedure can never reject a hypothesis the uncorrected tests would
    retain — the family-wise error rate stays at ``alpha``.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha!r}")
    m = len(p_values)
    if m == 0:
        return []
    for p in p_values:
        if not 0.0 <= p <= 1.0 or p != p:
            raise ValueError(f"p-values must be in [0, 1], got {p!r}")
    order = sorted(range(m), key=lambda i: p_values[i])
    adjusted = [0.0] * m
    running_max = 0.0
    for rank, idx in enumerate(order):
        stepped = min(1.0, (m - rank) * p_values[idx])
        running_max = max(running_max, stepped)
        adjusted[idx] = running_max
    return [(adjusted[i], adjusted[i] <= alpha) for i in range(m)]


# ----------------------------------------------------------------------
# Per-seed metric extraction
# ----------------------------------------------------------------------
#: Metric name → extractor over a summary (``SummaryStats`` or the
#: attribute-compatible ``StreamingSummary``).  All lower-is-better.
COMPARE_METRICS: Dict[str, Callable[[Any], float]] = {
    "mean_response_time": lambda s: s.mean_response_time,
    "p50_response_time": lambda s: s.response_time_percentiles[50],
    "p95_response_time": lambda s: s.response_time_percentiles[95],
    "p99_response_time": lambda s: s.response_time_percentiles[99],
    "mean_stretch": lambda s: s.mean_stretch,
    "p99_stretch": lambda s: s.stretch_percentiles[99],
    "cold_starts": lambda s: float(s.cold_starts),
    "makespan": lambda s: s.max_completion_time,
    # Failure-injection accounting (zero on the failure-free path).
    "retries": lambda s: float(s.retries),
    "gave_up": lambda s: float(s.gave_up),
    "failed_calls": lambda s: float(s.failed_calls),
}

#: The acceptance-relevant default family: mean/p99 of both response time
#: and stretch, plus cold starts.
DEFAULT_METRICS: Tuple[str, ...] = (
    "mean_response_time",
    "p99_response_time",
    "mean_stretch",
    "p99_stretch",
    "cold_starts",
)


def summary_of(result: Any) -> Any:
    """Per-seed summary of one :class:`ExperimentResult` in whichever
    mode it ran: exact record-derived statistics when records were
    retained, the constant-size accumulator's view otherwise."""
    if getattr(result, "retained", True):
        return result.summary()
    return result.streaming_summary()


def _resolve_metrics(metrics: Optional[Sequence[str]]) -> Tuple[str, ...]:
    names = tuple(metrics) if metrics is not None else DEFAULT_METRICS
    unknown = [name for name in names if name not in COMPARE_METRICS]
    if unknown:
        raise ValueError(
            f"unknown comparison metric(s) {unknown}; available: "
            f"{', '.join(COMPARE_METRICS)}"
        )
    if not names:
        raise ValueError("at least one comparison metric is required")
    return names


def seed_metric_values(results: Sequence[Any], metric: str) -> List[float]:
    """One value per result (per seed) for ``metric``; the input to every
    test in this module."""
    (name,) = _resolve_metrics((metric,))
    extractor = COMPARE_METRICS[name]
    return [float(extractor(summary_of(result))) for result in results]


def _config_label(config: Any) -> str:
    """A config's label with the seed stripped — the identity of a
    repetition *set*, not of one run."""
    return re.sub(r" seed=\d+", "", config.label())


def derive_seed(*parts: Any) -> int:
    """A deterministic 63-bit PRNG seed from string-able parts (config
    labels, metric names) — stable across processes and Python versions,
    unlike ``hash()``."""
    blob = "\x1f".join(str(part) for part in parts).encode("utf-8")
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big") >> 1


# ----------------------------------------------------------------------
# Comparison results
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MetricComparison:
    """One metric's A-vs-B test battery.

    ``diff = mean_a - mean_b`` (negative favours A: every metric is
    lower-is-better); ``percent_change`` is ``None`` when the B mean is
    zero — there is no honest percentage of a zero baseline.
    ``p_adjusted``/``significant`` reflect the Holm correction across
    whichever family this comparison belongs to (all metrics of one
    :func:`compare_results` call, or the full metric × cell grid of
    :func:`compare_grid`).
    """

    metric: str
    n_a: int
    n_b: int
    mean_a: float
    mean_b: float
    diff: float
    percent_change: Optional[float]
    u_statistic: float
    p_value: float
    method: str
    cliffs_delta: float
    effect_magnitude: str
    ci: BootstrapCI
    p_adjusted: float = 1.0
    significant: bool = False

    def verdict(self, label_a: str, label_b: str) -> str:
        """One plain-language line ("FC beats SEPT on p99_stretch ...")."""
        if not self.significant:
            return (
                f"{label_a} vs {label_b} on {self.metric}: no significant "
                f"difference (p_adj={self.p_adjusted:.3g})"
            )
        winner, loser = (label_a, label_b) if self.diff < 0 else (label_b, label_a)
        return (
            f"{winner} beats {loser} on {self.metric} "
            f"(p_adj={self.p_adjusted:.3g}, Cliff's δ={self.cliffs_delta:+.2f} "
            f"{self.effect_magnitude})"
        )


@dataclass(frozen=True)
class ComparisonResult:
    """A full A-vs-B comparison: one :class:`MetricComparison` per
    metric, Holm-corrected as one family (unless built by
    :func:`compare_grid`, whose family spans every cell)."""

    label_a: str
    label_b: str
    alpha: float
    comparisons: Tuple[MetricComparison, ...]
    #: Which modes the per-seed summaries came from ("retained",
    #: "streaming", or "mixed" — diagnostic only).
    mode: str = "retained"

    def __getitem__(self, metric: str) -> MetricComparison:
        for comparison in self.comparisons:
            if comparison.metric == metric:
                return comparison
        raise KeyError(
            f"metric {metric!r} was not compared; compared: "
            f"{', '.join(c.metric for c in self.comparisons)}"
        )

    def significant(self) -> Tuple[MetricComparison, ...]:
        """The metrics that remain significant after correction."""
        return tuple(c for c in self.comparisons if c.significant)

    def all_separated(self, metrics: Optional[Sequence[str]] = None) -> bool:
        """Whether every requested metric is significant after correction
        *and* its CI excludes zero — the adaptive allocator's stopping
        rule."""
        names = set(metrics) if metrics is not None else {
            c.metric for c in self.comparisons
        }
        chosen = [c for c in self.comparisons if c.metric in names]
        if not chosen:
            raise ValueError(f"no compared metric among {sorted(names)}")
        return all(c.significant and c.ci.excludes_zero() for c in chosen)

    def render(self, title: Optional[str] = None) -> str:
        """An aligned table plus one verdict line per metric."""
        if title is None:
            sig = sum(1 for c in self.comparisons if c.significant)
            title = (
                f"{self.label_a}  vs  {self.label_b}  "
                f"(n={self.comparisons[0].n_a} vs {self.comparisons[0].n_b} "
                f"seeds, α={self.alpha:g}, Holm-corrected: "
                f"{sig}/{len(self.comparisons)} significant, {self.mode} mode)"
            )
        table = format_table(
            _COMPARISON_HEADERS,
            [_comparison_row(c) for c in self.comparisons],
            title=title,
        )
        verdicts = "\n".join(
            "  " + c.verdict(self.label_a, self.label_b) for c in self.comparisons
        )
        return table + "\n\n" + verdicts


_COMPARISON_HEADERS = (
    "metric",
    "A",
    "B",
    "Δ%",
    "U",
    "p",
    "p(holm)",
    "δ",
    "effect",
    "CI(Δ)",
    "sig",
)


def _comparison_row(c: MetricComparison) -> List[object]:
    percent = "n/a (B=0)" if c.percent_change is None else f"{c.percent_change:+.1f}%"
    ci = f"[{c.ci.low:+.3g}, {c.ci.high:+.3g}]"
    return [
        c.metric,
        c.mean_a,
        c.mean_b,
        percent,
        c.u_statistic,
        f"{c.p_value:.3g}",
        f"{c.p_adjusted:.3g}",
        f"{c.cliffs_delta:+.2f}",
        c.effect_magnitude,
        ci,
        "yes" if c.significant else "-",
    ]


def _raw_metric_comparison(
    values_a: Sequence[float],
    values_b: Sequence[float],
    metric: str,
    *,
    confidence: float,
    resamples: int,
    ci_method: str,
    seed: int,
) -> MetricComparison:
    test = mann_whitney_u(values_a, values_b)
    delta = cliffs_delta(values_a, values_b)
    ci = bootstrap_diff_ci(
        values_a,
        values_b,
        confidence=confidence,
        resamples=resamples,
        seed=seed,
        method=ci_method,
    )
    mean_a, mean_b = _mean(values_a), _mean(values_b)
    diff = mean_a - mean_b
    percent = None if mean_b == 0 else (diff / abs(mean_b)) * 100.0
    return MetricComparison(
        metric=metric,
        n_a=len(values_a),
        n_b=len(values_b),
        mean_a=mean_a,
        mean_b=mean_b,
        diff=diff,
        percent_change=percent,
        u_statistic=test.u_statistic,
        p_value=test.p_value,
        method=test.method,
        cliffs_delta=delta,
        effect_magnitude=effect_magnitude(delta),
        ci=ci,
    )


def _apply_holm(
    comparisons: Sequence[MetricComparison], alpha: float
) -> List[MetricComparison]:
    corrected = holm_bonferroni([c.p_value for c in comparisons], alpha)
    return [
        replace(c, p_adjusted=p_adj, significant=reject)
        for c, (p_adj, reject) in zip(comparisons, corrected)
    ]


def _results_mode(results: Sequence[Any]) -> str:
    modes = {
        "retained" if getattr(r, "retained", True) else "streaming" for r in results
    }
    return modes.pop() if len(modes) == 1 else "mixed"


def compare_samples(
    values_a: Mapping[str, Sequence[float]],
    values_b: Mapping[str, Sequence[float]],
    *,
    label_a: str = "A",
    label_b: str = "B",
    alpha: float = 0.05,
    confidence: float = 0.95,
    resamples: int = 2000,
    ci_method: str = "bca",
    seed: Optional[int] = None,
) -> ComparisonResult:
    """Compare raw per-metric sample mappings (the low-level entry point:
    ``tools/bench_compare.py`` feeds benchmark timings through here).

    Both mappings must share the same metric names; Holm correction runs
    across that family.  ``seed=None`` derives a deterministic seed per
    metric from the labels — reruns reproduce the same intervals.
    """
    if set(values_a) != set(values_b):
        raise ValueError(
            f"metric sets differ: A has {sorted(values_a)}, B has "
            f"{sorted(values_b)}"
        )
    if not values_a:
        raise ValueError("cannot compare zero metrics")
    raw = [
        _raw_metric_comparison(
            list(values_a[metric]),
            list(values_b[metric]),
            metric,
            confidence=confidence,
            resamples=resamples,
            ci_method=ci_method,
            seed=seed if seed is not None else derive_seed(label_a, label_b, metric),
        )
        for metric in values_a
    ]
    return ComparisonResult(
        label_a=label_a,
        label_b=label_b,
        alpha=alpha,
        comparisons=tuple(_apply_holm(raw, alpha)),
        mode="samples",
    )


def compare_results(
    results_a: Sequence[Any],
    results_b: Sequence[Any],
    *,
    metrics: Optional[Sequence[str]] = None,
    alpha: float = 0.05,
    confidence: float = 0.95,
    resamples: int = 2000,
    ci_method: str = "bca",
    seed: Optional[int] = None,
    label_a: Optional[str] = None,
    label_b: Optional[str] = None,
) -> ComparisonResult:
    """Compare two repetition runs (sequences of per-seed
    :class:`~repro.experiments.runner.ExperimentResult`).

    Per-seed metric values come from each result's exact summary when
    records were retained and from its streaming accumulator otherwise —
    pass results from either mode (or a mix).  The Holm family is the
    requested metric set.  ``seed=None`` derives the bootstrap seed from
    the config labels and metric name, so the same comparison always
    yields the same intervals ("config-seeded").
    """
    if len(results_a) == 0 or len(results_b) == 0:
        raise ValueError(
            "cannot compare empty result sets; run at least one seed per side "
            "(run_repetitions(config, seeds=...))"
        )
    names = _resolve_metrics(metrics)
    label_a = label_a if label_a is not None else _config_label(results_a[0].config)
    label_b = label_b if label_b is not None else _config_label(results_b[0].config)
    summaries_a = [summary_of(r) for r in results_a]
    summaries_b = [summary_of(r) for r in results_b]
    raw = [
        _raw_metric_comparison(
            [float(COMPARE_METRICS[name](s)) for s in summaries_a],
            [float(COMPARE_METRICS[name](s)) for s in summaries_b],
            name,
            confidence=confidence,
            resamples=resamples,
            ci_method=ci_method,
            seed=seed if seed is not None else derive_seed(label_a, label_b, name),
        )
        for name in names
    ]
    mode_a = _results_mode(results_a)
    mode_b = _results_mode(results_b)
    return ComparisonResult(
        label_a=label_a,
        label_b=label_b,
        alpha=alpha,
        comparisons=tuple(_apply_holm(raw, alpha)),
        mode=mode_a if mode_a == mode_b else "mixed",
    )


# ----------------------------------------------------------------------
# Grid comparison
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GridComparison:
    """Two strategies compared across every grid cell they share, with
    Holm correction across the **entire metric × cell family** — 15 cells
    × 5 metrics is 75 chances for a spurious p < 0.05; the correction is
    what makes "significant" mean something at grid scale."""

    strategy_a: str
    strategy_b: str
    alpha: float
    #: ``(cell_label, per-cell ComparisonResult)`` in grid run order; the
    #: per-cell ``significant`` flags already reflect the grid-wide
    #: correction.
    cells: Tuple[Tuple[str, ComparisonResult], ...]
    #: ``(key_a, key_b)`` grid cell keys aligned with :attr:`cells`, so
    #: callers can map each comparison back to its grid cells (e.g. to
    #: annotate a summary table).
    keys: Tuple[Tuple[Any, Any], ...] = ()

    def total_comparisons(self) -> int:
        return sum(len(result.comparisons) for _, result in self.cells)

    def significant(self) -> List[Tuple[str, MetricComparison]]:
        """Every (cell label, metric comparison) still significant after
        the grid-wide correction."""
        return [
            (label, comparison)
            for label, result in self.cells
            for comparison in result.comparisons
            if comparison.significant
        ]

    def render(self) -> str:
        sig = len(self.significant())
        title = (
            f"{self.strategy_a}  vs  {self.strategy_b}  across "
            f"{len(self.cells)} cells (α={self.alpha:g}, Holm-corrected over "
            f"{self.total_comparisons()} metric×cell tests: {sig} significant)"
        )
        headers = ("cell",) + _COMPARISON_HEADERS
        rows = [
            [label] + _comparison_row(comparison)
            for label, result in self.cells
            for comparison in result.comparisons
        ]
        table = format_table(headers, rows, title=title)
        verdicts = [
            f"  [{label}] {comparison.verdict(self.strategy_a, self.strategy_b)}"
            for label, comparison in self.significant()
        ]
        if not verdicts:
            verdicts = ["  no metric×cell comparison is significant after correction"]
        return table + "\n\n" + "\n".join(verdicts)


def compare_grid(
    grid: Any,
    strategy_a: str,
    strategy_b: str,
    *,
    metrics: Optional[Sequence[str]] = None,
    alpha: float = 0.05,
    confidence: float = 0.95,
    resamples: int = 2000,
    ci_method: str = "bca",
) -> GridComparison:
    """Compare two swept strategies inside one
    :class:`~repro.experiments.grid.GridResults`.

    For every ``(cores, intensity[, nodes, balancer])`` cell holding both
    strategies, each metric's per-seed distributions are tested; Holm
    correction then runs across **all** metric × cell p-values at once.
    """
    names = _resolve_metrics(metrics)
    strategies = set(grid.spec.strategies)
    missing = [s for s in (strategy_a, strategy_b) if s not in strategies]
    if missing:
        raise ValueError(
            f"strateg{'y' if len(missing) == 1 else 'ies'} {missing} not in "
            f"this grid; swept: {', '.join(grid.spec.strategies)}"
        )
    if strategy_a == strategy_b:
        raise ValueError(f"comparing {strategy_a!r} against itself is vacuous")

    pairs: List[Tuple[str, Any, Any]] = []
    for key in grid.cell_keys():
        if key[2] != strategy_a:
            continue
        partner = key[:2] + (strategy_b,) + key[3:]
        if partner in grid.cells:
            label = re.sub(
                rf" {re.escape(strategy_a)}( |$)", r"\1", grid.cell_label(key)
            ).strip()
            pairs.append((label, key, partner))
    if not pairs:
        raise ValueError(
            f"no grid cell holds both {strategy_a!r} and {strategy_b!r}"
        )

    # Build every raw comparison first, then correct across the family.
    cell_raw: List[Tuple[str, str, List[MetricComparison]]] = []
    for label, key_a, key_b in pairs:
        results_a = grid.results_for(key_a)
        summaries_a = [summary_of(r) for r in results_a]
        summaries_b = [summary_of(r) for r in grid.results_for(key_b)]
        raw = [
            _raw_metric_comparison(
                [float(COMPARE_METRICS[name](s)) for s in summaries_a],
                [float(COMPARE_METRICS[name](s)) for s in summaries_b],
                name,
                confidence=confidence,
                resamples=resamples,
                ci_method=ci_method,
                seed=derive_seed(strategy_a, strategy_b, label, name),
            )
            for name in names
        ]
        cell_raw.append((label, _results_mode(results_a), raw))

    flat = [comparison for _, _, raw in cell_raw for comparison in raw]
    corrected = _apply_holm(flat, alpha)
    cells: List[Tuple[str, ComparisonResult]] = []
    cursor = 0
    for label, mode, raw in cell_raw:
        chunk = tuple(corrected[cursor : cursor + len(raw)])
        cursor += len(raw)
        cells.append(
            (
                label,
                ComparisonResult(
                    label_a=strategy_a,
                    label_b=strategy_b,
                    alpha=alpha,
                    comparisons=chunk,
                    mode=mode,
                ),
            )
        )
    return GridComparison(
        strategy_a=strategy_a,
        strategy_b=strategy_b,
        alpha=alpha,
        cells=tuple(cells),
        keys=tuple((key_a, key_b) for _, key_a, key_b in pairs),
    )
