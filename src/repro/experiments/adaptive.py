"""Adaptive seed allocation: spend repetitions only where they decide.

The paper's protocol runs a fixed 5 seeds per cell.  With the significance
machinery of :mod:`repro.metrics.compare`, a fixed count is both wasteful
and under-powered: a pair of policies that separates cleanly after 5 seeds
needs no more, while a close pair may need 20+ before its corrected CIs
stop overlapping.  This module runs repetitions in batches and stops a
pair as soon as every decision metric is significant after Holm
correction *and* its bootstrap CI excludes zero
(:meth:`~repro.metrics.compare.ComparisonResult.all_separated`), up to a
hard ``max_seeds`` budget.

Two entry points:

* :func:`allocate_seeds` — one config pair (the adaptive counterpart of
  :func:`~repro.experiments.runner.run_repetitions` run twice);
* :func:`run_adaptive_grid` — a :class:`~repro.experiments.grid.GridSpec`
  whose strategies are compared pairwise per (cores, intensity) cell,
  sharing each strategy's runs across the pairs that reference it.

Both route every simulation through
:func:`~repro.experiments.parallel.run_configs`, so ``jobs``/``cache_dir``
give the usual worker pool and on-disk cache, and results are bit-identical
to the fixed-seed path for the seeds actually run.  Nothing here touches
the cache schema: adaptive allocation only *chooses which configs to run*;
each run is cached under its ordinary config fingerprint.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.experiments.config import ExperimentConfig
from repro.experiments.grid import GridSpec
from repro.experiments.parallel import run_configs
from repro.experiments.runner import ExperimentResult
from repro.metrics.compare import ComparisonResult, compare_results

__all__ = [
    "AdaptiveAllocation",
    "AdaptiveGridResult",
    "DEFAULT_DECISION_METRICS",
    "allocate_seeds",
    "run_adaptive_grid",
]

#: Metrics that must separate before a pair stops early.  Deliberately a
#: single headline metric — every added metric enlarges the Holm family
#: and therefore the seed budget needed to converge — and deliberately
#: stretch, the paper's ranking metric (Table IV): per-seed mean stretch
#: separates policies far earlier than the outlier-prone mean response
#: time.
DEFAULT_DECISION_METRICS = ("mean_stretch",)


class _RunStore:
    """Lazily extended per-seed results for one seedless config.

    Seeds are taken from ``seed_sequence`` in order; ``take(n)`` runs only
    the missing prefix, so pairs sharing a strategy share its runs."""

    def __init__(
        self,
        base: ExperimentConfig,
        seed_sequence: Tuple[int, ...],
        *,
        jobs: int = 1,
        cache_dir: Optional[Union[str, Path]] = None,
        executor: str = "local",
    ) -> None:
        self.base = base
        self.seed_sequence = seed_sequence
        self.jobs = jobs
        self.cache_dir = cache_dir
        self.executor = executor
        self.results: List[ExperimentResult] = []
        #: Simulations actually launched through this store (cache hits
        #: included: they still occupy budget in the fixed-seed protocol).
        self.runs = 0

    def take(self, n: int) -> List[ExperimentResult]:
        if n > len(self.seed_sequence):
            raise ValueError(
                f"requested {n} seeds but the sequence holds only "
                f"{len(self.seed_sequence)}"
            )
        missing = self.seed_sequence[len(self.results) : n]
        if missing:
            self.results.extend(
                run_configs(
                    [self.base.with_(seed=seed) for seed in missing],
                    jobs=self.jobs,
                    cache_dir=self.cache_dir,
                    executor=self.executor,
                )
            )
            self.runs += len(missing)
        return self.results[:n]


@dataclass(frozen=True)
class AdaptiveAllocation:
    """Outcome of one adaptively seeded pair comparison."""

    #: The final comparison over every seed that was run.
    comparison: ComparisonResult
    #: Per-seed results actually run, in seed order.
    results_a: Tuple[ExperimentResult, ...]
    results_b: Tuple[ExperimentResult, ...]
    #: The seeds used (a prefix of the requested sequence).
    seeds: Tuple[int, ...]
    #: Whether the pair separated before exhausting ``max_seeds``.
    converged: bool
    #: ``(n_seeds, separated)`` per comparison round, for diagnostics.
    rounds: Tuple[Tuple[int, bool], ...]
    #: Simulations launched (both sides) vs. the fixed-``max_seeds`` cost.
    total_runs: int = 0
    fixed_equivalent_runs: int = 0

    @property
    def runs_saved(self) -> int:
        """How many simulations the early stop avoided."""
        return self.fixed_equivalent_runs - self.total_runs

    def describe(self) -> str:
        state = "converged" if self.converged else "budget exhausted"
        return (
            f"{self.comparison.label_a} vs {self.comparison.label_b}: "
            f"{state} after {len(self.seeds)} seeds "
            f"({self.total_runs}/{self.fixed_equivalent_runs} runs, "
            f"{self.runs_saved} saved)"
        )


def _validate_budget(initial_seeds: int, max_seeds: int, batch: int) -> None:
    if initial_seeds < 2:
        raise ValueError(
            f"initial_seeds must be >= 2 (got {initial_seeds}): a one-seed "
            f"sample has no distribution to test"
        )
    if batch < 1:
        raise ValueError(f"batch must be >= 1 (got {batch})")
    if max_seeds < initial_seeds:
        raise ValueError(
            f"max_seeds ({max_seeds}) must be >= initial_seeds "
            f"({initial_seeds})"
        )


def _resolve_seed_sequence(
    seeds: Optional[Sequence[int]], max_seeds: int
) -> Tuple[int, ...]:
    if seeds is None:
        return tuple(range(1, max_seeds + 1))
    sequence = tuple(seeds)
    if len(set(sequence)) != len(sequence):
        raise ValueError(f"seed sequence contains duplicates: {sequence}")
    if len(sequence) < max_seeds:
        # Extend past the explicit seeds with fresh integers so the budget
        # stays reachable while the given prefix (and its cache entries)
        # is reused verbatim.
        extra = []
        candidate = max(sequence) + 1
        while len(sequence) + len(extra) < max_seeds:
            if candidate not in sequence:
                extra.append(candidate)
            candidate += 1
        sequence = sequence + tuple(extra)
    return sequence


def _adaptive_pair(
    store_a: _RunStore,
    store_b: _RunStore,
    *,
    decision_metrics: Sequence[str],
    initial_seeds: int,
    max_seeds: int,
    batch: int,
    alpha: float,
    confidence: float,
    resamples: int,
    ci_method: str,
) -> AdaptiveAllocation:
    runs_before = store_a.runs + store_b.runs
    n = initial_seeds
    rounds: List[Tuple[int, bool]] = []
    while True:
        results_a = store_a.take(n)
        results_b = store_b.take(n)
        comparison = compare_results(
            results_a,
            results_b,
            metrics=decision_metrics,
            alpha=alpha,
            confidence=confidence,
            resamples=resamples,
            ci_method=ci_method,
        )
        separated = comparison.all_separated()
        rounds.append((n, separated))
        if separated or n >= max_seeds:
            return AdaptiveAllocation(
                comparison=comparison,
                results_a=tuple(results_a),
                results_b=tuple(results_b),
                seeds=store_a.seed_sequence[:n],
                converged=separated,
                rounds=tuple(rounds),
                total_runs=(store_a.runs + store_b.runs) - runs_before,
                fixed_equivalent_runs=2 * max_seeds,
            )
        n = min(n + batch, max_seeds)


def allocate_seeds(
    config_a: ExperimentConfig,
    config_b: ExperimentConfig,
    *,
    decision_metrics: Sequence[str] = DEFAULT_DECISION_METRICS,
    seeds: Optional[Sequence[int]] = None,
    initial_seeds: int = 5,
    max_seeds: int = 20,
    batch: int = 5,
    alpha: float = 0.05,
    confidence: float = 0.95,
    resamples: int = 1000,
    ci_method: str = "bca",
    jobs: int = 1,
    cache_dir: Optional[Union[str, Path]] = None,
    executor: str = "local",
) -> AdaptiveAllocation:
    """Run repetitions of two configs in batches until they separate.

    Starts with ``initial_seeds`` repetitions of each config (the paper's
    fixed protocol), then adds ``batch`` more at a time while the
    Holm-corrected comparison on ``decision_metrics`` still fails
    :meth:`~repro.metrics.compare.ComparisonResult.all_separated`, up to
    ``max_seeds`` per side.  ``seeds`` overrides the seed sequence
    (default ``1..max_seeds``); an explicit sequence shorter than
    ``max_seeds`` is extended with fresh integers.

    The returned allocation's :attr:`~AdaptiveAllocation.total_runs` vs.
    :attr:`~AdaptiveAllocation.fixed_equivalent_runs` quantifies what the
    early stop saved over always running ``max_seeds`` seeds per side.
    """
    _validate_budget(initial_seeds, max_seeds, batch)
    sequence = _resolve_seed_sequence(seeds, max_seeds)
    store_a = _RunStore(config_a, sequence, jobs=jobs, cache_dir=cache_dir, executor=executor)
    store_b = _RunStore(config_b, sequence, jobs=jobs, cache_dir=cache_dir, executor=executor)
    return _adaptive_pair(
        store_a,
        store_b,
        decision_metrics=decision_metrics,
        initial_seeds=initial_seeds,
        max_seeds=max_seeds,
        batch=batch,
        alpha=alpha,
        confidence=confidence,
        resamples=resamples,
        ci_method=ci_method,
    )


@dataclass
class AdaptiveGridResult:
    """Pairwise adaptive comparisons over a grid.

    Keys are ``(cores, intensity, strategy_a, strategy_b)``.
    """

    spec: GridSpec
    allocations: Dict[Tuple[int, int, str, str], AdaptiveAllocation]
    #: Simulations launched across the whole grid (shared runs counted
    #: once) vs. running every involved strategy at ``max_seeds`` seeds.
    total_runs: int = 0
    fixed_equivalent_runs: int = 0
    max_seeds: int = 0

    @property
    def runs_saved(self) -> int:
        return self.fixed_equivalent_runs - self.total_runs

    def converged(self) -> List[Tuple[int, int, str, str]]:
        """The pairs that separated within budget."""
        return [k for k, a in self.allocations.items() if a.converged]

    def render(self) -> str:
        lines = [
            f"adaptive grid: {self.total_runs}/{self.fixed_equivalent_runs} "
            f"runs ({self.runs_saved} saved vs. fixed "
            f"{self.max_seeds}-seed protocol)"
        ]
        for (cores, intensity, _a, _b), allocation in self.allocations.items():
            lines.append(f"  c={cores} v={intensity} {allocation.describe()}")
        return "\n".join(lines)


def _strategy_pairs(
    strategies: Sequence[str], pairs: Optional[Sequence[Tuple[str, str]]]
) -> List[Tuple[str, str]]:
    if pairs is None:
        if len(strategies) < 2:
            raise ValueError(
                f"adaptive grid needs at least two strategies to compare "
                f"(got {tuple(strategies)})"
            )
        # Reference-vs-rest: the first strategy is the baseline of every
        # pair, mirroring the paper's "policy X vs the field" reading.
        return [(strategies[0], other) for other in strategies[1:]]
    resolved = [tuple(pair) for pair in pairs]
    known = set(strategies)
    for pair in resolved:
        if len(pair) != 2 or pair[0] == pair[1]:
            raise ValueError(f"not a comparable strategy pair: {pair!r}")
        missing = [s for s in pair if s not in known]
        if missing:
            raise ValueError(
                f"pair {pair!r} names strategies {missing} absent from the "
                f"spec's strategies {tuple(strategies)}"
            )
    return resolved


def run_adaptive_grid(
    spec: GridSpec,
    *,
    pairs: Optional[Sequence[Tuple[str, str]]] = None,
    decision_metrics: Sequence[str] = DEFAULT_DECISION_METRICS,
    max_seeds: int = 20,
    batch: int = 5,
    alpha: float = 0.05,
    confidence: float = 0.95,
    resamples: int = 1000,
    ci_method: str = "bca",
    jobs: int = 1,
    cache_dir: Optional[Union[str, Path]] = None,
    executor: str = "local",
) -> AdaptiveGridResult:
    """Adaptively seed every strategy pair of a grid.

    For each ``(cores, intensity)`` cell and each strategy pair (default:
    ``spec.strategies[0]`` vs. each of the rest; override with ``pairs``),
    runs :func:`allocate_seeds` starting from the spec's own seed tuple
    and extending by ``batch`` up to ``max_seeds``.  A strategy appearing
    in several pairs shares its runs — the budget accounting counts each
    simulation once.

    Only classic single-topology grids are supported: a cluster sweep
    multiplies every pair by its topologies, which deserves explicit
    per-topology comparisons instead.
    """
    if spec.has_cluster_sweep:
        raise ValueError(
            "run_adaptive_grid needs a single-topology GridSpec; compare "
            "cluster variants with compare_grid over an ordinary run_grid"
        )
    _validate_budget(len(spec.seeds), max_seeds, batch)
    strategy_pairs = _strategy_pairs(spec.strategies, pairs)
    sequence = _resolve_seed_sequence(spec.seeds, max_seeds)
    policy_params = spec.policy_params_by_strategy()
    (variant,) = spec.cluster_variants()

    stores: Dict[Tuple[int, int, str], _RunStore] = {}

    def store_for(cores: int, intensity: int, strategy: str) -> _RunStore:
        key = (cores, intensity, strategy)
        if key not in stores:
            stores[key] = _RunStore(
                ExperimentConfig(
                    cores=cores,
                    intensity=intensity,
                    policy=strategy,
                    scenario=spec.scenario,
                    scenario_params=spec.scenario_params,
                    policy_params=policy_params[strategy],
                    cluster=variant,
                    retain_records=spec.retain_records,
                ),
                sequence,
                jobs=jobs,
                cache_dir=cache_dir,
                executor=executor,
            )
        return stores[key]

    allocations: Dict[Tuple[int, int, str, str], AdaptiveAllocation] = {}
    for cores in spec.cores:
        for intensity in spec.intensities:
            for strategy_a, strategy_b in strategy_pairs:
                allocations[(cores, intensity, strategy_a, strategy_b)] = (
                    _adaptive_pair(
                        store_for(cores, intensity, strategy_a),
                        store_for(cores, intensity, strategy_b),
                        decision_metrics=decision_metrics,
                        initial_seeds=len(spec.seeds),
                        max_seeds=max_seeds,
                        batch=batch,
                        alpha=alpha,
                        confidence=confidence,
                        resamples=resamples,
                        ci_method=ci_method,
                    )
                )
    return AdaptiveGridResult(
        spec=spec,
        allocations=allocations,
        total_runs=sum(store.runs for store in stores.values()),
        fixed_equivalent_runs=len(stores) * max_seeds,
        max_seeds=max_seeds,
    )
