"""The paper's experiment grid (Sects. V–VII), plus the cluster dimension.

The grid spans cores × intensity × strategy × 5 seeds.  Tables II–IV and
Figures 3–4 (and appendix Figures 7–36) are all views over this grid, so
the runner caches results per cell and the artifact modules slice them.

Beyond the paper, a :class:`GridSpec` can also sweep the *cluster*
dimension — node count × balancer flavour (Sect. VIII elevated into the
grid): every cell then runs on each requested topology, cached and
parallelized exactly like the single-node cells.  When only one topology
is requested (the default), cell keys keep their historical
``(cores, intensity, strategy)`` form; a genuine cluster sweep extends
them to ``(cores, intensity, strategy, nodes, balancer)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.cluster.spec import ClusterSpec
from repro.experiments.config import BASELINE, ExperimentConfig
from repro.failures.spec import FAILURE_NONE, FailureSpec
from repro.experiments.parallel import EngineStats, ProgressCallback, run_configs
from repro.experiments.runner import ExperimentResult
from repro.metrics.records import CallRecord
from repro.metrics.stats import BoxStats, SummaryStats, box_stats, summarize
from repro.metrics.streaming import (
    StreamingSummary,
    SummaryAccumulator,
    merge_accumulators,
)

__all__ = [
    "GridSpec",
    "GridResults",
    "run_grid",
    "PAPER_CORES",
    "PAPER_INTENSITIES",
    "PAPER_STRATEGIES",
    "FIGURE_CORES",
    "FIGURE_INTENSITIES",
]

#: The full grid of the paper's Table III.
PAPER_CORES = (5, 10, 20)
PAPER_INTENSITIES = (30, 40, 60, 90, 120)
#: Strategy order used throughout the paper's figures.
PAPER_STRATEGIES = (BASELINE, "FIFO", "SEPT", "EECT", "RECT", "FC")
#: The subsets shown in the main-body Figures 3 and 4.
FIGURE_CORES = (10, 20)
FIGURE_INTENSITIES = (30, 40, 60)

#: A grid cell key: ``(cores, intensity, strategy)`` historically, or
#: ``(cores, intensity, strategy, nodes, balancer)`` under a cluster sweep.
CellKey = Union[Tuple[int, int, str], Tuple[int, int, str, int, str]]


@dataclass(frozen=True)
class GridSpec:
    """Which slice of the grid to run, and under which workload/topology.

    ``scenario``/``scenario_params`` select a registered workload scenario
    (default: the paper's ``uniform`` burst) applied to every cell — so any
    scenario from ``faas-sched scenarios`` can be swept over the full
    cores × intensity × strategy × seed grid, cached and parallelized like
    the paper's own workload.

    ``strategies`` name registered scheduling policies (or ``baseline``);
    ``policy_params`` reach each swept strategy filtered to the
    parameters it declares, so a sweep can mix parameterized and
    parameterless policies (e.g. ``strategies=("FC", "SEPT-EMA")`` with
    ``policy_params=(("window", 5),)``) — a parameter no swept strategy
    declares is a typo and is rejected before any run.

    ``nodes``/``balancers`` (plus ``balancer_params``/``autoscale``) sweep
    the cluster topology the same way: every cell runs once per
    ``nodes × balancers`` combination.  The defaults request exactly the
    classic single-node topology, keeping cell keys and results identical
    to the historical grid.

    ``retain_records=False`` runs every cell in streaming mode: results
    carry only the constant-size accumulator, record-derived grid views
    raise :class:`~repro.experiments.runner.RecordsNotRetainedError`, and
    the ``streaming_summary*`` views take over (exact counts/means/
    makespans, sketched percentiles) — the memory-bounded spelling for
    million-invocation sweeps.
    """

    cores: Tuple[int, ...] = PAPER_CORES
    intensities: Tuple[int, ...] = PAPER_INTENSITIES
    strategies: Tuple[str, ...] = PAPER_STRATEGIES
    seeds: Tuple[int, ...] = (1, 2, 3, 4, 5)
    scenario: str = "uniform"
    scenario_params: Tuple[Tuple[str, Any], ...] = ()
    #: Scheduling-policy parameters, applied to every swept strategy that
    #: declares them (validated per policy at config construction).
    policy_params: Tuple[Tuple[str, Any], ...] = ()
    #: Cluster sweep: node counts × balancer flavours.
    nodes: Tuple[int, ...] = (1,)
    balancers: Tuple[str, ...] = ("least-loaded",)
    #: Balancer constructor kwargs, applied to every swept balancer that
    #: declares them (validated per flavour at config construction).
    balancer_params: Tuple[Tuple[str, Any], ...] = ()
    #: Attach the reactive autoscaler (default config) to every topology.
    autoscale: bool = False
    #: Fault regime applied to every cell (node crashes, container kills,
    #: stragglers, timeout/retry policy — see docs/FAILURES.md).  A mapping
    #: of :class:`~repro.failures.spec.FailureSpec` fields is accepted and
    #: normalised; the default keeps the failure-free historical path.
    failures: FailureSpec = FAILURE_NONE
    #: ``False`` runs every cell in streaming (constant-memory) mode.
    retain_records: bool = True

    def __post_init__(self) -> None:
        # Normalise like ExperimentConfig: one canonical (hashable,
        # fingerprintable) FailureSpec per fault regime.
        if self.failures is None:
            object.__setattr__(self, "failures", FAILURE_NONE)
        elif isinstance(self.failures, Mapping):
            object.__setattr__(self, "failures", FailureSpec(**dict(self.failures)))
        elif not isinstance(self.failures, FailureSpec):
            raise ValueError(
                f"failures must be a FailureSpec or a mapping of its fields, "
                f"got {type(self.failures).__name__}"
            )

    @classmethod
    def quick(cls) -> "GridSpec":
        """A scaled-down slice for smoke tests and default bench runs."""
        return cls(
            cores=(10,),
            intensities=(30, 60),
            strategies=(BASELINE, "FIFO", "SEPT", "FC"),
            seeds=(1,),
        )

    def cells(self) -> Iterable[Tuple[int, int, str]]:
        for cores in self.cores:
            for intensity in self.intensities:
                for strategy in self.strategies:
                    yield cores, intensity, strategy

    def cluster_variants(self) -> Tuple[ClusterSpec, ...]:
        """The swept cluster topologies (``nodes × balancers`` product),
        validated — a bad balancer name/param fails before any run.

        ``balancer_params`` reach each swept flavour filtered to the
        parameters it declares (so ``--balancer least-loaded power-of-d
        --balancer-param d=3`` works), but a parameter no swept flavour
        declares is a typo and is rejected outright.

        Memoized per spec: grid views look topologies up per cell, and
        building and validating one ClusterSpec per variant is too heavy
        to repeat O(cells) times on a frozen value.
        """
        cached = getattr(self, "_variants_cache", None)
        if cached is not None:
            return cached
        variants = self._build_cluster_variants()
        # Frozen dataclass: memo via object.__setattr__; not a field, so
        # equality/hash/serialization are unaffected.
        object.__setattr__(self, "_variants_cache", variants)
        return variants

    def _build_cluster_variants(self) -> Tuple[ClusterSpec, ...]:
        from repro.cluster.controller import BALANCERS

        declared_by = {name: set(BALANCERS.get(name).param_names()) for name in self.balancers}
        supplied = {name for name, _ in self.balancer_params}
        unknown = sorted(supplied - set().union(*declared_by.values(), set()))
        if unknown:
            raise ValueError(
                f"balancer parameter(s) {unknown} are not declared by any "
                f"swept balancer ({', '.join(self.balancers)})"
            )
        return tuple(
            ClusterSpec(
                nodes=nodes,
                balancer=balancer,
                balancer_params=tuple(
                    (name, value)
                    for name, value in self.balancer_params
                    if name in declared_by[balancer]
                ),
                autoscaler=() if self.autoscale else None,
            )
            for nodes in self.nodes
            for balancer in self.balancers
        )

    def policy_params_by_strategy(self) -> Dict[str, Tuple[Tuple[str, Any], ...]]:
        """``strategy -> policy_params`` for every swept strategy, with
        ``policy_params`` filtered to the parameters each registered
        policy declares (``baseline`` declares none).

        Validates strategy names against the policy registry and rejects
        a supplied parameter no swept strategy declares — both before any
        simulation time is spent.
        """
        from repro.scheduling.registry import get_policy

        declared_by = {
            strategy: (
                set() if strategy.lower() == BASELINE else set(get_policy(strategy).param_names())
            )
            for strategy in self.strategies
        }
        supplied = {name for name, _ in self.policy_params}
        unknown = sorted(supplied - set().union(*declared_by.values(), set()))
        if unknown:
            raise ValueError(
                f"policy parameter(s) {unknown} are not declared by any "
                f"swept strategy ({', '.join(self.strategies)})"
            )
        return {
            strategy: tuple(
                (name, value)
                for name, value in self.policy_params
                if name in declared
            )
            for strategy, declared in declared_by.items()
        }

    @property
    def has_cluster_sweep(self) -> bool:
        """True when more than one topology is requested — cell keys then
        carry the ``(nodes, balancer)`` suffix."""
        return len(self.nodes) * len(self.balancers) > 1

    def cell_keys(self) -> List[CellKey]:
        """Every cell key of this spec, in run order."""
        variants = self.cluster_variants()  # validated once, not per cell
        keys: List[CellKey] = []
        for cores, intensity, strategy in self.cells():
            for variant in variants:
                if self.has_cluster_sweep:
                    keys.append(
                        (cores, intensity, strategy, variant.nodes, variant.balancer)
                    )
                else:
                    keys.append((cores, intensity, strategy))
        return keys


@dataclass
class GridResults:
    """Results keyed by cell -> one result per seed.

    Keys are ``(cores, intensity, strategy)`` tuples on classic grids and
    ``(cores, intensity, strategy, nodes, balancer)`` tuples when the
    spec sweeps more than one cluster topology (see
    :attr:`GridSpec.has_cluster_sweep`).
    """

    spec: GridSpec
    cells: Dict[CellKey, List[ExperimentResult]]
    #: How the grid was executed (worker count, computed vs. cache hits);
    #: ``None`` for results assembled outside :func:`run_grid`.
    stats: Optional[EngineStats] = None

    # -- key handling ---------------------------------------------------
    def _key(
        self,
        cores: int,
        intensity: int,
        strategy: str,
        nodes: Optional[int],
        balancer: Optional[str],
    ) -> CellKey:
        if not self.spec.has_cluster_sweep:
            # Single topology, 3-tuple keys — but an explicit selector
            # naming a *different* topology must fail loudly rather than
            # silently return another topology's data.
            (variant,) = self.spec.cluster_variants()
            if nodes is not None and nodes != variant.nodes:
                raise KeyError(
                    f"grid ran with nodes={variant.nodes}; no cell has "
                    f"nodes={nodes}"
                )
            if balancer is not None and balancer != variant.balancer:
                raise KeyError(
                    f"grid ran with balancer={variant.balancer!r}; no cell "
                    f"has balancer={balancer!r}"
                )
            return (cores, intensity, strategy)
        if nodes is None:
            if len(self.spec.nodes) != 1:
                raise KeyError(
                    f"grid sweeps nodes={self.spec.nodes}; pass nodes=... to "
                    f"select a cell"
                )
            nodes = self.spec.nodes[0]
        if balancer is None:
            if len(self.spec.balancers) != 1:
                raise KeyError(
                    f"grid sweeps balancers={self.spec.balancers}; pass "
                    f"balancer=... to select a cell"
                )
            balancer = self.spec.balancers[0]
        return (cores, intensity, strategy, nodes, balancer)

    def cell_keys(self) -> List[CellKey]:
        """The stored cell keys, in run order."""
        return list(self.cells)

    @staticmethod
    def cell_label(key: CellKey) -> str:
        """Human-readable label for one cell key."""
        cores, intensity, strategy = key[0], key[1], key[2]
        label = f"c={cores} v={intensity} {strategy}"
        if len(key) == 5:
            label += f" nodes={key[3]} balancer={key[4]}"
        return label

    # -- views ----------------------------------------------------------
    def results(
        self,
        cores: int,
        intensity: int,
        strategy: str,
        nodes: Optional[int] = None,
        balancer: Optional[str] = None,
    ) -> List[ExperimentResult]:
        return self.cells[self._key(cores, intensity, strategy, nodes, balancer)]

    def results_for(self, key: CellKey) -> List[ExperimentResult]:
        """The per-seed results of one stored cell key."""
        return self.cells[key]

    def pooled_records_for(self, key: CellKey) -> List[CallRecord]:
        pooled: List[CallRecord] = []
        for result in self.cells[key]:
            pooled.extend(
                result._require_records(
                    "GridResults.pooled_records_for()",
                    "pooled_accumulator_for() / streaming_summary_for()",
                )
            )
        return pooled

    def summary_for(self, key: CellKey) -> SummaryStats:
        return summarize(self.pooled_records_for(key))

    def pooled_accumulator_for(self, key: CellKey) -> SummaryAccumulator:
        """The cell's per-seed accumulators pooled into one (the streaming
        counterpart of :meth:`pooled_records_for`): exact fields pool
        bit-identically regardless of merge order.  Works on retained
        results too (folding each result's records when no accumulator
        was attached)."""
        accumulators = []
        for result in self.cells[key]:
            if result.accumulator is not None:
                accumulators.append(result.accumulator)
            else:
                acc = SummaryAccumulator()
                for record in result._require_records(
                    "GridResults.pooled_accumulator_for() on a result with "
                    "neither accumulator nor records",
                    "results produced by run_experiment (which always "
                    "attaches an accumulator)",
                ):
                    acc.add(record)
                accumulators.append(acc)
        return merge_accumulators(accumulators)

    def streaming_summary_for(self, key: CellKey) -> StreamingSummary:
        """Table-III style aggregate over pooled seeds from constant-size
        state: counts, means, cold starts and makespan exact; percentiles
        within the sketch's rank bound."""
        return self.pooled_accumulator_for(key).summary()

    def pooled_records(
        self,
        cores: int,
        intensity: int,
        strategy: str,
        nodes: Optional[int] = None,
        balancer: Optional[str] = None,
    ) -> List[CallRecord]:
        """All call records of a cell, pooled over seeds (the paper's boxes
        aggregate "all individual calls from all 5 sequences")."""
        return self.pooled_records_for(
            self._key(cores, intensity, strategy, nodes, balancer)
        )

    def summary(
        self,
        cores: int,
        intensity: int,
        strategy: str,
        nodes: Optional[int] = None,
        balancer: Optional[str] = None,
    ) -> SummaryStats:
        """Table-III style aggregate over pooled seeds."""
        return summarize(
            self.pooled_records(cores, intensity, strategy, nodes, balancer)
        )

    def streaming_summary(
        self,
        cores: int,
        intensity: int,
        strategy: str,
        nodes: Optional[int] = None,
        balancer: Optional[str] = None,
    ) -> StreamingSummary:
        """Selector-flavoured :meth:`streaming_summary_for`."""
        return self.streaming_summary_for(
            self._key(cores, intensity, strategy, nodes, balancer)
        )

    def per_seed_summaries(
        self,
        cores: int,
        intensity: int,
        strategy: str,
        nodes: Optional[int] = None,
        balancer: Optional[str] = None,
    ) -> List[SummaryStats]:
        """Table-IV style per-experiment rows."""
        return [
            r.summary()
            for r in self.results(cores, intensity, strategy, nodes, balancer)
        ]

    def response_box(
        self,
        cores: int,
        intensity: int,
        strategy: str,
        nodes: Optional[int] = None,
        balancer: Optional[str] = None,
    ) -> BoxStats:
        """One box of Figure 3."""
        return box_stats(
            [
                r.response_time
                for r in self.pooled_records(cores, intensity, strategy, nodes, balancer)
            ]
        )

    def stretch_box(
        self,
        cores: int,
        intensity: int,
        strategy: str,
        nodes: Optional[int] = None,
        balancer: Optional[str] = None,
    ) -> BoxStats:
        """One box of Figure 4."""
        return box_stats(
            [
                r.stretch
                for r in self.pooled_records(cores, intensity, strategy, nodes, balancer)
            ]
        )

    def makespans(
        self,
        cores: int,
        intensity: int,
        strategy: str,
        nodes: Optional[int] = None,
        balancer: Optional[str] = None,
    ) -> List[float]:
        """Per-seed ``max c(i)`` values (Table II inputs)."""
        return [
            r.makespan for r in self.results(cores, intensity, strategy, nodes, balancer)
        ]


def run_grid(
    spec: GridSpec | None = None,
    *,
    jobs: int = 1,
    cache_dir: Optional[Union[str, Path]] = None,
    progress: Optional[ProgressCallback] = None,
    cell_timeout: Optional[float] = None,
    executor: str = "local",
    stats: Optional[EngineStats] = None,
) -> GridResults:
    """Run (cores × intensity × strategy × topology × seeds) experiments
    under the spec's workload scenario (default: the paper's uniform burst).

    Routed through the :mod:`repro.experiments.parallel` engine: ``jobs=N``
    shards cells across a worker pool and ``cache_dir`` enables the on-disk
    result cache, with results bit-identical to the serial, uncached path
    (``jobs=1``, the default).  ``progress`` receives one callback per
    finished cell (see :func:`~repro.experiments.parallel.progress_printer`).
    ``executor`` says what a worker does with a cell (``local`` runs it,
    ``queue`` claims it through the shared cache root — see
    :mod:`repro.experiments.queue`); ``stats`` supplies a shared
    :class:`EngineStats` to accumulate into (one is created otherwise).
    """
    spec = spec if spec is not None else GridSpec()
    variants = spec.cluster_variants()
    policy_params = spec.policy_params_by_strategy()
    configs = [
        ExperimentConfig(
            cores=cores,
            intensity=intensity,
            policy=strategy,
            seed=seed,
            scenario=spec.scenario,
            scenario_params=spec.scenario_params,
            policy_params=policy_params[strategy],
            cluster=variant,
            failures=spec.failures,
            retain_records=spec.retain_records,
        )
        for cores, intensity, strategy in spec.cells()
        for variant in variants
        for seed in spec.seeds
    ]
    stats = stats if stats is not None else EngineStats()
    flat = run_configs(
        configs,
        jobs=jobs,
        cache_dir=cache_dir,
        progress=progress,
        stats=stats,
        cell_timeout=cell_timeout,
        executor=executor,
    )
    cells: Dict[CellKey, List[ExperimentResult]] = {}
    per_cell = len(spec.seeds)
    for i, key in enumerate(spec.cell_keys()):
        cells[key] = flat[i * per_cell : (i + 1) * per_cell]
    return GridResults(spec=spec, cells=cells, stats=stats)
