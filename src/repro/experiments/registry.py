"""Experiment registry: one entry per paper artifact (README.md's matrix).

Each entry maps an experiment id to a callable
``run(quick: bool, engine: EngineOptions, workload: WorkloadSelection,
cluster: ClusterSelection, policies: PolicySelection) -> str`` returning
a rendered report.  ``quick=True`` runs a scaled-down version (fewer
seeds / smaller sweeps) suitable for CI and the default benchmark
invocation; ``quick=False`` reproduces the paper's full protocol.
``engine`` carries the execution knobs (worker count, cache directory,
progress callback), which every artifact but Table I passes to the
engine; ``workload`` an optional scenario override
(``--scenario``/``--scenario-param``), ``cluster`` an optional
cluster-topology override (``--nodes``/``--balancer``/...) and
``policies`` an optional scheduling-policy override
(``--policies``/``--policy-param``) for the grid-backed artifacts.
Artifacts reject what they cannot honor rather than ignore it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.experiments.ablations import (
    ablate_busy_limit,
    ablate_cold_start_cost,
    ablate_estimator_window,
    ablate_fc_horizon,
)
from repro.experiments.artifacts import (
    fig3_from_grid,
    fig4_from_grid,
    reject_cluster_sweep,
    table2_from_grid,
    table3_from_grid,
)
from repro.experiments.fig2_coldstarts import run_fig2
from repro.experiments.fig5_fairness import run_fig5
from repro.experiments.fig6_multinode import run_fig6
from repro.experiments.grid import GridSpec, run_grid
from repro.experiments.parallel import EngineOptions, EngineStats, ProgressCallback
from repro.experiments.table1 import run_table1
from repro.failures.spec import FailureSpec

__all__ = [
    "EXPERIMENTS",
    "GRID_BACKED",
    "WorkloadSelection",
    "ClusterSelection",
    "PolicySelection",
    "FailureSelection",
    "run_registered",
    "experiment_ids",
]


@dataclass(frozen=True)
class WorkloadSelection:
    """An optional scenario override for grid-backed artifacts.

    ``scenario=None`` keeps each artifact's own workload (the paper's
    protocol); a name (plus params) reruns the artifact's grid under that
    registered scenario instead — e.g. Table III under Poisson arrivals.
    """

    scenario: Optional[str] = None
    params: Tuple[Tuple[str, Any], ...] = ()

    def apply(self, spec: GridSpec) -> GridSpec:
        if self.scenario is None:
            return spec
        return replace(spec, scenario=self.scenario, scenario_params=self.params)


#: No override: every artifact runs its published workload.
DEFAULT_WORKLOAD = WorkloadSelection()


@dataclass(frozen=True)
class ClusterSelection:
    """An optional cluster-topology override for grid-backed artifacts.

    All fields at their defaults keep each artifact's own topology (the
    paper's single-node protocol); setting ``nodes``/``balancers`` reruns
    the artifact's grid swept over those topologies instead — e.g.
    Table III on 3 nodes under power-of-d routing.
    """

    nodes: Optional[Tuple[int, ...]] = None
    balancers: Optional[Tuple[str, ...]] = None
    balancer_params: Tuple[Tuple[str, Any], ...] = ()
    autoscale: bool = False

    @property
    def is_default(self) -> bool:
        return self == DEFAULT_CLUSTER_SELECTION

    def apply(self, spec: GridSpec) -> GridSpec:
        changes: Dict[str, Any] = {}
        if self.nodes is not None:
            changes["nodes"] = tuple(self.nodes)
        if self.balancers is not None:
            changes["balancers"] = tuple(self.balancers)
        if self.balancer_params:
            changes["balancer_params"] = tuple(self.balancer_params)
        if self.autoscale:
            changes["autoscale"] = True
        return replace(spec, **changes) if changes else spec


#: No override: every artifact runs on its published topology.
DEFAULT_CLUSTER_SELECTION = ClusterSelection()


@dataclass(frozen=True)
class PolicySelection:
    """An optional scheduling-policy override for grid-backed artifacts.

    ``strategies=None`` with no params keeps each artifact's own strategy
    set (the paper's six); a tuple of registered policy names (plus
    ``baseline``) reruns the artifact's grid over those strategies
    instead — e.g. Table III comparing ``SEPT`` against ``SEPT-EMA`` and
    ``ORACLE-SPT``.  ``params`` reach each swept strategy filtered to
    the parameters it declares (see
    :meth:`~repro.experiments.grid.GridSpec.policy_params_by_strategy`).
    """

    strategies: Optional[Tuple[str, ...]] = None
    params: Tuple[Tuple[str, Any], ...] = ()

    @property
    def is_default(self) -> bool:
        return self == DEFAULT_POLICY_SELECTION

    def apply(self, spec: GridSpec) -> GridSpec:
        changes: Dict[str, Any] = {}
        if self.strategies is not None:
            changes["strategies"] = tuple(self.strategies)
        if self.params:
            changes["policy_params"] = tuple(self.params)
        return replace(spec, **changes) if changes else spec


#: No override: every artifact sweeps its published strategies.
DEFAULT_POLICY_SELECTION = PolicySelection()


@dataclass(frozen=True)
class FailureSelection:
    """An optional fault-regime override for grid-backed artifacts.

    Empty ``params`` keeps the failure-free historical path; naming
    :class:`~repro.failures.spec.FailureSpec` fields (``--failure-param
    node_crash_rate=0.005`` etc.) reruns the artifact's grid with that
    fault regime injected into every cell (see docs/FAILURES.md).
    """

    params: Tuple[Tuple[str, Any], ...] = ()

    @property
    def is_default(self) -> bool:
        return not self.params

    def spec(self) -> FailureSpec:
        return FailureSpec.from_params(self.params)

    def apply(self, spec: GridSpec) -> GridSpec:
        if self.is_default:
            return spec
        return replace(spec, failures=self.spec())


#: No override: every artifact runs failure-free.
DEFAULT_FAILURE_SELECTION = FailureSelection()


def _grid_spec(
    quick: bool,
    workload: WorkloadSelection,
    cluster: ClusterSelection,
    policies: PolicySelection,
    failures: FailureSelection = DEFAULT_FAILURE_SELECTION,
) -> GridSpec:
    if quick:
        spec = GridSpec(
            cores=(10, 20),
            intensities=(30, 60),
            strategies=("baseline", "FIFO", "SEPT", "EECT", "RECT", "FC"),
            seeds=(1,),
        )
    else:
        spec = GridSpec()
    return failures.apply(policies.apply(cluster.apply(workload.apply(spec))))


def _table1(quick, engine, workload, cluster, policies, failures) -> str:
    # Table I's sequential client is not an ExperimentConfig cell: refuse
    # the engine knobs rather than drop them (the progress callback, which
    # the CLI always passes, merely goes unused).
    if engine != EngineOptions(progress=engine.progress):
        raise ValueError(
            "table1 runs a sequential client outside the engine and does not "
            "honor --jobs, --cache-dir, --cell-timeout or --executor"
        )
    return run_table1(calls_per_function=20 if quick else 50).render()


def _fig2(quick, engine, workload, cluster, policies, failures) -> str:
    if quick:
        return run_fig2(
            memories_mb=(4096, 16384, 32768, 131072),
            intensities=(30, 120),
            **engine.run_kwargs(),
        ).render()
    return run_fig2(**engine.run_kwargs()).render()


def _fig3(quick, engine, workload, cluster, policies, failures) -> str:
    spec = _grid_spec(quick, workload, cluster, policies, failures)
    reject_cluster_sweep(spec, "fig3")  # before any simulation time
    return fig3_from_grid(run_grid(spec, **engine.run_kwargs())).render()


def _fig4(quick, engine, workload, cluster, policies, failures) -> str:
    spec = _grid_spec(quick, workload, cluster, policies, failures)
    reject_cluster_sweep(spec, "fig4")  # before any simulation time
    return fig4_from_grid(run_grid(spec, **engine.run_kwargs())).render()


def _table2(quick, engine, workload, cluster, policies, failures) -> str:
    if quick:
        spec = failures.apply(policies.apply(cluster.apply(workload.apply(GridSpec(
            cores=(5, 20), intensities=(30, 120),
            strategies=("baseline", "FIFO"), seeds=(1, 2),
        )))))
    else:
        spec = _grid_spec(quick, workload, cluster, policies, failures)
    reject_cluster_sweep(spec, "table2")  # before any simulation time
    return table2_from_grid(run_grid(spec, **engine.run_kwargs())).render()


def _table3(quick, engine, workload, cluster, policies, failures) -> str:
    grid = run_grid(
        _grid_spec(quick, workload, cluster, policies, failures),
        **engine.run_kwargs(),
    )
    result = table3_from_grid(grid)
    return result.render() + "\n\n" + result.render_comparison()


def _table4(quick, engine, workload, cluster, policies, failures) -> str:
    if quick:
        spec = failures.apply(policies.apply(cluster.apply(
            workload.apply(GridSpec(cores=(10,), intensities=(30,), seeds=(1, 2, 3)))
        )))
    else:
        spec = _grid_spec(quick, workload, cluster, policies, failures)
    return table3_from_grid(run_grid(spec, **engine.run_kwargs()), per_seed=True).render()


def _fig5(quick, engine, workload, cluster, policies, failures) -> str:
    seeds = (1,) if quick else (1, 2, 3, 4, 5)
    return run_fig5(seeds=seeds, **engine.run_kwargs()).render()


def _fig6(quick, engine, workload, cluster, policies, failures) -> str:
    # fig6 is inherently a cluster sweep (over node counts); it honors the
    # engine's jobs/cache/progress knobs and, of the cluster selection,
    # exactly the balancer flavour.  Everything else (its own node counts,
    # balancer params, autoscaling) is the artifact's protocol — reject
    # rather than silently ignore.
    seeds = (1,) if quick else (1, 2, 3, 4, 5)
    unsupported = []
    if cluster.nodes is not None:
        unsupported.append("--nodes (fig6 sweeps 4/3/2/1 nodes by protocol)")
    if cluster.balancer_params:
        unsupported.append("--balancer-param")
    if cluster.autoscale:
        unsupported.append("--autoscale")
    if unsupported:
        raise ValueError(
            f"fig6 does not honor {', '.join(unsupported)}; of the cluster "
            f"overrides it accepts only a single --balancer"
        )
    balancer = "least-loaded"
    if cluster.balancers is not None:
        if len(cluster.balancers) != 1:
            raise ValueError(
                "fig6 sweeps node counts with a single balancer; give exactly "
                "one --balancer"
            )
        balancer = cluster.balancers[0]
    kwargs = engine.run_kwargs()
    reports = [run_fig6(cores_per_node=18, seeds=seeds, balancer=balancer, **kwargs).render()]
    if not quick:
        reports.append(
            run_fig6(cores_per_node=10, seeds=seeds, balancer=balancer, **kwargs).render()
        )
    return "\n\n".join(reports)


def _ablations(quick, engine, workload, cluster, policies, failures) -> str:
    studies = [ablate_estimator_window, ablate_busy_limit]
    if not quick:
        studies += [ablate_fc_horizon, ablate_cold_start_cost]
    return "\n\n".join(study(**engine.run_kwargs()).render() for study in studies)


#: Experiment id -> (description, runner).
_Runner = Callable[
    [
        bool,
        EngineOptions,
        WorkloadSelection,
        ClusterSelection,
        PolicySelection,
        FailureSelection,
    ],
    str,
]
EXPERIMENTS: Dict[str, tuple[str, _Runner]] = {
    "table1": ("Table I — idle-system SeBS function benchmark", _table1),
    "fig2": ("Fig. 2 — cold starts vs. memory and intensity", _fig2),
    "fig3": ("Fig. 3 — response-time boxes over the grid", _fig3),
    "fig4": ("Fig. 4 — stretch boxes over the grid", _fig4),
    "table2": ("Table II — FIFO/baseline makespan ratios", _table2),
    "table3": ("Table III — aggregated numeric grid (+ paper comparison)", _table3),
    "table4": ("Table IV — per-seed numeric grid", _table4),
    "fig5": ("Fig. 5 — Fair-Choice fairness (skewed mix)", _fig5),
    "fig6": ("Fig. 6 / Table V — multi-node sweep", _fig6),
    "ablations": ("Extensions — ablation studies", _ablations),
}


#: Artifacts whose runners slice the experiment grid and therefore honor a
#: ``--scenario`` workload override; the rest run fixed protocols
#: (table1's idle benchmark, fig2's memory sweep, fig5/fig6's dedicated
#: workloads, the ablations) and must reject an override rather than
#: silently ignoring it.
GRID_BACKED = frozenset({"fig3", "fig4", "table2", "table3", "table4"})


def experiment_ids() -> List[str]:
    return list(EXPERIMENTS)


#: Parameters as a mapping (the natural programmatic spelling) or as
#: ``(name, value)`` pairs (what the CLI parses).
_Params = Union[Mapping[str, Any], Tuple[Tuple[str, Any], ...]]


def _as_pairs(params: _Params) -> Tuple[Tuple[str, Any], ...]:
    """``params`` as ``(name, value)`` pairs in the caller's order.

    ``tuple()`` on a mapping would keep only its keys.  ``freeze_pairs``
    would sort the pairs, which reorders a multi-parameter scenario tag in
    a report title.
    """
    return tuple(params.items()) if isinstance(params, Mapping) else tuple(params)


def run_registered(
    experiment_id: str,
    quick: bool = True,
    *,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    progress: Optional[ProgressCallback] = None,
    scenario: Optional[str] = None,
    scenario_params: _Params = (),
    nodes: Optional[Sequence[int]] = None,
    balancers: Optional[Sequence[str]] = None,
    balancer_params: _Params = (),
    autoscale: bool = False,
    policies: Optional[Sequence[str]] = None,
    policy_params: _Params = (),
    failure_params: _Params = (),
    cell_timeout: Optional[float] = None,
    executor: str = "local",
    stats: Optional[EngineStats] = None,
) -> str:
    """Run a registered experiment and return its rendered report.

    ``jobs``, ``cache_dir`` and ``progress`` configure the parallel
    execution engine for every artifact but table1, whose sequential
    client is not a grid cell and rejects ``jobs``, ``cache_dir``,
    ``cell_timeout`` and ``executor``.  ``scenario``/``scenario_params``
    override the grid-backed artifacts' workload with any registered
    scenario (see ``faas-sched scenarios``); ``None`` keeps the paper's
    protocol.
    ``nodes``/``balancers`` (plus ``balancer_params``/``autoscale``)
    sweep the grid-backed artifacts over cluster topologies; fig6 — a
    node-count sweep by construction — honors a single ``balancers``
    entry.  ``policies``/``policy_params`` rerun the grid-backed
    artifacts over a different strategy set (any registered scheduling
    policy plus ``baseline`` — see ``faas-sched policies``), with
    parameters reaching each strategy that declares them.
    ``failure_params`` name :class:`~repro.failures.spec.FailureSpec`
    fields and rerun the grid-backed artifacts under that fault regime
    (docs/FAILURES.md); ``cell_timeout`` bounds each cell's wall clock.
    ``executor`` says what a worker does with a cell (``local`` runs it,
    the distributed ``queue`` claims it — see
    :mod:`repro.experiments.queue`); ``stats``
    supplies a shared :class:`~repro.experiments.parallel.EngineStats`
    that accumulates engine counters across the artifact's sweeps.  The
    remaining artifacts reject the overrides rather than silently
    ignoring them.
    """
    try:
        _, runner = EXPERIMENTS[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; available: {', '.join(EXPERIMENTS)}"
        ) from None
    if scenario is None and scenario_params:
        raise ValueError(
            "scenario_params were given without a scenario; silently "
            "dropping them would run the wrong workload"
        )
    if scenario is not None and experiment_id not in GRID_BACKED:
        raise ValueError(
            f"artifact {experiment_id!r} runs a fixed workload and does not "
            f"honor a scenario override; grid-backed artifacts: "
            f"{', '.join(sorted(GRID_BACKED))}"
        )
    cluster = ClusterSelection(
        nodes=None if nodes is None else tuple(nodes),
        balancers=None if balancers is None else tuple(balancers),
        balancer_params=_as_pairs(balancer_params),
        autoscale=autoscale,
    )
    if not cluster.is_default and experiment_id not in GRID_BACKED | {"fig6"}:
        raise ValueError(
            f"artifact {experiment_id!r} runs a fixed topology and does not "
            f"honor a cluster override; cluster-capable artifacts: "
            f"{', '.join(sorted(GRID_BACKED | {'fig6'}))}"
        )
    policy_selection = PolicySelection(
        strategies=None if policies is None else tuple(policies),
        params=_as_pairs(policy_params),
    )
    if not policy_selection.is_default and experiment_id not in GRID_BACKED:
        raise ValueError(
            f"artifact {experiment_id!r} runs a fixed strategy set and does "
            f"not honor a policy override; grid-backed artifacts: "
            f"{', '.join(sorted(GRID_BACKED))}"
        )
    failure_selection = FailureSelection(params=_as_pairs(failure_params))
    if not failure_selection.is_default:
        if experiment_id not in GRID_BACKED:
            raise ValueError(
                f"artifact {experiment_id!r} runs failure-free by protocol "
                f"and does not honor a failure override; grid-backed "
                f"artifacts: {', '.join(sorted(GRID_BACKED))}"
            )
        failure_selection.spec()  # a bad field name fails before any run
    engine = EngineOptions(
        jobs=jobs,
        cache_dir=cache_dir,
        progress=progress,
        cell_timeout=cell_timeout,
        executor=executor,
        stats=stats,
    )
    workload = WorkloadSelection(scenario=scenario, params=_as_pairs(scenario_params))
    return runner(quick, engine, workload, cluster, policy_selection, failure_selection)
