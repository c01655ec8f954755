"""Experiment registry: one entry per paper artifact (README.md's matrix).

Each entry maps an experiment id to a description and a runner
``run(quick: bool, engine: dict, overrides: dict) -> str`` returning a
rendered report.  ``quick=True`` runs a scaled-down version (fewer seeds /
smaller sweeps) suitable for CI and the default benchmark invocation;
``quick=False`` reproduces the paper's full protocol.  ``engine`` holds the
keywords of :func:`~repro.experiments.parallel.run_configs` (worker count,
cache directory, progress callback, ...), which every artifact but Table I
passes to the engine.  ``overrides`` holds :class:`GridSpec` field changes,
made by :func:`grid_overrides` from :func:`run_registered`'s override
keywords (``--scenario``, ``--nodes``, ``--policies``, ``--failure-param``
and the rest); a grid-backed runner applies them to its grid once.
:data:`HONOURED` says which artifact honours which field, and every other
override is refused before any simulation rather than ignored.
"""

from __future__ import annotations

from dataclasses import replace
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
from repro.experiments.parallel import EngineStats, ProgressCallback
from repro.experiments.table1 import run_table1
from repro.failures.spec import FailureSpec

__all__ = [
    "EXPERIMENTS",
    "GRID_BACKED",
    "HONOURED",
    "grid_overrides",
    "run_registered",
    "experiment_ids",
]


#: The scaled-down grid of quick fig3, fig4 and table3.
_QUICK_GRID = GridSpec(cores=(10, 20), intensities=(30, 60), seeds=(1,))


def _grid_spec(
    quick: bool, overrides: Mapping[str, Any], quick_grid: GridSpec = _QUICK_GRID
) -> GridSpec:
    """The artifact's grid, *quick_grid* or the paper's full one, with the
    overrides applied."""
    return replace(quick_grid if quick else GridSpec(), **overrides)


def _table1(quick, engine, overrides) -> str:
    # Table I's sequential client is not an ExperimentConfig cell: refuse
    # the engine knobs rather than drop them (the progress callback, which
    # the CLI always passes, and the stats sink merely go unused).
    knobs = (engine["jobs"], engine["cache_dir"], engine["cell_timeout"], engine["executor"])
    if knobs != (1, None, None, "local"):
        raise ValueError(
            "table1 runs a sequential client outside the engine and does not "
            "honor --jobs, --cache-dir, --cell-timeout or --executor"
        )
    return run_table1(calls_per_function=20 if quick else 50).render()


def _fig2(quick, engine, overrides) -> str:
    sweep = {"memories_mb": (4096, 16384, 32768, 131072), "intensities": (30, 120)}
    return run_fig2(**(sweep if quick else {}), **engine).render()


def _fig3(quick, engine, overrides) -> str:
    spec = _grid_spec(quick, overrides)
    reject_cluster_sweep(spec, "fig3")  # before any simulation time
    return fig3_from_grid(run_grid(spec, **engine)).render()


def _fig4(quick, engine, overrides) -> str:
    spec = _grid_spec(quick, overrides)
    reject_cluster_sweep(spec, "fig4")  # before any simulation time
    return fig4_from_grid(run_grid(spec, **engine)).render()


def _table2(quick, engine, overrides) -> str:
    quick_grid = GridSpec(
        cores=(5, 20), intensities=(30, 120), strategies=("baseline", "FIFO"), seeds=(1, 2)
    )
    spec = _grid_spec(quick, overrides, quick_grid)
    reject_cluster_sweep(spec, "table2")  # before any simulation time
    return table2_from_grid(run_grid(spec, **engine)).render()


def _table3(quick, engine, overrides) -> str:
    result = table3_from_grid(run_grid(_grid_spec(quick, overrides), **engine))
    return result.render() + "\n\n" + result.render_comparison()


def _table4(quick, engine, overrides) -> str:
    spec = _grid_spec(quick, overrides, GridSpec(cores=(10,), intensities=(30,), seeds=(1, 2, 3)))
    return table3_from_grid(run_grid(spec, **engine), per_seed=True).render()


def _fig5(quick, engine, overrides) -> str:
    seeds = (1,) if quick else (1, 2, 3, 4, 5)
    return run_fig5(seeds=seeds, **engine).render()


def _fig6(quick, engine, overrides) -> str:
    # fig6 sweeps 4/3/2/1 nodes by protocol; HONOURED lets exactly one
    # balancer through.
    (balancer,) = overrides.get("balancers", ("least-loaded",))
    seeds = (1,) if quick else (1, 2, 3, 4, 5)
    return "\n\n".join(
        run_fig6(cores_per_node=cores, seeds=seeds, balancer=balancer, **engine).render()
        for cores in ((18,) if quick else (18, 10))
    )


def _ablations(quick, engine, overrides) -> str:
    studies = [ablate_estimator_window, ablate_busy_limit]
    if not quick:
        studies += [ablate_fc_horizon, ablate_cold_start_cost]
    return "\n\n".join(study(**engine).render() for study in studies)


#: Experiment id -> (description, runner).
_Runner = Callable[[bool, Dict[str, Any], Dict[str, Any]], str]
EXPERIMENTS: Dict[str, Tuple[str, _Runner]] = {
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


#: Artifacts whose runners slice the experiment grid.
GRID_BACKED = frozenset({"fig3", "fig4", "table2", "table3", "table4"})

#: The override groups in the order they are checked: the GridSpec fields
#: of each, what an artifact that honours none of them runs instead, the
#: override's name, and what the artifacts that honour it are called.
_GROUPS = (
    (("scenario", "scenario_params"), "a fixed workload", "a scenario", "grid-backed"),
    (
        ("nodes", "balancers", "balancer_params", "autoscale"),
        "a fixed topology",
        "a cluster",
        "cluster-capable",
    ),
    (("strategies", "policy_params"), "a fixed strategy set", "a policy", "grid-backed"),
    (("failures",), "failure-free by protocol", "a failure", "grid-backed"),
)

#: The GridSpec fields each artifact lets an override change.  The
#: grid-backed artifacts honour all of them, fig6 (a node-count sweep by
#: protocol) a single balancer, and the rest (table1's idle benchmark,
#: fig2's memory sweep, fig5's skewed mix, the ablations) none.
HONOURED: Dict[str, frozenset] = {
    **{eid: frozenset().union(*(fields for fields, *_ in _GROUPS)) for eid in GRID_BACKED},
    "fig6": frozenset({"balancers"}),
}

#: How fig6's refusal names the cluster fields it does not honour.
_FIG6_REFUSED = {
    "nodes": "--nodes (fig6 sweeps 4/3/2/1 nodes by protocol)",
    "balancer_params": "--balancer-param",
    "autoscale": "--autoscale",
}


def experiment_ids() -> List[str]:
    return list(EXPERIMENTS)


def _refuse_unhonoured(experiment_id: str, overrides: Mapping[str, Any]) -> None:
    """Raise :class:`ValueError` for the first override group
    *experiment_id* does not honour (:data:`HONOURED`), then for the
    cluster fields and balancer count fig6 does not honour."""
    honoured = HONOURED.get(experiment_id, frozenset())
    unhonoured = overrides.keys() - honoured
    for fields, runs, override, capable in _GROUPS:
        if honoured.isdisjoint(fields) and not unhonoured.isdisjoint(fields):
            names = sorted(eid for eid, h in HONOURED.items() if not h.isdisjoint(fields))
            raise ValueError(
                f"artifact {experiment_id!r} runs {runs} and does not honor "
                f"{override} override; {capable} artifacts: {', '.join(names)}"
            )
    if experiment_id != "fig6":
        return
    refused = [flag for name, flag in _FIG6_REFUSED.items() if name in unhonoured]
    if refused:
        raise ValueError(
            f"fig6 does not honor {', '.join(refused)}; of the cluster "
            f"overrides it accepts only a single --balancer"
        )
    if len(overrides.get("balancers", ("least-loaded",))) != 1:
        raise ValueError(
            "fig6 sweeps node counts with a single balancer; give exactly one --balancer"
        )


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


def grid_overrides(
    artifact: Optional[str] = None,
    *,
    scenario: Optional[str] = None,
    scenario_params: _Params = (),
    nodes: Optional[Sequence[int]] = None,
    balancers: Optional[Sequence[str]] = None,
    balancer_params: _Params = (),
    autoscale: bool = False,
    policies: Optional[Sequence[str]] = None,
    policy_params: _Params = (),
    failure_params: _Params = (),
) -> Dict[str, Any]:
    """The :class:`GridSpec` field changes that the override keywords of
    :func:`run_registered` name: one entry per override given, parameter
    sets as ``(name, value)`` pairs in the caller's order, and
    ``failure_params`` as a :class:`~repro.failures.spec.FailureSpec`.

    With an *artifact* id, an override that artifact does not honour is
    refused (:data:`HONOURED`) before the fault regime is validated, so
    the refusal names the artifact rather than a bad failure field.
    """
    if scenario is None and scenario_params:
        raise ValueError(
            "scenario_params were given without a scenario; silently "
            "dropping them would run the wrong workload"
        )
    given = {
        "scenario": scenario,
        "scenario_params": _as_pairs(scenario_params) or None,
        "nodes": None if nodes is None else tuple(nodes),
        "balancers": None if balancers is None else tuple(balancers),
        "balancer_params": _as_pairs(balancer_params) or None,
        "autoscale": True if autoscale else None,
        "strategies": None if policies is None else tuple(policies),
        "policy_params": _as_pairs(policy_params) or None,
        "failures": _as_pairs(failure_params) or None,
    }
    overrides = {name: value for name, value in given.items() if value is not None}
    if artifact is not None:
        _refuse_unhonoured(artifact, overrides)
    if "failures" in overrides:
        overrides["failures"] = FailureSpec.from_params(overrides["failures"])
    return overrides


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
    overrides = grid_overrides(
        experiment_id,
        scenario=scenario,
        scenario_params=scenario_params,
        nodes=nodes,
        balancers=balancers,
        balancer_params=balancer_params,
        autoscale=autoscale,
        policies=policies,
        policy_params=policy_params,
        failure_params=failure_params,
    )
    engine = {
        "jobs": jobs,
        "cache_dir": cache_dir,
        "progress": progress,
        "cell_timeout": cell_timeout,
        "executor": executor,
        "stats": stats,
    }
    return runner(quick, engine, overrides)
