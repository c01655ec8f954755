"""Command-line interface.

Examples
--------
List the reproducible artifacts, the registered workload scenarios, and
the registered scheduling policies::

    faas-sched list
    faas-sched scenarios
    faas-sched policies

Reproduce an artifact (scaled-down)::

    faas-sched run fig6

Reproduce the paper's full protocol for one artifact, in parallel with an
on-disk result cache (re-runs only compute missing cells)::

    faas-sched run table3 --full --jobs 8 --cache-dir ~/.cache/faas-sched

Rerun a grid-backed artifact under a different registered workload::

    faas-sched run table3 --scenario poisson --scenario-param zipf_exponent=1.1

Run the experiment grid directly, selecting a slice and a scenario::

    faas-sched grid --jobs 4 --cores 10 20 --intensities 30 60 --seeds 1 2
    faas-sched grid --scenario diurnal --scenario-param amplitude=0.9

Sweep registered scheduling policies — including parameterized ones —
through the same grid (the policy name and its parameters are part of
the result-cache fingerprint)::

    faas-sched grid --strategies SEPT SEPT-EMA ORACLE-SPT --policy-param window=5
    faas-sched run table3 --policies FC FC-HYBRID --policy-param deadline_weight=0.8

Sweep the cluster dimension — node counts × balancer flavours — through
the same grid engine (cached and parallelized like any other cell)::

    faas-sched grid --nodes 1 2 4 --balancer least-loaded power-of-d
    faas-sched grid --nodes 3 --balancer locality --balancer-param capacity_factor=1.5

Run a single ad-hoc experiment (optionally on a multi-node cluster)::

    faas-sched simulate --cores 10 --intensity 60 --policy SEPT --seed 1
    faas-sched simulate --scenario replay --scenario-param path=trace.csv
    faas-sched simulate --nodes 3 --balancer power-of-d --autoscale
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from typing import Any, List, Optional, Sequence, Tuple

from repro.catalog import Registry
from repro.cluster.controller import balancer_names
from repro.cluster.spec import ClusterSpec
from repro.experiments.adaptive import (
    DEFAULT_DECISION_METRICS,
    allocate_seeds,
)
from repro.experiments.cache_tools import (
    CacheMergeError,
    cache_stats,
    gc_cache,
    merge_caches,
)
from repro.experiments.config import BASELINE, ExperimentConfig
from repro.experiments.grid import GridResults, GridSpec, run_grid
from repro.experiments.parallel import (
    EXECUTORS,
    EngineStats,
    ResultCache,
    WorkerError,
    progress_printer,
    run_configs,
    verify_cache,
)
from repro.experiments.queue import run_worker
from repro.experiments.registry import EXPERIMENTS, run_registered
from repro.experiments.runner import run_experiment
from repro.experiments.artifacts import table3_from_grid
from repro.failures.spec import FailureSpec
from repro.metrics.cluster import cluster_breakdown
from repro.metrics.compare import (
    COMPARE_METRICS,
    DEFAULT_METRICS,
    compare_grid,
    compare_results,
)
from repro.metrics.report import render_summary_table
from repro.scheduling.registry import POLICY_REGISTRY, policy_names
from repro.workload.registry import SCENARIOS, get_scenario, scenario_names

__all__ = ["main", "build_parser"]


def _policy_choices() -> List[str]:
    """Strategy names accepted by --policy/--strategies/--policies: the
    stock invoker plus every registered scheduling policy."""
    return [BASELINE] + policy_names()


def _add_engine_arguments(parser: argparse.ArgumentParser) -> None:
    """Parallel-engine knobs shared by the ``run`` and ``grid`` commands."""
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for grid cells (default: 1, serial)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="on-disk result cache; re-runs only compute missing cells",
    )
    parser.add_argument(
        "--no-progress",
        action="store_true",
        help="suppress per-cell progress lines on stderr",
    )
    parser.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        metavar="S",
        help=(
            "wall-clock budget per grid cell in seconds; cells over "
            "budget are cancelled and reported while the rest of the "
            "sweep completes; default: $REPRO_CELL_TIMEOUT or none"
        ),
    )
    parser.add_argument(
        "--executor",
        default="local",
        choices=EXECUTORS,
        metavar="NAME",
        help=(
            "what a worker does with a cell: 'local' runs and stores it; "
            "'queue' claims it through the shared --cache-dir, so any "
            "number of 'faas-sched worker' processes — on any host "
            "sharing the directory — can help (see docs/DISTRIBUTED.md); "
            "default: local"
        ),
    )


def _add_scenario_arguments(
    parser: argparse.ArgumentParser, default: Optional[str] = None
) -> None:
    """Workload-scenario selection shared by run/grid/simulate."""
    parser.add_argument(
        "--scenario",
        default=default,
        choices=scenario_names(),
        metavar="NAME",
        help=(
            "workload scenario (see 'faas-sched scenarios'); "
            + ("default: each artifact's own workload" if default is None else f"default: {default}")
        ),
    )
    parser.add_argument(
        "--scenario-param",
        action="append",
        default=[],
        metavar="K=V",
        help=(
            "scenario builder parameter as key=value (repeatable); values "
            "are parsed as JSON, falling back to strings "
            "(e.g. --scenario-param rare_count=20)"
        ),
    )


#: Python-style literals users type out of habit; without this mapping
#: json.loads fails and e.g. "False" would survive as a *truthy* string.
_PYTHON_LITERALS = {"True": True, "False": False, "None": None}


def _parse_kv_params(
    pairs: Sequence[str], flag: str = "--scenario-param"
) -> Tuple[Tuple[str, Any], ...]:
    """``["k=v", ...]`` → ``(("k", parsed_v), ...)``; values JSON-decoded
    when possible (Python's True/False/None spellings accepted too) so
    numbers/bools/lists arrive typed."""
    params: List[Tuple[str, Any]] = []
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise SystemExit(f"error: {flag} expects key=value, got {pair!r}")
        if raw in _PYTHON_LITERALS:
            value: Any = _PYTHON_LITERALS[raw]
        else:
            try:
                value = json.loads(raw)
            except ValueError:
                value = raw
        params.append((key, value))
    return tuple(params)


def _parse_scenario_params(pairs: Sequence[str]) -> Tuple[Tuple[str, Any], ...]:
    return _parse_kv_params(pairs, "--scenario-param")


def _parse_balancer_params(pairs: Sequence[str]) -> Tuple[Tuple[str, Any], ...]:
    return _parse_kv_params(pairs, "--balancer-param")


def _parse_policy_params(pairs: Sequence[str]) -> Tuple[Tuple[str, Any], ...]:
    return _parse_kv_params(pairs, "--policy-param")


def _parse_failure_params(pairs: Sequence[str]) -> Tuple[Tuple[str, Any], ...]:
    return _parse_kv_params(pairs, "--failure-param")


def _add_failure_argument(parser: argparse.ArgumentParser) -> None:
    """``--failure-param`` shared by run/grid/compare/simulate."""
    parser.add_argument(
        "--failure-param",
        action="append",
        default=[],
        metavar="K=V",
        help=(
            "failure-injection parameter as key=value (repeatable), naming "
            "a FailureSpec field — e.g. --failure-param "
            "node_crash_rate=0.005 --failure-param timeout_s=30 "
            "(see docs/FAILURES.md); default: failure-free"
        ),
    )


def _add_policy_param_argument(parser: argparse.ArgumentParser) -> None:
    """``--policy-param`` shared by run/grid/simulate."""
    parser.add_argument(
        "--policy-param",
        action="append",
        default=[],
        metavar="K=V",
        help=(
            "scheduling-policy parameter as key=value (repeatable); values "
            "are parsed as JSON, falling back to strings; reaches every "
            "selected policy that declares the parameter "
            "(e.g. --policy-param alpha=0.5)"
        ),
    )


def _add_streaming_argument(parser: argparse.ArgumentParser) -> None:
    """``--no-retain-records`` / ``--streaming`` shared by grid/simulate."""
    parser.add_argument(
        "--no-retain-records",
        "--streaming",
        dest="retain_records",
        action="store_false",
        default=True,
        help=(
            "streaming mode: fold each completed call into constant-size "
            "metrics state instead of retaining every call record — exact "
            "counts/means/cold-starts/makespan, sketched percentiles "
            "(see docs/STREAMING.md); memory stays bounded for "
            "million-invocation workloads"
        ),
    )


def _add_cluster_arguments(
    parser: argparse.ArgumentParser, sweep: bool
) -> None:
    """Cluster-topology selection shared by run/grid/simulate.

    ``sweep=True`` (run/grid) accepts several node counts and balancer
    flavours — the grid crosses them; ``simulate`` takes one of each.
    """
    nargs = {"nargs": "+"} if sweep else {}
    parser.add_argument(
        "--nodes",
        type=int,
        default=None,
        metavar="N",
        help=(
            "worker-node count" + (" (several values sweep the grid)" if sweep else "")
            + "; default: 1"
        ),
        **nargs,
    )
    parser.add_argument(
        "--balancer",
        default=None,
        choices=balancer_names(),
        metavar="NAME",
        help=(
            "load-balancer flavour "
            + ("(several values sweep the grid); " if sweep else "; ")
            + f"one of: {', '.join(balancer_names())}; default: least-loaded"
        ),
        **nargs,
    )
    parser.add_argument(
        "--balancer-param",
        action="append",
        default=[],
        metavar="K=V",
        help=(
            "balancer constructor parameter as key=value (repeatable), "
            "e.g. --balancer-param d=3 or capacity_factor=1.5"
        ),
    )
    parser.add_argument(
        "--autoscale",
        action="store_true",
        help="attach the reactive autoscaler (default config) to every run",
    )


def _add_statistics_arguments(parser: argparse.ArgumentParser) -> None:
    """Significance-testing knobs shared by ``compare`` and ``grid
    --compare`` (see docs/COMPARISONS.md for the methodology)."""
    parser.add_argument(
        "--metrics",
        nargs="+",
        default=None,
        choices=sorted(COMPARE_METRICS),
        metavar="M",
        help=(
            "metrics to test (default: mean/p99 response time and stretch "
            "plus cold starts); Holm correction spans every tested metric"
        ),
    )
    parser.add_argument(
        "--alpha",
        type=float,
        default=0.05,
        metavar="A",
        help="family-wise significance level after Holm correction (default: 0.05)",
    )
    parser.add_argument(
        "--confidence",
        type=float,
        default=0.95,
        metavar="C",
        help="bootstrap confidence level for the mean-difference CI (default: 0.95)",
    )
    parser.add_argument(
        "--resamples",
        type=int,
        default=2000,
        metavar="N",
        help="bootstrap resamples per CI (default: 2000)",
    )
    parser.add_argument(
        "--ci-method",
        choices=("bca", "percentile"),
        default="bca",
        help="bootstrap CI flavour (default: bca)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="faas-sched",
        description=(
            "Reproduction of 'Call Scheduling to Reduce Response Time of a "
            "FaaS System' (CLUSTER 2022)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list reproducible paper artifacts")

    sub.add_parser(
        "scenarios",
        help="list registered workload scenarios and their parameters",
    )

    sub.add_parser(
        "policies",
        help="list registered scheduling policies and their parameters",
    )

    run = sub.add_parser("run", help="reproduce a paper artifact")
    run.add_argument("experiment", choices=sorted(EXPERIMENTS), help="artifact id")
    run.add_argument(
        "--full",
        action="store_true",
        help="run the paper's full protocol (all seeds/sweeps); slower",
    )
    run.add_argument(
        "--policies",
        nargs="+",
        default=None,
        choices=_policy_choices(),
        metavar="P",
        help=(
            "override the strategy set of a grid-backed artifact (see "
            "'faas-sched policies'); default: each artifact's own strategies"
        ),
    )
    _add_engine_arguments(run)
    _add_scenario_arguments(run)
    _add_cluster_arguments(run, sweep=True)
    _add_policy_param_argument(run)
    _add_failure_argument(run)

    grid = sub.add_parser(
        "grid",
        help="run a slice of the experiment grid (cores x intensity x strategy x seeds)",
    )
    grid.add_argument(
        "--full",
        action="store_true",
        help="start from the paper's full grid instead of the quick slice",
    )
    grid.add_argument("--cores", type=int, nargs="+", metavar="C")
    grid.add_argument("--intensities", type=int, nargs="+", metavar="V")
    grid.add_argument("--strategies", nargs="+", choices=_policy_choices(), metavar="S")
    grid.add_argument("--seeds", type=int, nargs="+", metavar="K")
    grid.add_argument(
        "--per-seed",
        action="store_true",
        help="render Table-IV style per-seed rows instead of pooled aggregates",
    )
    grid.add_argument(
        "--compare",
        default=None,
        choices=_policy_choices(),
        metavar="REF",
        help=(
            "annotate the grid report with per-cell significance vs. this "
            "reference strategy (Mann-Whitney U per metric, Holm-corrected "
            "across the whole metric x cell family) and print the full "
            "comparison tables"
        ),
    )
    _add_statistics_arguments(grid)
    _add_engine_arguments(grid)
    _add_scenario_arguments(grid, default="uniform")
    _add_cluster_arguments(grid, sweep=True)
    _add_policy_param_argument(grid)
    _add_failure_argument(grid)
    _add_streaming_argument(grid)

    comp = sub.add_parser(
        "compare",
        help=(
            "statistically compare two policies over repeated seeds "
            "(Mann-Whitney U, Cliff's delta, bootstrap CIs, Holm correction)"
        ),
    )
    comp.add_argument("policy_a", choices=_policy_choices(), metavar="A")
    comp.add_argument("policy_b", choices=_policy_choices(), metavar="B")
    comp.add_argument("--cores", type=int, default=10)
    comp.add_argument("--intensity", type=int, default=30)
    comp.add_argument(
        "--seeds",
        type=int,
        nargs="+",
        default=None,
        metavar="K",
        help="explicit seed list (default: 1..N from --num-seeds)",
    )
    comp.add_argument(
        "--num-seeds",
        type=int,
        default=20,
        metavar="N",
        help="repetitions per policy when --seeds is not given (default: 20)",
    )
    comp.add_argument(
        "--adaptive",
        action="store_true",
        help=(
            "adaptive seed allocation: start from the requested seeds and "
            "add batches only while the corrected comparison has not "
            "separated, up to --max-seeds (see docs/COMPARISONS.md)"
        ),
    )
    comp.add_argument(
        "--max-seeds",
        type=int,
        default=None,
        metavar="N",
        help="adaptive budget per policy (default: 4x the initial seeds)",
    )
    comp.add_argument(
        "--batch",
        type=int,
        default=5,
        metavar="N",
        help="seeds added per adaptive round (default: 5)",
    )
    _add_statistics_arguments(comp)
    _add_engine_arguments(comp)
    _add_scenario_arguments(comp, default="uniform")
    _add_cluster_arguments(comp, sweep=False)
    _add_policy_param_argument(comp)
    _add_failure_argument(comp)
    _add_streaming_argument(comp)

    cache = sub.add_parser(
        "cache",
        help="inspect and maintain an on-disk result cache",
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_verify = cache_sub.add_parser(
        "verify",
        help=(
            "scan a cache directory, report corrupt/stale entries and move "
            "them to a quarantine subdirectory"
        ),
    )
    cache_verify.add_argument(
        "--cache-dir",
        required=True,
        metavar="DIR",
        help="cache root to verify (the --cache-dir used by run/grid)",
    )
    cache_verify.add_argument(
        "--no-quarantine",
        action="store_true",
        help="report only; leave corrupt/stale entries in place",
    )
    cache_verify.epilog = (
        "exits 0 when every entry is loadable and current, 1 when any "
        "corrupt or stale entry was found"
    )
    cache_stats_cmd = cache_sub.add_parser(
        "stats",
        help=(
            "inventory a cache root: entries, bytes, health, age range, "
            "per-shard breakdown, queue depth and active claims"
        ),
    )
    cache_stats_cmd.add_argument(
        "--cache-dir",
        required=True,
        metavar="DIR",
        help="cache root to inspect",
    )
    cache_gc = cache_sub.add_parser(
        "gc",
        help=(
            "evict cache entries: corrupt/version-stale first, then "
            "entries over --max-age, then oldest-first down to --size-budget"
        ),
    )
    cache_gc.add_argument(
        "--cache-dir",
        required=True,
        metavar="DIR",
        help="cache root to collect",
    )
    cache_gc.add_argument(
        "--max-age",
        type=float,
        default=None,
        metavar="S",
        help="evict entries written more than S seconds ago",
    )
    cache_gc.add_argument(
        "--size-budget",
        default=None,
        metavar="BYTES",
        help=(
            "evict oldest entries until the root fits this many bytes "
            "(suffixes KiB/MiB/GiB accepted, e.g. 512MiB)"
        ),
    )
    cache_gc.add_argument(
        "--dry-run",
        action="store_true",
        help="report what would be evicted without deleting anything",
    )
    cache_merge = cache_sub.add_parser(
        "merge",
        help=(
            "union SRC's entries into DST by fingerprint; colliding "
            "entries must be byte-identical (the merge aborts otherwise)"
        ),
    )
    cache_merge.add_argument("src", metavar="SRC", help="cache root to merge from")
    cache_merge.add_argument("dst", metavar="DST", help="cache root to merge into")

    worker = sub.add_parser(
        "worker",
        help=(
            "claim and compute queued grid cells from a shared cache root "
            "(start any number, on any host sharing the directory; see "
            "docs/DISTRIBUTED.md)"
        ),
    )
    worker.add_argument(
        "--cache-dir",
        required=True,
        metavar="DIR",
        help="shared cache root holding the work queue",
    )
    worker.add_argument(
        "--idle-timeout",
        type=float,
        default=None,
        metavar="S",
        help=(
            "keep polling for new work this many seconds after the queue "
            "drains; default: exit once the queue looks empty"
        ),
    )
    worker.add_argument(
        "--poll",
        type=float,
        default=0.2,
        metavar="S",
        help="queue poll interval in seconds (default: 0.2)",
    )
    worker.add_argument(
        "--lease-ttl",
        type=float,
        default=None,
        metavar="S",
        help=(
            "claim lease TTL in seconds; a lease not heartbeaten for this "
            "long is considered dead and stolen by another worker "
            "(default: $REPRO_LEASE_TTL or 60)"
        ),
    )
    worker.add_argument(
        "--max-cells",
        type=int,
        default=None,
        metavar="N",
        help="exit after computing N cells (default: unlimited)",
    )
    worker.add_argument(
        "--no-progress",
        action="store_true",
        help="suppress per-cell progress lines on stderr",
    )

    sim = sub.add_parser("simulate", help="run one ad-hoc single-node experiment")
    sim.add_argument("--cores", type=int, default=10)
    sim.add_argument("--intensity", type=int, default=30)
    sim.add_argument("--policy", default="FIFO", choices=_policy_choices())
    sim.add_argument("--seed", type=int, default=1)
    sim.add_argument("--memory-mb", type=int, default=32768)
    _add_scenario_arguments(sim, default="uniform")
    _add_cluster_arguments(sim, sweep=False)
    _add_policy_param_argument(sim)
    _add_failure_argument(sim)
    _add_streaming_argument(sim)
    return parser


def _grid_spec_from_args(args: argparse.Namespace) -> GridSpec:
    spec = GridSpec() if args.full else GridSpec.quick()
    overrides = {}
    if args.cores:
        overrides["cores"] = tuple(args.cores)
    if args.intensities:
        overrides["intensities"] = tuple(args.intensities)
    if args.strategies:
        overrides["strategies"] = tuple(args.strategies)
    if args.seeds:
        overrides["seeds"] = tuple(args.seeds)
    if args.scenario:
        overrides["scenario"] = args.scenario
        overrides["scenario_params"] = _parse_scenario_params(args.scenario_param)
    if args.nodes:
        overrides["nodes"] = tuple(args.nodes)
    if args.balancer:
        overrides["balancers"] = tuple(args.balancer)
    if args.balancer_param:
        overrides["balancer_params"] = _parse_balancer_params(args.balancer_param)
    if args.autoscale:
        overrides["autoscale"] = True
    if args.policy_param:
        overrides["policy_params"] = _parse_policy_params(args.policy_param)
    if args.failure_param:
        overrides["failures"] = FailureSpec.from_params(
            _parse_failure_params(args.failure_param)
        )
    if not args.retain_records:
        overrides["retain_records"] = False
    return replace(spec, **overrides) if overrides else spec


def _render_catalog(registry: Registry, note: str = "") -> str:
    """The ``faas-sched policies``/``scenarios`` listing, straight from
    the registry; *note* ends its last line."""
    kind = registry.spec_type.kind
    lines = []
    for spec in registry:
        lines.append(f"{spec.name}  [{', '.join(spec.traits())}]")
        lines.append(f"    {spec.description}")
        for param in spec.params:
            default = "(required)" if param.required else f"default: {param.default!r}"
            lines.append(f"    --{kind}-param {param.name}=...  {default}")
            if param.doc:
                lines.append(f"        {param.doc}")
    lines.append("")
    lines.append(f"run one with: faas-sched simulate --{kind} NAME [--{kind}-param K=V ...]{note}")
    return "\n".join(lines)


def _render_annotated_grid(grid: GridResults, args: argparse.Namespace) -> str:
    """The ``grid --compare REF`` report: the summary table with one
    significance annotation per non-reference row, then the full
    per-pair comparison tables."""
    ref = args.compare
    others = [s for s in grid.spec.strategies if s != ref]
    if ref not in grid.spec.strategies or not others:
        raise ValueError(
            f"--compare {ref!r} needs the grid to sweep {ref!r} plus at "
            f"least one other strategy (swept: {', '.join(grid.spec.strategies)})"
        )
    comparisons = [
        compare_grid(
            grid,
            ref,
            other,
            metrics=args.metrics,
            alpha=args.alpha,
            confidence=args.confidence,
            resamples=args.resamples,
            ci_method=args.ci_method,
        )
        for other in others
    ]
    notes = {key: "" for key in grid.cell_keys()}
    for comparison in comparisons:
        for (key_a, key_b), (_, result) in zip(comparison.keys, comparison.cells):
            notes[key_a] = "ref"
            sig = len(result.significant())
            notes[key_b] = f"{sig}/{len(result.comparisons)} sig vs {ref}"
    if grid.spec.retain_records:
        entries = [
            (GridResults.cell_label(key), grid.summary_for(key))
            for key in grid.cell_keys()
        ]
        mode_tag = ""
    else:
        entries = [
            (GridResults.cell_label(key), grid.streaming_summary_for(key))
            for key in grid.cell_keys()
        ]
        mode_tag = "; streaming: percentiles are t-digest estimates"
    table = render_summary_table(
        entries,
        title=(
            f"Grid vs. {ref} (Mann-Whitney U per metric, Holm-corrected "
            f"at α={args.alpha:g}{mode_tag})"
        ),
        annotations=[notes[key] for key in grid.cell_keys()],
    )
    blocks = [table]
    blocks.extend(comparison.render() for comparison in comparisons)
    return "\n\n".join(blocks)


#: Binary size suffixes accepted by ``cache gc --size-budget``.
_SIZE_SUFFIXES = {
    "kib": 1024,
    "kb": 1024,
    "k": 1024,
    "mib": 1024**2,
    "mb": 1024**2,
    "m": 1024**2,
    "gib": 1024**3,
    "gb": 1024**3,
    "g": 1024**3,
    "b": 1,
}


def _parse_size(raw: str, flag: str = "--size-budget") -> int:
    """``"512MiB"`` / ``"1048576"`` → bytes."""
    text = raw.strip().lower()
    for suffix in sorted(_SIZE_SUFFIXES, key=len, reverse=True):
        if text.endswith(suffix):
            number = text[: -len(suffix)].strip()
            break
    else:
        suffix, number = "b", text
    try:
        value = float(number)
    except ValueError:
        raise SystemExit(
            f"error: {flag} expects bytes with an optional KiB/MiB/GiB "
            f"suffix, got {raw!r}"
        ) from None
    return int(value * _SIZE_SUFFIXES[suffix])


def _run_cache(args: argparse.Namespace) -> int:
    """The ``faas-sched cache`` verbs: verify / stats / gc / merge."""
    try:
        if args.cache_command == "verify":
            verification = verify_cache(
                args.cache_dir, quarantine=not args.no_quarantine
            )
            print(
                f"scanned: {verification.scanned}  ok: {verification.ok}  "
                f"corrupt: {verification.corrupt}  stale: {verification.stale}  "
                f"quarantined: {len(verification.quarantined)}"
            )
            for name in verification.quarantined:
                print(f"  {name}")
            if verification.bad and args.no_quarantine:
                print(
                    "(bad entries left in place; rerun without --no-quarantine "
                    "to move them aside)"
                )
            return 1 if verification.bad else 0
        if args.cache_command == "stats":
            print(cache_stats(args.cache_dir).render())
            return 0
        if args.cache_command == "gc":
            budget = (
                _parse_size(args.size_budget)
                if args.size_budget is not None
                else None
            )
            report = gc_cache(
                args.cache_dir,
                max_age=args.max_age,
                size_budget=budget,
                dry_run=args.dry_run,
            )
            print(report.render())
            return 0
        if args.cache_command == "merge":
            print(merge_caches(args.src, args.dst).render())
            return 0
    except (CacheMergeError, FileNotFoundError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1  # pragma: no cover - argparse enforces subcommands


def _run_worker(args: argparse.Namespace) -> int:
    """The ``faas-sched worker`` verb: drain a shared work queue."""

    def progress(fingerprint: str, label: str) -> None:
        print(f"worker: computing {label} [{fingerprint[:12]}]", file=sys.stderr)

    try:
        summary = run_worker(
            args.cache_dir,
            poll=args.poll,
            idle_timeout=args.idle_timeout,
            lease_ttl=args.lease_ttl,
            max_cells=args.max_cells,
            progress=None if args.no_progress else progress,
        )
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # An interrupted worker is normal operations: its lease goes
        # stale and another worker steals the cell.
        print("worker: interrupted; in-flight lease will expire", file=sys.stderr)
        return 130
    print(summary.summary_line())
    return 0


def _run_compare(args: argparse.Namespace) -> int:
    """The ``faas-sched compare A B`` verb."""
    if args.policy_a == args.policy_b:
        print(
            f"error: comparing {args.policy_a!r} against itself is vacuous",
            file=sys.stderr,
        )
        return 2
    seeds = tuple(args.seeds) if args.seeds else tuple(range(1, args.num_seeds + 1))
    if len(seeds) < 2:
        print(
            "error: a comparison needs at least 2 seeds per policy",
            file=sys.stderr,
        )
        return 2
    try:
        # GridSpec's helper filters --policy-param per policy (and rejects
        # a parameter neither policy declares), exactly like 'grid'.
        policy_params = GridSpec(
            strategies=(args.policy_a, args.policy_b),
            policy_params=_parse_policy_params(args.policy_param),
        ).policy_params_by_strategy()
        cluster = ClusterSpec(
            nodes=args.nodes if args.nodes is not None else 1,
            balancer=args.balancer if args.balancer is not None else "least-loaded",
            balancer_params=_parse_balancer_params(args.balancer_param),
            autoscaler=() if args.autoscale else None,
        )
        # Both policies run under one failure regime — the comparison is
        # between schedulers, the injected faults are part of the
        # environment (and of every cell's cache fingerprint).
        failures = FailureSpec.from_params(
            _parse_failure_params(args.failure_param)
        )
        metrics = args.metrics
        if metrics is None and not failures.is_none:
            # Under injected failures the retry/abandonment behaviour is
            # part of the verdict; fold those counters into the default
            # metric family (Holm correction spans them too).
            metrics = tuple(DEFAULT_METRICS) + ("retries", "gave_up", "failed_calls")

        def config_for(policy: str) -> ExperimentConfig:
            return ExperimentConfig(
                cores=args.cores,
                intensity=args.intensity,
                policy=policy,
                scenario=args.scenario,
                scenario_params=_parse_scenario_params(args.scenario_param),
                policy_params=policy_params[policy],
                cluster=cluster,
                failures=failures,
                retain_records=args.retain_records,
            )

        if args.adaptive:
            max_seeds = (
                args.max_seeds if args.max_seeds is not None else 4 * len(seeds)
            )
            allocation = allocate_seeds(
                config_for(args.policy_a),
                config_for(args.policy_b),
                decision_metrics=(
                    tuple(metrics) if metrics else DEFAULT_DECISION_METRICS
                ),
                seeds=seeds,
                initial_seeds=len(seeds),
                max_seeds=max_seeds,
                batch=args.batch,
                alpha=args.alpha,
                confidence=args.confidence,
                resamples=args.resamples,
                ci_method=args.ci_method,
                jobs=args.jobs,
                cache_dir=args.cache_dir,
                executor=args.executor,
            )
            print(allocation.comparison.render())
            print()
            print(allocation.describe())
            return 0

        configs = [config_for(args.policy_a).with_(seed=s) for s in seeds] + [
            config_for(args.policy_b).with_(seed=s) for s in seeds
        ]
        engine_stats = EngineStats()
        results = run_configs(
            configs,
            jobs=args.jobs,
            cache_dir=args.cache_dir,
            progress=None if args.no_progress else progress_printer(),
            cell_timeout=args.cell_timeout,
            executor=args.executor,
            stats=engine_stats,
        )
    except (ValueError, OSError, WorkerError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    comparison = compare_results(
        results[: len(seeds)],
        results[len(seeds) :],
        metrics=metrics,
        alpha=args.alpha,
        confidence=args.confidence,
        resamples=args.resamples,
        ci_method=args.ci_method,
    )
    print(comparison.render())
    print(f"\n{engine_stats.summary_line()}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "list":
        width = max(len(eid) for eid in EXPERIMENTS)
        for eid, (description, _) in EXPERIMENTS.items():
            print(f"{eid.ljust(width)}  {description}")
        return 0

    if args.command == "scenarios":
        print(_render_catalog(SCENARIOS))
        return 0

    if args.command == "policies":
        print(_render_catalog(POLICY_REGISTRY, "; 'baseline' selects the stock invoker"))
        return 0

    if args.command == "cache":
        return _run_cache(args)

    if args.command == "worker":
        return _run_worker(args)

    if getattr(args, "scenario", None) is not None:
        # Validate scenario parameters up front for a clean CLI error
        # (the config would reject them anyway, but with a traceback).
        try:
            get_scenario(args.scenario).validate_params(
                dict(_parse_scenario_params(args.scenario_param))
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    elif getattr(args, "scenario_param", None):
        # 'run' without --scenario keeps each artifact's own workload;
        # silently dropping the params would be worse than refusing.
        print(
            "error: --scenario-param requires --scenario "
            "(see 'faas-sched scenarios')",
            file=sys.stderr,
        )
        return 2

    if args.command in ("run", "grid", "compare"):
        if args.executor == "queue" and args.cache_dir is None:
            # run_configs would reject this too, but after the sweep's
            # configs are built; fail at argument time instead.
            print(
                "error: --executor queue needs --cache-dir (the shared "
                "cache root is the work queue)",
                file=sys.stderr,
            )
            return 2
        if args.cache_dir is not None:
            # Probe the cache root now: a bad --cache-dir should fail
            # before any experiment time is spent, not at the first
            # store().
            try:
                ResultCache(args.cache_dir)
            except OSError as exc:
                print(f"error: cache directory unusable: {exc}", file=sys.stderr)
                return 2

    if args.command == "run":
        engine_stats = EngineStats()
        try:
            # run_registered rejects a --scenario override for artifacts
            # with fixed workloads and a cluster override for fixed
            # topologies; scenario builds can also fail (empty stochastic
            # scenario, unreadable replay CSV).
            report = run_registered(
                args.experiment,
                quick=not args.full,
                jobs=args.jobs,
                cache_dir=args.cache_dir,
                progress=None if args.no_progress else progress_printer(),
                scenario=args.scenario,
                scenario_params=_parse_scenario_params(args.scenario_param),
                nodes=args.nodes,
                balancers=args.balancer,
                balancer_params=_parse_balancer_params(args.balancer_param),
                autoscale=args.autoscale,
                policies=args.policies,
                policy_params=_parse_policy_params(args.policy_param),
                failure_params=_parse_failure_params(args.failure_param),
                cell_timeout=args.cell_timeout,
                executor=args.executor,
                stats=engine_stats,
            )
        except (ValueError, OSError, WorkerError) as exc:
            # Through worker processes (--jobs > 1 or a cell timeout) the
            # same failures surface as WorkerError; its message carries
            # the failing cell and original exception (rerun with --jobs 1
            # and no timeout for the full traceback).
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(report)
        if engine_stats.total:
            # Table I's sequential client bypasses the engine; every
            # other artifact's sweeps have counters to report.
            print(f"\n{engine_stats.summary_line()}")
        return 0

    if args.command == "compare":
        return _run_compare(args)

    if args.command == "grid":
        try:
            # FailureSpec.from_params rejects unknown fields and invalid
            # values (rates outside [0, 1], non-positive backoff, ...).
            spec = _grid_spec_from_args(args)
        except (ValueError, TypeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.compare is not None and args.per_seed:
            print(
                "error: --compare annotates pooled cell rows; drop --per-seed",
                file=sys.stderr,
            )
            return 2
        try:
            grid = run_grid(
                spec,
                jobs=args.jobs,
                cache_dir=args.cache_dir,
                progress=None if args.no_progress else progress_printer(),
                cell_timeout=args.cell_timeout,
                executor=args.executor,
            )
        except (ValueError, OSError, WorkerError) as exc:
            # e.g. an empty stochastic scenario, an unreadable replay
            # CSV, or a non-numeric policy parameter (the registry's
            # validators raise ValueError) — wrapped in WorkerError when
            # the cells run in worker processes.
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.compare is not None:
            try:
                print(_render_annotated_grid(grid, args))
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
        elif spec.retain_records:
            print(table3_from_grid(grid, per_seed=args.per_seed).render())
        else:
            # Streaming cells have no records for the Table-III renderer;
            # render the same columns from the constant-size accumulators
            # (percentiles are sketch estimates, everything else exact).
            entries = []
            for key in grid.cell_keys():
                if args.per_seed:
                    for result in grid.results_for(key):
                        entries.append(
                            (result.config.label(), result.streaming_summary())
                        )
                else:
                    entries.append(
                        (GridResults.cell_label(key), grid.streaming_summary_for(key))
                    )
            print(
                render_summary_table(
                    entries,
                    title=(
                        "Streaming grid (constant-memory; percentiles are "
                        "t-digest estimates)"
                    ),
                )
            )
        stats = grid.stats
        if stats is not None:
            print(f"\n{stats.summary_line()}")
        return 0

    if args.command == "simulate":
        try:
            # Construction validates scenario params and the cluster
            # topology (balancer name/params, autoscaler); the run can
            # fail on an empty stochastic scenario or a replay CSV that
            # does not exist / cannot be read.
            cfg = ExperimentConfig(
                cores=args.cores,
                intensity=args.intensity,
                policy=args.policy,
                seed=args.seed,
                memory_mb=args.memory_mb,
                scenario=args.scenario,
                scenario_params=_parse_scenario_params(args.scenario_param),
                policy_params=_parse_policy_params(args.policy_param),
                failures=FailureSpec.from_params(
                    _parse_failure_params(args.failure_param)
                ),
                cluster=ClusterSpec(
                    nodes=args.nodes if args.nodes is not None else 1,
                    balancer=args.balancer if args.balancer is not None else "least-loaded",
                    balancer_params=_parse_balancer_params(args.balancer_param),
                    autoscaler=() if args.autoscale else None,
                ),
                retain_records=args.retain_records,
            )
            result = run_experiment(cfg)
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        summary = result.summary() if result.retained else result.streaming_summary()
        print(render_summary_table([(cfg.label(), summary)]))
        if not result.retained:
            print(
                "(streaming mode: percentiles are t-digest estimates; "
                "counts, means, makespan and cold starts are exact)"
            )
        if not cfg.failures.is_none:
            print(
                f"\nfailures injected: retries: {summary.retries}  "
                f"gave up: {summary.gave_up}  failed calls: {summary.failed_calls}"
            )
        if result.balancer_stats is not None and result.retained:
            # Cluster run: the per-node breakdown says how the fleet was
            # used (spread, utilization divergence, routing spills).
            print()
            print(cluster_breakdown(result).render())
        elif result.balancer_stats is not None:
            # Streaming cluster run: the per-record breakdown needs
            # retained records; the balancer counters survive.
            bstats = result.balancer_stats
            print(
                f"\nbalancer: {bstats.get('balancer')}  "
                f"picks: {bstats.get('picks')}  spills: {bstats.get('spills', 0)}"
            )
        else:
            stats = result.node_stats[0]
            print(
                f"\ncold starts: {stats['cold_starts']}  evictions: {stats['evictions']}  "
                f"hot hits: {stats['hot_hits']}  warm hits: {stats['warm_hits']}\n"
                f"cpu utilization: {stats['cpu_utilization']:.2f}  "
                f"daemon utilization: {stats['daemon_utilization']:.2f}"
            )
        return 0

    return 1  # pragma: no cover - argparse enforces commands


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
