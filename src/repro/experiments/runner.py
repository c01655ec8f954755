"""Experiment execution: warm-up → 60-second burst → drain (Sect. V-A).

:func:`run_experiment` builds the config's fleet — per-node
configurations, a load balancer, optionally a reactive autoscaler and a
node-crash injector — and drives the config's scenario through it.  The
default :class:`~repro.cluster.spec.ClusterSpec` is a fleet of one: the
paper's single-node protocol (Sects. V–VII) and its multi-node runs
(Sect. VIII) take the same path.  Every run is fully deterministic given
the config, which is what lets the parallel engine cache and shard it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.cluster.autoscaler import ReactiveAutoscaler
from repro.cluster.controller import make_balancer
from repro.cluster.platform import FaaSPlatform
from repro.experiments.config import ExperimentConfig
from repro.failures.injector import FailureInjector
from repro.failures.rng import FailureRng
from repro.metrics.records import CallRecord
from repro.metrics.stats import SummaryStats, summarize
from repro.metrics.streaming import StreamingSummary, SummaryAccumulator
from repro.node.baseline import BaselineInvoker
from repro.node.config import NodeConfig
from repro.node.invoker import Invoker, _Node
from repro.sim.core import Environment
from repro.sim.rng import RngRegistry
from repro.workload.functions import sebs_catalog
from repro.workload.registry import build_scenario, build_scenario_stream

__all__ = [
    "ExperimentResult",
    "RecordsNotRetainedError",
    "run_experiment",
    "run_repetitions",
]


class RecordsNotRetainedError(RuntimeError):
    """A record-derived view was requested from a streaming result.

    Raised *before* any iteration starts, with the accessor's name and the
    streaming alternative, instead of letting ``None`` crash mid-pipeline
    deep inside a metrics aggregation.
    """

    def __init__(self, what: str, alternative: str) -> None:
        super().__init__(
            f"{what} requires retained call records, but this result was "
            f"produced with retain_records=False (streaming mode); use "
            f"{alternative}, or rerun with retain_records=True"
        )
        self.what = what
        self.alternative = alternative


@dataclass
class ExperimentResult:
    """Everything one run produced.

    ``records`` holds the full per-call list on retained runs (the
    default) and ``None`` on streaming runs (``retain_records=False``),
    where only the constant-size ``accumulator`` exists.  Record-derived
    accessors raise :class:`RecordsNotRetainedError` on streaming results;
    :meth:`streaming_summary` and :attr:`cold_starts` work on both.
    """

    config: ExperimentConfig
    records: Optional[List[CallRecord]]
    #: Per-invoker diagnostics.
    node_stats: List[Dict[str, float]]
    #: Cluster routing diagnostics (balancer name, picks, spills, spill
    #: rate, autoscaler scale events, node crashes); ``None`` on the
    #: default fleet of one.
    balancer_stats: Optional[Dict[str, Any]] = None
    #: Constant-size streaming fold of every completed call (populated by
    #: the runner in both modes; ``None`` only on legacy pre-streaming
    #: results and hand-built instances, where :meth:`streaming_summary`
    #: falls back to folding the retained records).
    accumulator: Optional[SummaryAccumulator] = None

    @property
    def retained(self) -> bool:
        """Whether the full call-record list was kept."""
        return self.records is not None

    def _require_records(self, what: str, alternative: str) -> List[CallRecord]:
        if self.records is None:
            raise RecordsNotRetainedError(what, alternative)
        return self.records

    def summary(self) -> SummaryStats:
        """Exact summary statistics from the retained records; streaming
        results raise — use :meth:`streaming_summary` there (exact counts
        and means, sketched percentiles)."""
        return summarize(
            self._require_records("ExperimentResult.summary()", "streaming_summary()")
        )

    def streaming_summary(self) -> StreamingSummary:
        """Summary from the constant-size accumulator: ``n_calls``,
        means, ``cold_starts`` and ``max_completion_time`` are exact
        (bit-identical to a retained run); percentiles are t-digest
        estimates within :meth:`~repro.metrics.streaming.TDigest
        .rank_error_bound`.  Works on retained results too (folding the
        records on the fly when no accumulator was attached)."""
        if self.accumulator is not None:
            return self.accumulator.summary()
        acc = SummaryAccumulator()
        for record in self._require_records(
            "ExperimentResult.streaming_summary()", "a result with an accumulator"
        ):
            acc.add(record)
        return acc.summary()

    def records_for(self, function_name: str) -> List[CallRecord]:
        records = self._require_records(
            "ExperimentResult.records_for()", "streaming_summary()"
        )
        return [r for r in records if r.function_name == function_name]

    @property
    def response_times(self) -> List[float]:
        records = self._require_records(
            "ExperimentResult.response_times",
            "streaming_summary().mean_response_time / .response_time_percentiles",
        )
        return [r.response_time for r in records]

    @property
    def stretches(self) -> List[float]:
        records = self._require_records(
            "ExperimentResult.stretches",
            "streaming_summary().mean_stretch / .stretch_percentiles",
        )
        return [r.stretch for r in records]

    @property
    def makespan(self) -> float:
        """``max c(i)`` — the moment the last response reached its client."""
        records = self._require_records(
            "ExperimentResult.makespan",
            "streaming_summary().max_completion_time (the identical value)",
        )
        return max(r.completed_at for r in records)

    @property
    def cold_starts(self) -> int:
        """Cold-started calls — exact in both modes (the accumulator
        tallies cold starts at completion time)."""
        if self.records is not None:
            return sum(1 for r in self.records if r.cold_start)
        return self.accumulator.cold_starts  # type: ignore[union-attr]

    def cluster_summary(self):
        """Per-node breakdown (utilization, imbalance, spill rate); see
        :func:`repro.metrics.cluster.cluster_breakdown`."""
        from repro.metrics.cluster import cluster_breakdown

        self._require_records(
            "ExperimentResult.cluster_summary()",
            "node_stats (per-invoker diagnostics survive streaming runs)",
        )
        return cluster_breakdown(self)


def _node_stats(invoker: _Node, include_failures: bool = False) -> Dict[str, float]:
    stats = {
        "name": invoker.name,
        "is_baseline": invoker.is_baseline,
        "cold_starts": invoker.pool.cold_starts,
        "prewarm_starts": invoker.pool.prewarm_starts,
        "warm_hits": invoker.pool.warm_hits,
        "hot_hits": invoker.pool.hot_hits,
        "evictions": invoker.pool.evictions,
        "peak_memory_mb": invoker.memory.peak_used_mb,
        "cpu_utilization": invoker.cpu.utilization(),
        "daemon_utilization": invoker.daemon.utilization(),
        "daemon_ops": dict(invoker.daemon.op_counts),
        "completed": invoker.completed_count,
    }
    if include_failures:
        # Gated so failure-free results — and the golden fingerprints
        # computed over them — keep their historical shape.
        stats["node_crashes"] = invoker.node_crashes
        stats["container_kills"] = invoker.container_kills
        stats["crash_dropped"] = invoker.crash_dropped
    return stats


def _build_invoker(
    env: Environment, config: ExperimentConfig, name: str, node_config: NodeConfig
) -> _Node:
    if config.is_baseline:
        return BaselineInvoker(env, node_config, name=name)
    return Invoker(
        env,
        node_config,
        policy=config.policy,
        name=name,
        policy_params=config.policy_kwargs(),
    )


def _no_requests(config: ExperimentConfig) -> ValueError:
    """Stochastic scenarios (poisson/diurnal/trace with tiny rates, or a
    replay of an all-zero trace) can legitimately draw zero arrivals;
    runs fail with the offending config rather than deep inside the
    metrics aggregation."""
    return ValueError(
        f"scenario {config.scenario!r} produced no requests for "
        f"{config.label()} (params {dict(config.scenario_params)}); "
        f"increase the rate/counts or the window"
    )


def _build_workload(config: ExperimentConfig, rngs: RngRegistry):
    """The config's workload through the scenario registry: materialised,
    or in streaming mode a lazy
    :class:`~repro.workload.generator.RequestStream` where the scenario
    has a streaming builder (``replay``).

    Any scenario registered via
    :func:`repro.workload.registry.register_scenario` is runnable here —
    and therefore through the grid, the parallel engine, the cache, and
    the CLI — without touching this module.
    """
    builder = build_scenario if config.retain_records else build_scenario_stream
    return builder(
        config.scenario,
        config.cores,
        config.intensity,
        rngs.get("scenario"),
        window=config.window_s,
        params=config.scenario_kwargs(),
    )


def _drive_platform(
    config: ExperimentConfig, platform: FaaSPlatform, workload
) -> "tuple[Optional[List[CallRecord]], SummaryAccumulator]":
    """Run *workload* through *platform*, folding every completed call
    into a fresh accumulator; returns ``(records-or-None, accumulator)``.

    The accumulator folds in **both** modes, at the same (completion-
    order) moments, so streaming and retained runs produce bit-identical
    accumulator state by construction.
    """
    retain = config.retain_records
    accumulator = SummaryAccumulator()
    records = platform.run_scenario(
        workload, retain_records=retain, collector=accumulator
    )
    if accumulator.n_calls == 0:
        # One check for both workload shapes: a stream's emptiness is
        # only observable after draining it.
        raise _no_requests(config)
    return (records if retain else None), accumulator


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run one experiment end to end on the config's fleet.

    The default topology is a fleet of one.  It differs from an N-node
    fleet only where the golden fingerprints and cached payloads need
    it: its invoker is named ``"<policy>-node"`` (not ``"-node-0"``),
    its ``balancer_stats`` is ``None``, and it runs no
    :class:`~repro.failures.injector.FailureInjector` — the last live
    node never crashes, and the injector's calendar entries would shift
    same-time tie-breaking.  Container kills, stragglers and timeouts
    still apply.

    Determinism contract: the scenario draws from the ``"scenario"`` RNG
    stream, balancer sampling PRNGs are seeded from ``config.seed``, and
    the autoscaler is threshold-driven — so results are bit-identical
    across the serial and parallel engines for every topology.
    """
    env = Environment()
    rngs = RngRegistry(config.seed)
    cluster = config.cluster
    single = cluster.is_default

    base_node = config.node_config()
    invokers = [
        _build_invoker(
            env,
            config,
            f"{config.policy}-node" if single else f"{config.policy}-node-{i}",
            node_config,
        )
        for i, node_config in enumerate(cluster.node_configs(base_node))
    ]
    if config.warmup:
        catalog = sebs_catalog()
        for invoker in invokers:
            invoker.warm_up(catalog)

    workload = _build_workload(config, rngs)

    balancer_kwargs = cluster.balancer_kwargs()
    balancer = make_balancer(
        cluster.balancer,
        invokers,
        # An explicit `seed` balancer param pins the sampling PRNG; the
        # experiment's root seed drives it otherwise.
        seed=balancer_kwargs.pop("seed", config.seed),
        **balancer_kwargs,
    )
    autoscaler_config = cluster.autoscaler_config()
    autoscaler: Optional[ReactiveAutoscaler] = None
    if autoscaler_config is not None:
        # The autoscaler appends to the same (live) list the balancer and
        # platform hold, so scaled-out nodes become routable immediately.
        # Scaled-out nodes rebuild the policy from the experiment config:
        # name, policy_params, and the node's estimator settings.
        autoscaler = ReactiveAutoscaler(
            env,
            invokers,
            config=autoscaler_config,
            factory=lambda index: _build_invoker(
                env, config, f"scaled-{index}", base_node
            ),
        )

    failures = None if config.failures.is_none else config.failures
    failure_rng = None if failures is None else FailureRng(config.seed)
    platform = FaaSPlatform(
        env, invokers, balancer=balancer, failures=failures, failure_rng=failure_rng
    )
    injector: Optional[FailureInjector] = None
    roster = list(invokers)
    if failures is not None and failures.has_node_crashes and not single:
        # Crash schedules run against the same live list the balancer and
        # autoscaler hold; roster nodes drop out and rejoin in place.
        injector = FailureInjector(env, failures, invokers, failure_rng)
    records, accumulator = _drive_platform(config, platform, workload)
    if autoscaler is not None:
        autoscaler.stop()
    if injector is not None:
        injector.stop()

    balancer_stats: Optional[Dict[str, Any]] = None
    if not single:
        balancer_stats = {"balancer": cluster.balancer, **balancer.stats.as_dict()}
        if autoscaler is not None:
            balancer_stats["scale_events"] = [
                [time, size] for time, size in autoscaler.scale_events
            ]
        if injector is not None:
            balancer_stats["node_crashes"] = injector.crashes
            balancer_stats["skipped_crashes"] = injector.skipped_crashes
    # Stats cover every node that ever served: the roster (a node still
    # down when the run ends has left the live list) plus autoscaled
    # additions, in roster-then-live order (the historical order when no
    # crash is outstanding).
    fleet = list(dict.fromkeys([*roster, *invokers]))
    return ExperimentResult(
        config=config,
        records=records,
        node_stats=[
            _node_stats(invoker, include_failures=failures is not None)
            for invoker in fleet
        ],
        balancer_stats=balancer_stats,
        accumulator=accumulator,
    )


def run_repetitions(
    config: ExperimentConfig,
    seeds: Sequence[int] = (1, 2, 3, 4, 5),
    *,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
) -> List[ExperimentResult]:
    """The paper's 5-repetition protocol: same configuration, different
    random call sequences.

    ``jobs``/``cache_dir`` route the repetitions through the
    :mod:`repro.experiments.parallel` engine (worker pool + on-disk result
    cache); ``jobs=1`` without a cache is the plain serial path.
    """
    # Local import: parallel imports run_experiment from this module.
    from repro.experiments.parallel import run_configs

    return run_configs(
        [config.with_(seed=seed) for seed in seeds], jobs=jobs, cache_dir=cache_dir
    )
