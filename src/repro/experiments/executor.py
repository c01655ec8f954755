"""Pluggable grid-execution backends behind one ``Executor`` interface.

The parallel engine historically had exactly one execution strategy: a
local process-per-cell pool owned by the submitting process.  A full
scenario × policy × cluster × seed × failure sweep outgrows one
machine, so :func:`~repro.experiments.parallel.run_configs` now
delegates the *"run these pending cells"* step to an executor selected
by name:

``local`` (default)
    The historical engine, byte-for-byte: ``jobs=1`` runs cells inline
    in the submitting process (failures raise the original exception),
    ``jobs>1`` shards them across the crash-hardened
    :class:`~repro.experiments.parallel._ProcessEngine`.

``queue``
    The distributed mode (:mod:`repro.experiments.queue`): pending
    cells are enqueued as fingerprint-keyed claim files under the
    shared cache root, and any number of ``faas-sched worker``
    processes — on this host or any host sharing the cache directory —
    claim, compute, and store them.  The submitting process
    participates as a worker itself, so a queue sweep with no external
    workers still completes; with them it scales out.  The cache entry
    is the done-marker, which makes every sweep resumable by
    construction.

Executors never see cache *hits*: :func:`run_configs` serves those
before delegating, so a backend only ever receives genuinely pending
cells.  Storing computed results into the cache is each backend's
responsibility (the queue protocol must store *before* releasing a
cell's lease; the local path stores as cells finish).

Selection: the ``executor=`` argument (threaded through
``run_grid``/``EngineOptions``/the CLI's ``--executor`` flag), else the
``REPRO_EXECUTOR`` environment variable, else ``local``.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.experiments.config import ExperimentConfig
from repro.experiments.parallel import EngineStats, ResultCache, Runner
from repro.experiments.runner import ExperimentResult, run_experiment

__all__ = [
    "EXECUTOR_ENV",
    "ExecutionContext",
    "Executor",
    "FinishedCallback",
    "LocalExecutor",
    "executor_names",
    "get_executor",
    "register_executor",
]

#: Environment variable supplying the default executor name.
EXECUTOR_ENV = "REPRO_EXECUTOR"

#: ``callback(index, config, result, cached)`` — invoked exactly once per
#: pending cell, in completion order (results are slotted by ``index``).
FinishedCallback = Callable[[int, ExperimentConfig, ExperimentResult, bool], None]


@dataclass
class ExecutionContext:
    """Everything a backend needs to run one batch of pending cells."""

    #: Requested worker parallelism (meaning is backend-specific: local
    #: process count, or local helper-worker count for the queue).
    jobs: int = 1
    #: The sweep's result cache, or ``None`` when caching is disabled.
    #: Backends that compute a cell must store it here themselves.
    cache: Optional[ResultCache] = None
    #: Per-cell wall-clock budget in seconds (``None``: unbounded).
    cell_timeout: Optional[float] = None
    #: Live counters to fill in place (retries, timeouts, ...).
    stats: EngineStats = field(default_factory=EngineStats)
    #: What computes each cell: ``run_configs``' ``runner`` argument, or
    #: :func:`~repro.experiments.runner.run_experiment`.
    runner: Runner = run_experiment


class Executor(ABC):
    """One grid-execution strategy.

    Implementations must call ``finished`` exactly once per pending cell
    and must be deterministic in *content*: whatever process computes a
    cell, the stored/returned result is bit-identical to the serial path
    (each cell seeds its own RNGs from its config — see
    :mod:`repro.experiments.parallel`).
    """

    #: Registry name (``--executor`` spelling).
    name: str = "?"

    @abstractmethod
    def execute(
        self,
        pending: List[Tuple[int, ExperimentConfig]],
        finished: FinishedCallback,
        context: ExecutionContext,
    ) -> None:
        """Run every pending ``(index, config)`` cell with
        ``context.runner``."""


class LocalExecutor(Executor):
    """The historical in-process engine, unchanged in behaviour.

    ``jobs=1`` runs cells inline (exceptions propagate untouched, the
    exact code path the repo has always had); ``jobs>1`` uses the
    crash-hardened process-per-cell engine (killed workers respawned
    with backoff, hung cells cancelled on the per-cell deadline).
    """

    name = "local"

    def execute(
        self,
        pending: List[Tuple[int, ExperimentConfig]],
        finished: FinishedCallback,
        context: ExecutionContext,
    ) -> None:
        cache = context.cache

        def done(
            index: int, config: ExperimentConfig, result: ExperimentResult, cached: bool
        ) -> None:
            if cache is not None:
                cache.store(config, result)
            finished(index, config, result, cached)

        if context.jobs <= 1:
            for index, config in pending:
                done(index, config, context.runner(config), cached=False)
            return
        from repro.experiments.parallel import _ProcessEngine

        engine = _ProcessEngine(
            workers=min(context.jobs, len(pending)),
            cell_timeout=context.cell_timeout,
            stats=context.stats,
            runner=context.runner,
        )
        engine.run(pending, done)


def _local_factory() -> Executor:
    return LocalExecutor()


def _queue_factory() -> Executor:
    # Imported lazily: queue.py subclasses Executor from this module.
    from repro.experiments.queue import QueueExecutor

    return QueueExecutor()


_EXECUTORS: Dict[str, Callable[[], Executor]] = {
    "local": _local_factory,
    "queue": _queue_factory,
}


def executor_names() -> List[str]:
    """Registered executor names, sorted (CLI ``--executor`` choices)."""
    return sorted(_EXECUTORS)


def register_executor(name: str, factory: Callable[[], Executor]) -> None:
    """Register a custom execution backend under ``name``.

    Duplicate names are rejected: silently replacing ``local`` or
    ``queue`` would change the meaning of every existing sweep.
    """
    if name in _EXECUTORS:
        raise ValueError(f"executor {name!r} is already registered")
    _EXECUTORS[name] = factory


def get_executor(name: Optional[str] = None) -> Executor:
    """The executor for ``name`` (``None``: ``$REPRO_EXECUTOR`` or local)."""
    if name is None:
        name = os.environ.get(EXECUTOR_ENV, "").strip() or "local"
    try:
        factory = _EXECUTORS[name]
    except KeyError:
        raise ValueError(
            f"unknown executor {name!r}; available: {', '.join(executor_names())}"
        ) from None
    return factory()
