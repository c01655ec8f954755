"""Parallel experiment execution with an on-disk result cache.

The paper's evaluation is a grid of cores × intensity × strategy × 5 seeds
(Tables II–IV, Figs. 3–4 and the appendix figures); every cell is an
independent, fully seeded simulation.  This module exploits that
independence twice:

* **Parallelism** — :func:`run_configs` shards a list of experiment
  configurations across ``jobs=N`` long-lived worker processes, which
  store the cells they compute.  Results are slotted by input index, so
  the returned list order — and, because every run is deterministic given
  its config, every byte of every result — is identical to the serial
  path.  The engine is crash-hardened: a killed worker's cell is retried
  once with backoff before surfacing as a :class:`WorkerError`, and a
  per-cell wall-clock timeout (``REPRO_CELL_TIMEOUT`` / ``cell_timeout=``)
  cancels hung cells while the rest of the sweep completes.  The same
  supervisor serves both executors: a ``local`` worker runs and stores
  its cell, a ``queue`` worker claims it through the shared cache root
  (:mod:`repro.experiments.queue`).

* **Caching** — :class:`ResultCache` persists each
  :class:`~repro.experiments.runner.ExperimentResult` under a
  content-addressed key: a SHA-256 over the canonical JSON form of the
  config, the package version, and the cache schema version
  (:func:`config_fingerprint`).  Re-running a grid, or regenerating a
  different artifact view over the same grid, only computes missing cells.
  A version bump changes every fingerprint, so stale entries are never
  hit — invalidation is structural, not TTL-based.

Determinism contract: workers never share RNG state.  Each cell builds its
own :class:`~repro.sim.rng.RngRegistry` from ``config.seed`` inside the
worker process, exactly as the serial path does, which is why parallel
results are bit-identical to serial ones (enforced by
``tests/experiments/test_parallel.py``), however many cells a worker runs.
"""

from __future__ import annotations

import functools
import hashlib
import json
import multiprocessing
import multiprocessing.connection
import multiprocessing.util
import os
import sys
import time
import traceback
from collections import deque
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, TextIO, Tuple, Union

import repro
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ExperimentResult, run_experiment
from repro.metrics.serialize import records_from_columns, records_to_columns
from repro.metrics.streaming import SummaryAccumulator

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "EXECUTORS",
    "CacheVerification",
    "EngineOptions",
    "EngineStats",
    "ResultCache",
    "WorkerError",
    "config_fingerprint",
    "config_to_dict",
    "config_from_dict",
    "result_to_payload",
    "result_from_payload",
    "run_configs",
    "progress_printer",
    "verify_cache",
]

Runner = Callable[[ExperimentConfig], ExperimentResult]
ProgressCallback = Callable[[int, int, str, bool], None]
#: What a worker does with one pending cell: compute or load it, store it,
#: and return it; ``None`` when a live worker elsewhere holds it (queue).
Cell = Callable[[ExperimentConfig], Optional[ExperimentResult]]

#: The executors: what a worker does with a cell (``local``: run and
#: store it; ``queue``: claim it through the shared cache root).
EXECUTORS = ("local", "queue")

#: Bump when the cached payload layout changes; old entries then miss.
#: v2: configs carry ``scenario_params`` (scenario registry).
#: v3: configs carry ``cluster`` (ClusterSpec) and results carry
#: ``balancer_stats`` (cluster routing diagnostics).
#: v4: configs carry ``policy_params`` (scheduling-policy registry).
#: v5: configs carry ``retain_records``; results carry ``accumulator``
#: (streaming metrics fold) and ``records`` may be ``null``.
#: v6: configs carry ``failures`` (FailureSpec); records may carry
#: ``attempts``/``outcome`` and summaries the failure counters.
#: v7: ``records`` is stored column by column (float columns as packed
#: little-endian float64 bytes, see :mod:`repro.metrics.serialize`).
#: v8: concurrently autoscaled nodes get unique names (v7 repeated them).
#: v9: the accumulator's t-digests store their centroid means and weights
#: as packed little-endian float64 bytes, as the record float columns are.
CACHE_SCHEMA_VERSION = 9


# ----------------------------------------------------------------------
# Config / result serialization and fingerprinting
# ----------------------------------------------------------------------
#: Config fields holding ``(name, value)`` pair tuples, serialized as
#: lists-of-lists.
_PAIR_FIELDS = ("node_overrides", "scenario_params", "policy_params")


#: Type tag of every serialized config (the only config type there is).
_CONFIG_TYPE = "ExperimentConfig"


def config_to_dict(config: ExperimentConfig) -> Dict[str, Any]:
    """A JSON-compatible, type-tagged dict of a config's fields."""
    data = {f.name: getattr(config, f.name) for f in fields(config)}
    for name in _PAIR_FIELDS:
        data[name] = [list(pair) for pair in data[name]]
    data["cluster"] = config.cluster.to_dict()
    data["failures"] = config.failures.to_dict()
    return {"type": _CONFIG_TYPE, "fields": data}


def config_from_dict(payload: Dict[str, Any]) -> ExperimentConfig:
    """Inverse of :func:`config_to_dict`; any other type tag raises
    :class:`ValueError` (a cache entry then loads as a miss).  Construction
    freezes the lists-of-lists back into pairs and the ``cluster`` and
    ``failures`` dicts back into their specs."""
    if payload["type"] != _CONFIG_TYPE:
        raise ValueError(f"unknown config type {payload['type']!r}")
    return ExperimentConfig(**payload["fields"])


def config_fingerprint(config: ExperimentConfig, *, namespace: str = "") -> str:
    """Content-addressed cache key: SHA-256 over the canonical JSON form of
    the config plus the package and cache-schema versions.

    Any field change, package version bump, or schema bump yields a new
    fingerprint, so the cache never serves results produced by different
    code or a different configuration.  ``namespace`` separates results
    produced by different runners (see :class:`ResultCache`).
    """
    material = {
        "schema": CACHE_SCHEMA_VERSION,
        "package_version": repro.__version__,
        "namespace": namespace,
        "config": config_to_dict(config),
    }
    blob = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def result_to_payload(result: ExperimentResult) -> Dict[str, Any]:
    """A JSON-compatible payload for one experiment result.

    Retained records are stored column by column
    (:func:`~repro.metrics.serialize.records_to_columns`), which keeps
    every float bit.  Streaming results (``records is None``) serialize a
    ``null`` record list plus the constant-size accumulator — a cached
    million-invocation streaming cell stays a few hundred bytes on disk.
    """
    return {
        "config": config_to_dict(result.config),
        "records": None if result.records is None else records_to_columns(result.records),
        "node_stats": result.node_stats,
        "balancer_stats": result.balancer_stats,
        "accumulator": (
            None if result.accumulator is None else result.accumulator.to_dict()
        ),
    }


def result_from_payload(payload: Dict[str, Any]) -> ExperimentResult:
    """Inverse of :func:`result_to_payload`."""
    records = payload["records"]
    accumulator = payload.get("accumulator")
    return ExperimentResult(
        config=config_from_dict(payload["config"]),
        records=None if records is None else records_from_columns(records),
        node_stats=payload["node_stats"],
        balancer_stats=payload.get("balancer_stats"),
        accumulator=(
            None if accumulator is None else SummaryAccumulator.from_dict(accumulator)
        ),
    )


# ----------------------------------------------------------------------
# On-disk cache
# ----------------------------------------------------------------------
class ResultCache:
    """Content-addressed result store under ``root``.

    Entries live at ``root/<fp[:2]>/<fp>.json`` (two-level fan-out keeps
    directories small on full-paper grids).  Writes are atomic
    (temp file + :func:`os.replace`), so concurrent workers or interrupted
    runs never leave a partially written entry; corrupt or unreadable
    entries are treated as misses and recomputed.
    """

    def __init__(self, root: Union[str, Path], namespace: str = "") -> None:
        # expanduser: '~/...' roots arrive unexpanded from Python callers
        # and env vars (REPRO_CACHE_DIR); without this a literal '~'
        # directory appears in the CWD and the cache is never shared with
        # shell-expanded CLI paths.
        self.root = Path(root).expanduser()
        # Fail fast on an unusable root (e.g. an existing file) before any
        # experiment time is spent computing results that cannot be stored.
        self.root.mkdir(parents=True, exist_ok=True)
        #: Mixed into every fingerprint; the engine sets this to the custom
        #: runner's qualified name so results produced by different runners
        #: never collide in a shared cache directory.
        self.namespace = namespace
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def path_for(self, config: ExperimentConfig) -> Path:
        fingerprint = config_fingerprint(config, namespace=self.namespace)
        return self.root / fingerprint[:2] / f"{fingerprint}.json"

    def load(self, config: ExperimentConfig) -> Optional[ExperimentResult]:
        """The cached result for ``config``, or ``None`` on a miss."""
        path = self.path_for(config)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            result = result_from_payload(payload["result"])
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            return None
        self.hits += 1
        return result

    def store(self, config: ExperimentConfig, result: ExperimentResult) -> Path:
        """Persist ``result`` under ``config``'s fingerprint atomically."""
        path = self.path_for(config)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "fingerprint": path.stem,
            "schema": CACHE_SCHEMA_VERSION,
            "package_version": repro.__version__,
            "result": result_to_payload(result),
        }
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(json.dumps(payload), encoding="utf-8")
        os.replace(tmp, path)
        self.stores += 1
        return path


# ----------------------------------------------------------------------
# Cache verification
# ----------------------------------------------------------------------
#: Sidecar directory for quarantined entries.  Not two hex characters, so
#: the scan (and the cache's own two-level fan-out) never visits it.
QUARANTINE_DIR = "quarantine"


@dataclass
class CacheVerification:
    """What :func:`verify_cache` found under one cache root."""

    scanned: int = 0
    ok: int = 0
    #: Truncated, non-JSON, or payload-invalid entries.
    corrupt: int = 0
    #: Entries written under a different cache schema or package version
    #: (they can never be hits — fingerprints cover both — but they
    #: accumulate as dead weight until quarantined).
    stale: int = 0
    #: Quarantined file names (relative to the quarantine dir).
    quarantined: List[str] = field(default_factory=list)

    @property
    def bad(self) -> int:
        return self.corrupt + self.stale


def _classify_entry(path: Path) -> Optional[str]:
    """``None`` for a healthy entry, else ``"corrupt"`` or ``"stale"``."""
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(payload, dict):
            raise ValueError("payload is not an object")
        if (
            payload.get("schema") != CACHE_SCHEMA_VERSION
            or payload.get("package_version") != repro.__version__
        ):
            return "stale"
        if payload.get("fingerprint") != path.stem:
            return "corrupt"
        result_from_payload(payload["result"])
    except (OSError, ValueError, KeyError, TypeError):
        return "corrupt"
    return None


def verify_cache(
    root: Union[str, Path], *, quarantine: bool = True
) -> CacheVerification:
    """Scan a cache root and classify every entry.

    Walks the two-level fan-out (``<2 hex>/<fingerprint>.json``), parsing
    and fully deserializing each entry.  Truncated/corrupt JSON (e.g. a
    machine that lost power mid-``os.replace`` on a non-atomic filesystem)
    and schema- or version-stale entries are moved to
    ``<root>/quarantine/`` (when ``quarantine=True``), so the cache holds
    only entries that can actually be served.  ``ResultCache.load`` treats
    bad entries as misses anyway — verification exists to *report* the
    damage and reclaim the namespace, not to make loads safe.
    """
    root = Path(root).expanduser()
    report = CacheVerification()
    if not root.is_dir():
        return report
    quarantine_dir = root / QUARANTINE_DIR
    shards = [
        entry
        for entry in sorted(root.iterdir())
        if entry.is_dir() and len(entry.name) == 2
        and all(c in "0123456789abcdef" for c in entry.name)
    ]
    for shard in shards:
        for path in sorted(shard.glob("*.json")):
            report.scanned += 1
            verdict = _classify_entry(path)
            if verdict is None:
                report.ok += 1
                continue
            if verdict == "stale":
                report.stale += 1
            else:
                report.corrupt += 1
            if quarantine:
                quarantine_dir.mkdir(parents=True, exist_ok=True)
                target = quarantine_dir / f"{shard.name}-{path.name}"
                os.replace(path, target)
                report.quarantined.append(target.name)
    return report


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------
@dataclass
class EngineStats:
    """What one :func:`run_configs` invocation did."""

    total: int = 0
    computed: int = 0
    cached: int = 0
    jobs: int = 1
    #: Cells retried because their worker process died (e.g. OOM-killed).
    retries: int = 0
    #: Cells cancelled for exceeding the per-cell wall-clock timeout.
    timeouts: int = 0
    #: Which of :data:`EXECUTORS` ran the sweep.
    executor: str = "local"
    #: Wall-clock seconds spent inside :func:`run_configs`.
    elapsed: float = 0.0

    def summary_line(self) -> str:
        """The one-line human engine summary printed after every sweep."""
        return (
            f"engine: {self.total} runs "
            f"({self.computed} computed, {self.cached} from cache, "
            f"jobs={self.jobs}, executor={self.executor}) "
            f"retries={self.retries} timeouts={self.timeouts} "
            f"elapsed={self.elapsed:.1f}s"
        )


@dataclass(frozen=True)
class EngineOptions:
    """Execution knobs threaded through the artifact registry and CLI."""

    jobs: int = 1
    cache_dir: Optional[str] = None
    progress: Optional[ProgressCallback] = None
    #: Per-cell wall-clock budget in seconds; ``None`` defers to the
    #: ``REPRO_CELL_TIMEOUT`` environment variable.
    cell_timeout: Optional[float] = None
    #: One of :data:`EXECUTORS`.
    executor: str = "local"
    #: An :class:`EngineStats` filled in place across the artifact's
    #: sweeps, so callers (the CLI) can print the engine summary line.
    stats: Optional[EngineStats] = field(default=None, compare=False)

    def run_kwargs(self) -> Dict[str, Any]:
        return {
            "jobs": self.jobs,
            "cache_dir": self.cache_dir,
            "progress": self.progress,
            "cell_timeout": self.cell_timeout,
            "executor": self.executor,
            "stats": self.stats,
        }


class WorkerError(RuntimeError):
    """An experiment raised inside a worker process.

    Carries the failing config's label and the remote traceback text, since
    the original exception object cannot always cross the process boundary.
    """

    def __init__(self, label: str, message: str, remote_traceback: str) -> None:
        super().__init__(f"experiment {label!r} failed in worker: {message}")
        self.label = label
        self.remote_traceback = remote_traceback


def progress_printer(stream: Optional[TextIO] = None) -> ProgressCallback:
    """A progress callback writing ``[done/total] run|cache <label>`` lines
    (to stderr by default, keeping stdout clean for rendered reports)."""

    def report(done: int, total: int, label: str, cached: bool) -> None:
        out = stream if stream is not None else sys.stderr
        out.write(f"[{done:>4}/{total}] {'cache' if cached else 'run  '} {label}\n")
        out.flush()

    return report


def _runner_namespace(runner: Runner) -> str:
    """Cache namespace for a custom runner (empty for
    :func:`~repro.experiments.runner.run_experiment`, named or not).

    Runners without a stable qualified name (lambdas, partials) fall back
    to ``repr`` — nondeterministic across processes, which safely degrades
    such caches to per-invocation scope rather than ever serving another
    runner's results.
    """
    if runner is run_experiment:
        return ""
    module = getattr(runner, "__module__", "?")
    qualname = getattr(runner, "__qualname__", None)
    if not qualname or "<lambda>" in qualname:
        return repr(runner)
    return f"{module}.{qualname}"


_OK, _ERR = "ok", "err"

#: Environment variable supplying the default per-cell wall-clock budget.
CELL_TIMEOUT_ENV = "REPRO_CELL_TIMEOUT"
#: A cell whose worker dies (killed, not erroring) is attempted this many
#: times in total before it surfaces as a :class:`WorkerError`.
_CRASH_MAX_ATTEMPTS = 2
#: Backoff before a dead worker's cell is requeued: base * 2**(attempt-1).
_CRASH_BACKOFF_S = 0.25
#: Longest the parent blocks on worker results before it looks at
#: deadlines and backoffs again.
_POLL_S = 0.05
#: A cell that a live worker elsewhere holds is offered again after this
#: long; also ``faas-sched worker``'s default queue scan interval.
QUEUE_POLL_S = 0.2


def _compute(
    runner: Runner, cache: Optional[ResultCache], config: ExperimentConfig
) -> ExperimentResult:
    """The ``local`` executor's cell: run it, and store it when the sweep
    has a cache."""
    result = runner(config)
    if cache is not None:
        cache.store(config, result)
    return result


def _worker_main(tasks, results, cell: Cell) -> None:
    """Worker process loop: handle each ``(index, config)`` read from
    ``tasks`` with ``cell`` and report on ``results`` (failures as data,
    for a :class:`WorkerError`).  Exits on ``None`` or a closed pipe."""
    try:
        for index, config in iter(tasks.recv, None):
            try:
                results.send((_OK, index, cell(config), None, None))
            except Exception as exc:  # noqa: BLE001 - re-raised in the parent
                message = f"{type(exc).__name__}: {exc}"
                results.send((_ERR, index, config.label(), message, traceback.format_exc()))
    except (EOFError, OSError):  # a closed pipe: the parent has gone
        pass


def _pool_context() -> multiprocessing.context.BaseContext:
    # fork shares the already-imported package with workers (fast startup)
    # but is only safe on Linux — macOS deliberately defaults to spawn
    # (fork is unreliable with threads/the ObjC runtime there) and Windows
    # has no fork.  Elsewhere use the platform default, which works because
    # _worker_main, the cell function and the pipes are picklable.
    if sys.platform == "linux":
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()  # pragma: no cover - non-Linux


def _resolve_cell_timeout(cell_timeout: Optional[float]) -> Optional[float]:
    """The effective per-cell budget: the explicit value, else the
    ``REPRO_CELL_TIMEOUT`` environment variable; non-positive disables."""
    if cell_timeout is None:
        raw = os.environ.get(CELL_TIMEOUT_ENV, "").strip()
        if not raw:
            return None
        try:
            cell_timeout = float(raw)
        except ValueError:
            raise ValueError(
                f"{CELL_TIMEOUT_ENV}={raw!r} is not a number (seconds)"
            ) from None
    cell_timeout = float(cell_timeout)
    return cell_timeout if cell_timeout > 0 else None


@dataclass
class _Worker:
    """One long-lived worker: its process, the parent's ends of its task and
    result pipes, and the ``(index, config, attempt)`` cell it has run since
    ``started`` (``None`` while idle)."""

    process: Any
    tasks: Any
    results: Any
    cell: Optional[Tuple[int, ExperimentConfig, int]] = None
    started: float = 0.0


class _ProcessEngine:
    """At most ``jobs`` long-lived workers, spawned when a cell needs one.

    Unlike a ``multiprocessing.Pool`` (whose ``imap`` blocks forever on a
    worker the OS killed), the parent owns each worker's process and pipes,
    hands it one cell at a time and waits on them itself:

    * a cell that **errors** ships its traceback back and the sweep aborts
      with :class:`WorkerError` (the historical contract);
    * a worker that **dies** (OOM killer, SIGKILL) shows as end-of-file on
      its result pipe, or a broken pipe when it is sent a cell.  That cell
      is requeued once with backoff (it is deterministic, so the retry is
      exact); a repeat death raises :class:`WorkerError` with the exit code;
    * a worker that **hangs** past ``cell_timeout`` is terminated and
      recorded; the rest of the sweep completes before the timeouts are
      raised as one aggregate :class:`WorkerError`;
    * a worker that answers ``None`` (a queue cell whose lease a live
      worker elsewhere holds) gets its next cell, and that one is offered
      again after :data:`QUEUE_POLL_S`.
    """

    def __init__(
        self, jobs: int, cell: Cell, cell_timeout: Optional[float], stats: EngineStats
    ) -> None:
        self.jobs = jobs
        self.cell = cell
        self.cell_timeout = cell_timeout
        self.stats = stats
        self.waiting: deque = deque()
        #: Cells waiting out a crash backoff or a re-offer delay:
        #: (not_before, index, config, attempt).
        self.delayed: List[Tuple[float, int, ExperimentConfig, int]] = []
        self.pool: List[_Worker] = []
        #: ``(label, elapsed_s)`` of cells cancelled on deadline.
        self.timed_out: List[Tuple[str, float]] = []

    def run(self, pending, finished) -> None:
        self.waiting.extend((index, config, 1) for index, config in pending)
        try:
            while self.waiting or self.delayed or any(w.cell for w in self.pool):
                self._promote_delayed()
                self._assign()
                self._collect(finished)
        finally:
            self._shutdown()
        if self.timed_out:
            detail = "; ".join(
                f"{label!r} after {elapsed:.1f}s" for label, elapsed in self.timed_out
            )
            raise WorkerError(
                self.timed_out[0][0],
                f"{len(self.timed_out)} cell(s) exceeded the "
                f"{self.cell_timeout}s cell timeout: {detail}",
                "(cell cancelled on deadline; no worker traceback)",
            )

    # -- scheduling ----------------------------------------------------
    def _promote_delayed(self) -> None:
        now = time.monotonic()
        due = [entry for entry in self.delayed if now >= entry[0]]
        for entry in due:
            self.delayed.remove(entry)
            self.waiting.append(entry[1:])

    def _assign(self) -> None:
        """Hand waiting cells to idle workers, spawning up to the budget."""
        while self.waiting:
            idle = [worker for worker in self.pool if worker.cell is None]
            if not idle and len(self.pool) >= self.jobs:
                return
            worker = idle[0] if idle else self._spawn()
            worker.cell, worker.started = self.waiting.popleft(), time.monotonic()
            try:
                worker.tasks.send(worker.cell[:2])
            except OSError:  # BrokenPipeError: it died while idle
                self._crashed(worker)

    def _spawn(self) -> _Worker:
        context = _pool_context()
        task_reader, tasks = context.Pipe(duplex=False)
        results, result_writer = context.Pipe(duplex=False)
        # Forked children, this worker included, close the parent's ends,
        # so a worker whose parent dies reads end-of-file on ``tasks``.
        for end in (tasks, results):
            multiprocessing.util.register_after_fork(end, type(end).close)
        args = (task_reader, result_writer, self.cell)
        process = context.Process(target=_worker_main, args=args, daemon=True)
        process.start()
        # Only the worker holds its ends now, so its death reads as
        # end-of-file on ``results`` and a broken pipe on ``tasks``.
        task_reader.close()
        result_writer.close()
        self.pool.append(_Worker(process, tasks, results))
        return self.pool[-1]

    # -- results, deaths and deadlines ---------------------------------
    def _collect(self, finished) -> None:
        """Wait until a busy worker reports or dies, a deadline passes or a
        backoff ends, then handle each busy worker that is ready."""
        busy = [worker for worker in self.pool if worker.cell is not None]
        now = time.monotonic()
        budget = self.cell_timeout
        wakeups = [entry[0] for entry in self.delayed]
        if budget is not None:
            wakeups += [worker.started + budget for worker in busy]
        timeout = min([_POLL_S] + [max(0.0, at - now) for at in wakeups])
        if not busy:
            time.sleep(timeout)
            return
        ready = multiprocessing.connection.wait(
            [w.results for w in busy] + [w.process.sentinel for w in busy], timeout
        )
        now = time.monotonic()
        for worker in busy:
            if worker.results in ready or worker.process.sentinel in ready:
                self._receive(worker, finished)
            elif budget is not None and now - worker.started >= budget:
                self.stats.timeouts += 1
                self.timed_out.append((worker.cell[1].label(), now - worker.started))
                self._retire(worker)

    def _receive(self, worker: _Worker, finished) -> None:
        # Drain a result sent just before a death before believing the sentinel.
        try:
            outcome = worker.results.recv() if worker.results.poll() else None
        except (EOFError, OSError):
            outcome = None
        if outcome is None:
            self._crashed(worker)
            return
        (index, config, attempt), worker.cell = worker.cell, None
        status, _, payload, message, remote_tb = outcome
        if status == _ERR:
            raise WorkerError(payload, message, remote_tb)
        if payload is None:
            not_before = time.monotonic() + QUEUE_POLL_S
            self.delayed.append((not_before, index, config, attempt))
        else:
            finished(index, config, payload, cached=False)

    def _crashed(self, worker: _Worker) -> None:
        """The worker died holding a cell: requeue it after a backoff, or
        raise once the cell has used its attempts."""
        index, config, attempt = worker.cell
        self._retire(worker)
        exitcode = worker.process.exitcode
        if attempt < _CRASH_MAX_ATTEMPTS:
            self.stats.retries += 1
            backoff = _CRASH_BACKOFF_S * 2 ** (attempt - 1)
            self.delayed.append((time.monotonic() + backoff, index, config, attempt + 1))
            return
        raise WorkerError(
            config.label(),
            f"worker process died (exit code {exitcode}) on attempt "
            f"{attempt}/{_CRASH_MAX_ATTEMPTS}",
            f"(worker killed with exit code {exitcode}; no traceback — "
            f"typically the OOM killer or an external signal)",
        )

    def _retire(self, worker: _Worker) -> None:
        self.pool.remove(worker)
        _terminate(worker.process)
        worker.tasks.close()
        worker.results.close()

    def _shutdown(self) -> None:
        """Idle workers exit on ``None`` and are joined; busy ones (the
        error path) are terminated."""
        for worker in list(self.pool):
            if worker.cell is None:
                try:
                    worker.tasks.send(None)
                    worker.process.join(timeout=5.0)
                except OSError:  # it died while idle
                    pass
            self._retire(worker)


def _terminate(process) -> None:
    if process.is_alive():
        process.terminate()
    process.join(timeout=5.0)
    if process.is_alive():  # pragma: no cover - SIGTERM ignored
        process.kill()
        process.join(timeout=5.0)


def _run_inline(pending: List[Tuple[int, ExperimentConfig]], cell: Cell, finished) -> None:
    """Handle every pending cell in this process, in order, so a failure
    raises its original exception.  A cell that a live worker elsewhere
    holds (``None``) goes to the back, to be offered again once
    :data:`QUEUE_POLL_S` has passed."""
    waiting = deque((0.0, index, config) for index, config in pending)
    while waiting:
        not_before, index, config = waiting.popleft()
        time.sleep(max(0.0, not_before - time.monotonic()))
        result = cell(config)
        if result is None:
            waiting.append((time.monotonic() + QUEUE_POLL_S, index, config))
        else:
            finished(index, config, result, cached=False)


def run_configs(
    configs: Iterable[ExperimentConfig],
    *,
    jobs: int = 1,
    cache_dir: Optional[Union[str, Path]] = None,
    runner: Optional[Runner] = None,
    progress: Optional[ProgressCallback] = None,
    stats: Optional[EngineStats] = None,
    cell_timeout: Optional[float] = None,
    executor: str = "local",
) -> List[ExperimentResult]:
    """Run experiments, optionally in parallel and through a result cache.

    Parameters
    ----------
    configs:
        Experiment configurations; the returned list matches their order.
    jobs:
        Worker processes.  ``1`` (the default) runs inline in this process
        unless a cell budget is set — the exact code path the repo has
        always had; failures then raise the original exception.  Otherwise
        one supervisor shards cache misses across at most ``jobs``
        long-lived worker processes, which store the cells they compute; a
        failure in any worker raises :class:`WorkerError` and cancels the
        remaining work, the cell of a *killed* worker is retried once
        before doing so (see :class:`_ProcessEngine`).
    cache_dir:
        Root of an on-disk :class:`ResultCache`.  Hits skip computation
        entirely; misses are computed and stored.  ``None`` disables
        caching.
    runner:
        Override the runner of every config (must be a picklable
        top-level callable when cells run in worker processes).  Defaults
        to :func:`~repro.experiments.runner.run_experiment`.
    progress:
        ``callback(done, total, label, cached)`` invoked once per finished
        config (see :func:`progress_printer`).
    stats:
        An :class:`EngineStats` to fill in place (total/computed/cached).
    cell_timeout:
        Wall-clock budget per cell in seconds.  ``None`` defers to the
        ``REPRO_CELL_TIMEOUT`` environment variable; unset or non-positive
        disables.  A budget runs the sweep through worker processes even
        at ``jobs=1``, since the inline path cannot cancel itself.  A cell
        over budget is terminated and recorded; the rest of the sweep
        completes before a :class:`WorkerError` aggregating the cancelled
        cells is raised.
    executor:
        What a worker does with a pending (non-cached) cell: ``"local"``
        runs and stores it; ``"queue"`` claims it from the shared cache
        root, so detached ``faas-sched worker`` processes — on any host —
        can compute cells too (see :mod:`repro.experiments.queue`).  Any
        other name raises :class:`ValueError`.

    Results are bit-identical across ``jobs`` values *and* executors: each
    config seeds its own RNGs inside whichever process runs it, and result
    order is fixed by input order, not completion order.
    """
    if executor not in EXECUTORS:
        raise ValueError(f"unknown executor {executor!r}; available: {', '.join(EXECUTORS)}")
    configs = list(configs)
    runner = runner or run_experiment
    cell_timeout = _resolve_cell_timeout(cell_timeout)
    stats = stats if stats is not None else EngineStats()
    stats.total += len(configs)
    stats.jobs = max(1, int(jobs))
    stats.executor = executor
    started = time.monotonic()
    cache = (
        ResultCache(cache_dir, namespace=_runner_namespace(runner))
        if cache_dir is not None
        else None
    )

    results: List[Optional[ExperimentResult]] = [None] * len(configs)
    done = 0

    def finished(
        index: int, config: ExperimentConfig, result: ExperimentResult, cached: bool
    ) -> None:
        nonlocal done
        results[index] = result
        done += 1
        if cached:
            stats.cached += 1
        else:
            stats.computed += 1
        if progress is not None:
            progress(done, stats.total, config.label(), cached)

    pending: List[Tuple[int, ExperimentConfig]] = []
    for index, config in enumerate(configs):
        hit = cache.load(config) if cache is not None else None
        if hit is not None:
            finished(index, config, hit, cached=True)
        else:
            pending.append((index, config))

    try:
        if pending:
            if executor == "queue":
                # Imported here: the queue module builds on this one.
                from repro.experiments.queue import start_queue_sweep

                cell = start_queue_sweep(cache, [config for _, config in pending])
            else:
                cell = functools.partial(_compute, runner, cache)
            if stats.jobs == 1 and cell_timeout is None:
                _run_inline(pending, cell, finished)
            else:
                _ProcessEngine(stats.jobs, cell, cell_timeout, stats).run(pending, finished)
    finally:
        stats.elapsed += time.monotonic() - started
    return results  # type: ignore[return-value]
