"""Parallel experiment execution with an on-disk result cache.

The paper's evaluation is a grid of cores × intensity × strategy × 5 seeds
(Tables II–IV, Figs. 3–4 and the appendix figures); every cell is an
independent, fully seeded simulation.  This module exploits that
independence twice:

* **Parallelism** — :func:`run_configs` shards a list of experiment
  configurations across worker processes (``jobs=N``), one process per
  cell.  Results are slotted by input index, so the returned list order —
  and, because every run is deterministic given its config, every byte of
  every result — is identical to the serial path.  The engine is
  crash-hardened: a worker killed by the OS is retried once with backoff
  before surfacing as a :class:`WorkerError`, and a per-cell wall-clock
  timeout (``REPRO_CELL_TIMEOUT`` / ``cell_timeout=``) cancels hung cells
  while the rest of the sweep completes.

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
``tests/experiments/test_parallel.py``).
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import queue as queue_module
import sys
import time
import traceback
from collections import deque
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, TextIO, Tuple, Union

import repro
from repro.cluster.spec import ClusterSpec
from repro.experiments.config import ExperimentConfig
from repro.failures.spec import FailureSpec
from repro.experiments.runner import ExperimentResult, run_experiment
from repro.metrics.serialize import records_from_columns, records_to_columns
from repro.metrics.streaming import SummaryAccumulator

__all__ = [
    "CACHE_SCHEMA_VERSION",
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
CACHE_SCHEMA_VERSION = 8


# ----------------------------------------------------------------------
# Config / result serialization and fingerprinting
# ----------------------------------------------------------------------
#: Config fields holding ``(name, value)`` pair tuples that JSON would
#: flatten ambiguously; serialized as lists-of-lists and re-tupled on load.
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


def _untuple(value: Any) -> Any:
    """JSON turns tuples into lists; restore tuples recursively so a config
    round-trips equal to the original (override values are tuples or
    scalars in practice)."""
    if isinstance(value, list):
        return tuple(_untuple(item) for item in value)
    return value


def config_from_dict(payload: Dict[str, Any]) -> ExperimentConfig:
    """Inverse of :func:`config_to_dict`; any other type tag raises
    :class:`ValueError` (a cache entry then loads as a miss)."""
    if payload["type"] != _CONFIG_TYPE:
        raise ValueError(f"unknown config type {payload['type']!r}")
    data = dict(payload["fields"])
    for name in _PAIR_FIELDS:
        if name in data:
            data[name] = tuple((key, _untuple(value)) for key, value in data[name])
    if isinstance(data.get("cluster"), dict):
        data["cluster"] = ClusterSpec.from_dict(data["cluster"])
    if isinstance(data.get("failures"), dict):
        data["failures"] = FailureSpec.from_dict(data["failures"])
    return ExperimentConfig(**data)


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
    #: Worker processes that died (e.g. OOM-killed) and were respawned.
    retries: int = 0
    #: Cells cancelled for exceeding the per-cell wall-clock timeout.
    timeouts: int = 0
    #: Which execution backend ran the sweep (see experiments.executor).
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
    #: Per-cell wall-clock budget in seconds (``jobs > 1`` only); ``None``
    #: defers to the ``REPRO_CELL_TIMEOUT`` environment variable.
    cell_timeout: Optional[float] = None
    #: Execution backend name (``local``/``queue``); ``None`` defers to
    #: the ``REPRO_EXECUTOR`` environment variable, then ``local``.
    executor: Optional[str] = None
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
#: A crashed (not erroring — killed) worker is respawned this many times
#: total before the cell surfaces as a :class:`WorkerError`.
_CRASH_MAX_ATTEMPTS = 2
#: Backoff before respawning a crashed worker: base * 2**(attempt-1).
_CRASH_BACKOFF_S = 0.25
#: After a worker process exits, its result may still be in flight in the
#: queue pipe; wait this long before declaring the death a crash.
_CRASH_GRACE_S = 1.0
#: Parent poll interval while waiting on worker results.
_POLL_S = 0.05


def _cell_main(index: int, config: ExperimentConfig, runner: Runner, results) -> None:
    """Worker process entry: run one experiment, shipping failures back as
    data so the parent can raise a :class:`WorkerError` with full context.
    A worker that never reports (killed, hung) is handled by the parent's
    liveness/deadline tracking — the sweep cannot hang on it."""
    try:
        results.put((_OK, index, runner(config), None, None))
    except Exception as exc:  # noqa: BLE001 - re-raised in the parent
        message = f"{type(exc).__name__}: {exc}"
        results.put((_ERR, index, config.label(), message, traceback.format_exc()))


def _pool_context() -> multiprocessing.context.BaseContext:
    # fork shares the already-imported package with workers (fast startup)
    # but is only safe on Linux — macOS deliberately defaults to spawn
    # (fork is unreliable with threads/the ObjC runtime there) and Windows
    # has no fork.  Elsewhere use the platform default, which works because
    # _cell_main and the runner are picklable top-level callables.
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
class _Cell:
    """Parent-side state of one in-flight worker process."""

    index: int
    config: ExperimentConfig
    process: Any
    started: float
    deadline: Optional[float]
    attempt: int
    died_at: Optional[float] = None


class _ProcessEngine:
    """One process per pending cell, bounded by the worker budget.

    Unlike a ``multiprocessing.Pool`` (whose ``imap`` blocks forever on a
    worker the OS killed), the parent owns every child ``Process`` and
    polls liveness and per-cell deadlines itself:

    * a worker that **errors** ships the traceback back and the sweep
      aborts with :class:`WorkerError` (the historical contract);
    * a worker that **dies** (OOM killer, SIGKILL) is respawned once with
      backoff — the cell is deterministic, so the retry is exact — and
      only a repeat death surfaces as :class:`WorkerError` with the exit
      code;
    * a worker that **hangs** past ``cell_timeout`` is terminated and
      recorded; the rest of the sweep completes before the timeouts are
      raised as one aggregate :class:`WorkerError`.
    """

    def __init__(
        self,
        workers: int,
        cell_timeout: Optional[float],
        stats: EngineStats,
        runner: Runner,
    ) -> None:
        self.workers = workers
        self.cell_timeout = cell_timeout
        self.stats = stats
        self.runner = runner
        self.context = _pool_context()
        self.results = self.context.Queue()
        self.waiting: deque = deque()
        #: Crashed cells awaiting their backoff:
        #: (not_before, index, config, attempt).
        self.delayed: List[Tuple[float, int, ExperimentConfig, int]] = []
        self.running: Dict[int, _Cell] = {}
        #: ``(label, elapsed_s)`` of cells cancelled on deadline.
        self.timed_out: List[Tuple[str, float]] = []

    def run(self, pending, finished) -> None:
        for index, config in pending:
            self.waiting.append((index, config, 1))
        try:
            while self.waiting or self.delayed or self.running:
                self._promote_delayed()
                self._launch()
                if self._drain_one(finished):
                    continue
                self._check_running()
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

    def _launch(self) -> None:
        while self.waiting and len(self.running) < self.workers:
            index, config, attempt = self.waiting.popleft()
            process = self.context.Process(
                target=_cell_main, args=(index, config, self.runner, self.results)
            )
            process.daemon = True
            process.start()
            now = time.monotonic()
            self.running[index] = _Cell(
                index=index,
                config=config,
                process=process,
                started=now,
                deadline=(
                    now + self.cell_timeout if self.cell_timeout is not None else None
                ),
                attempt=attempt,
            )

    # -- results -------------------------------------------------------
    def _drain_one(self, finished) -> bool:
        """Handle one worker message; True when a message was consumed."""
        try:
            outcome = self.results.get(timeout=_POLL_S)
        except queue_module.Empty:
            return False
        status, index, payload, message, remote_tb = outcome
        cell = self.running.pop(index, None)
        if cell is not None:
            cell.process.join(timeout=5.0)
        elif not any(entry[1] == index for entry in self.delayed):
            # A late result from a cell already cancelled on deadline (or
            # a respawn raced its predecessor's flush): drop it.
            return True
        if status == _ERR:
            raise WorkerError(payload, message, remote_tb)
        if cell is None:
            return True
        finished(index, cell.config, payload, cached=False)
        return True

    # -- liveness / deadlines ------------------------------------------
    def _check_running(self) -> None:
        now = time.monotonic()
        for index, cell in list(self.running.items()):
            if cell.deadline is not None and now >= cell.deadline:
                self._cancel_on_deadline(cell, now)
            elif not cell.process.is_alive():
                if cell.died_at is None:
                    cell.died_at = now
                elif now - cell.died_at >= _CRASH_GRACE_S:
                    self._handle_crash(cell, now)

    def _cancel_on_deadline(self, cell: _Cell, now: float) -> None:
        del self.running[cell.index]
        _terminate(cell.process)
        elapsed = now - cell.started
        self.stats.timeouts += 1
        self.timed_out.append((cell.config.label(), elapsed))

    def _handle_crash(self, cell: _Cell, now: float) -> None:
        """The worker exited without reporting and the grace period passed
        with no queued result: it was killed (or died before flushing)."""
        del self.running[cell.index]
        cell.process.join(timeout=5.0)
        exitcode = cell.process.exitcode
        if cell.attempt < _CRASH_MAX_ATTEMPTS:
            self.stats.retries += 1
            backoff = _CRASH_BACKOFF_S * 2 ** (cell.attempt - 1)
            self.delayed.append(
                (now + backoff, cell.index, cell.config, cell.attempt + 1)
            )
            return
        raise WorkerError(
            cell.config.label(),
            f"worker process died (exit code {exitcode}) on attempt "
            f"{cell.attempt}/{_CRASH_MAX_ATTEMPTS}",
            f"(worker killed with exit code {exitcode}; no traceback — "
            f"typically the OOM killer or an external signal)",
        )

    def _shutdown(self) -> None:
        for cell in self.running.values():
            _terminate(cell.process)
        self.running.clear()
        self.results.close()
        # Let the queue's feeder machinery wind down without blocking the
        # raise path on a wedged pipe.
        self.results.cancel_join_thread()


def _terminate(process) -> None:
    if process.is_alive():
        process.terminate()
    process.join(timeout=5.0)
    if process.is_alive():  # pragma: no cover - SIGTERM ignored
        process.kill()
        process.join(timeout=5.0)


def run_configs(
    configs: Iterable[ExperimentConfig],
    *,
    jobs: int = 1,
    cache_dir: Optional[Union[str, Path]] = None,
    runner: Optional[Runner] = None,
    progress: Optional[ProgressCallback] = None,
    stats: Optional[EngineStats] = None,
    cell_timeout: Optional[float] = None,
    executor: Optional[str] = None,
) -> List[ExperimentResult]:
    """Run experiments, optionally in parallel and through a result cache.

    Parameters
    ----------
    configs:
        Experiment configurations; the returned list matches their order.
    jobs:
        Worker processes.  ``1`` (the default) runs inline in this process
        — the exact code path the repo has always had; failures then raise
        the original exception.  ``N > 1`` shards cache misses across
        worker processes (one per cell); a failure in any worker raises
        :class:`WorkerError` and cancels the remaining work, a *killed*
        worker is respawned once before doing so (see
        :class:`_ProcessEngine`).
    cache_dir:
        Root of an on-disk :class:`ResultCache`.  Hits skip computation
        entirely; misses are computed and stored.  ``None`` disables
        caching.
    runner:
        Override the runner of every config (must be a picklable
        top-level callable when ``jobs > 1``).  Defaults to
        :func:`~repro.experiments.runner.run_experiment`.
    progress:
        ``callback(done, total, label, cached)`` invoked once per finished
        config (see :func:`progress_printer`).
    stats:
        An :class:`EngineStats` to fill in place (total/computed/cached).
    cell_timeout:
        Wall-clock budget per cell in seconds (``jobs > 1`` only — the
        inline path cannot cancel itself).  ``None`` defers to the
        ``REPRO_CELL_TIMEOUT`` environment variable; unset or non-positive
        disables.  A cell over budget is terminated and recorded; the rest
        of the sweep completes before a :class:`WorkerError` aggregating
        the cancelled cells is raised.  Local executor only: the queue
        executor cannot enforce a per-cell deadline (its lease heartbeat
        keeps a claimed cell alive indefinitely) and raises
        :class:`ValueError` rather than silently ignoring one.
    executor:
        Execution backend for the pending (non-cached) cells: ``"local"``
        (the historical in-process engine) or ``"queue"`` (claim cells
        from the shared cache root so detached ``faas-sched worker``
        processes — on any host — can compute them too; see
        :mod:`repro.experiments.queue`).  ``None`` defers to the
        ``REPRO_EXECUTOR`` environment variable, then ``local``.

    Results are bit-identical across ``jobs`` values *and* executors: each
    config seeds its own RNGs inside whichever process runs it, and result
    order is fixed by input order, not completion order.
    """
    from repro.experiments.executor import ExecutionContext, get_executor

    configs = list(configs)
    runner = runner or run_experiment
    cell_timeout = _resolve_cell_timeout(cell_timeout)
    backend = get_executor(executor)
    stats = stats if stats is not None else EngineStats()
    stats.total += len(configs)
    stats.jobs = max(1, int(jobs))
    stats.executor = backend.name
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
            backend.execute(
                pending,
                finished,
                ExecutionContext(
                    jobs=stats.jobs,
                    cache=cache,
                    cell_timeout=cell_timeout,
                    stats=stats,
                    runner=runner,
                ),
            )
    finally:
        stats.elapsed += time.monotonic() - started
    return results  # type: ignore[return-value]
