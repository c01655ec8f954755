"""Distributed, resumable grid execution over a shared cache root.

The ``queue`` executor turns the content-addressed result cache into a
work queue: the submitting process writes one *queue entry* per pending
cell (fingerprint-keyed, under ``<root>/queue/``), and any number of
worker processes — the sweep's own workers (or, at ``jobs=1``, the
submitting process), and ``faas-sched worker`` on this host or any host
that shares the cache directory (NFS, a synced volume, a CI workspace) —
claim entries, compute them, and store the result in the cache.  The
sweep's cells are handed out by the same supervisor as the ``local``
executor's (:mod:`repro.experiments.parallel`); only what a worker does
with a cell differs (:func:`handle_cell`).  The cache entry *is* the
done-marker, so:

* any worker's cache write is every worker's cache hit;
* an interrupted sweep resumes for free — re-running the grid only
  enqueues (and computes) cells whose done-marker is missing;
* concurrent sweeps over overlapping grids deduplicate naturally.

Claim protocol (crash-safe by construction):

1. **Claim** — a worker claims fingerprint ``fp`` by hard-linking a
   fully written temp file onto ``<root>/claims/<fp>.lease`` (atomic,
   and failing when the name exists, on POSIX and NFS alike): exactly
   one concurrent claimant wins.  The lease records owner id, host,
   pid, TTL, and a heartbeat timestamp.
2. **Heartbeat** — while computing, the owner refreshes the lease every
   ``ttl/4`` seconds (atomic rewrite).  A lease whose heartbeat is
   older than its TTL — or whose owning pid is dead, when observed from
   the same host — is *stale*.
3. **Steal** — a stale lease is taken over by renaming it away; the
   rename succeeds for exactly one stealer (the losers' rename raises),
   after which the winner re-claims via step 1.  A SIGKILLed worker's
   cell is therefore recomputed exactly once, by whoever steals it.
4. **Done** — the owner stores the result (atomic ``os.replace`` into
   the cache fan-out), removes the queue entry, then releases the
   lease.  Ordering matters: the done-marker lands before the claim
   disappears, so no window exists in which a cell looks both unclaimed
   and uncomputed.

Workers only ever *add* byte-identical entries (every cell is a fully
seeded, deterministic simulation), so racing computations of the same
cell are wasteful but harmless — the last atomic store wins with the
same bytes.  See docs/DISTRIBUTED.md for the operational guide.
"""

from __future__ import annotations

import functools
import json
import os
import socket
import threading
import time
import uuid
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.experiments.config import ExperimentConfig
from repro.experiments.parallel import (
    QUARANTINE_DIR,
    QUEUE_POLL_S,
    Cell,
    ResultCache,
    config_fingerprint,
    config_from_dict,
    config_to_dict,
)
from repro.experiments.runner import ExperimentResult, run_experiment

__all__ = [
    "CLAIMS_DIR",
    "DEFAULT_LEASE_TTL",
    "LEASE_TTL_ENV",
    "Lease",
    "QUEUE_DIR",
    "WorkerSummary",
    "enqueue_config",
    "handle_cell",
    "pending_fingerprints",
    "read_lease",
    "release_lease",
    "run_worker",
    "start_queue_sweep",
    "try_claim",
]

#: Sidecar directories under the cache root.  Neither name is two hex
#: characters, so the cache's own shard scan (and ``verify_cache``)
#: never visits them.
QUEUE_DIR = "queue"
CLAIMS_DIR = "claims"

#: Environment variable supplying the default lease TTL (seconds).
LEASE_TTL_ENV = "REPRO_LEASE_TTL"
#: A lease not refreshed for this long is stale and stealable.  Cells
#: typically run seconds-to-minutes; the heartbeat fires every ttl/4,
#: so 60 s tolerates heavy scheduler jitter without delaying recovery
#: from a dead worker by more than a minute.
DEFAULT_LEASE_TTL = 60.0
#: Heartbeats per TTL window.
_HEARTBEAT_FRACTION = 4.0

#: ``callback(fingerprint, label)`` invoked when a worker starts a cell.
WorkerProgress = Callable[[str, str], None]


def _resolve_ttl(ttl: Optional[float]) -> float:
    """The effective lease TTL: explicit value, else ``$REPRO_LEASE_TTL``,
    else :data:`DEFAULT_LEASE_TTL`; must be positive."""
    if ttl is None:
        raw = os.environ.get(LEASE_TTL_ENV, "").strip()
        if not raw:
            return DEFAULT_LEASE_TTL
        try:
            ttl = float(raw)
        except ValueError:
            raise ValueError(
                f"{LEASE_TTL_ENV}={raw!r} is not a number (seconds)"
            ) from None
    ttl = float(ttl)
    if ttl <= 0:
        raise ValueError(f"lease TTL must be positive, got {ttl}")
    return ttl


def new_owner_id() -> str:
    """A worker identity unique across hosts, processes, and restarts."""
    return f"{socket.gethostname()}:{os.getpid()}:{uuid.uuid4().hex[:8]}"


# ----------------------------------------------------------------------
# Paths
# ----------------------------------------------------------------------
def _queue_path(root: Path, fingerprint: str) -> Path:
    return root / QUEUE_DIR / f"{fingerprint}.json"


def _lease_path(root: Path, fingerprint: str) -> Path:
    return root / CLAIMS_DIR / f"{fingerprint}.lease"


def _done_path(root: Path, fingerprint: str) -> Path:
    """The cache entry for ``fingerprint`` — its existence is the
    done-marker (same layout as :class:`ResultCache.path_for`)."""
    return root / fingerprint[:2] / f"{fingerprint}.json"


def _write_beside(path: Path, text: str) -> Path:
    """Write ``text`` to a uniquely named ``*.tmp-*`` sibling of ``path``."""
    tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}-{uuid.uuid4().hex[:6]}")
    tmp.write_text(text, encoding="utf-8")
    return tmp


def _atomic_write(path: Path, text: str) -> None:
    os.replace(_write_beside(path, text), path)


# ----------------------------------------------------------------------
# Leases
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Lease:
    """One worker's claim on one cell."""

    fingerprint: str
    owner: str
    host: str
    pid: int
    #: Unix timestamps (`time.time()`): wall clock is the only clock
    #: shared across hosts.  TTLs are minutes, so ordinary clock skew
    #: is harmless; heavily skewed clocks only cause extra (idempotent)
    #: recomputation, never corruption.
    acquired_at: float
    heartbeat_at: float
    ttl: float

    @classmethod
    def fresh(cls, fingerprint: str, owner: str, ttl: float) -> "Lease":
        """A lease held by this process, acquired and heartbeating now (a
        refreshed lease restarts its window too)."""
        now = time.time()
        return cls(fingerprint, owner, socket.gethostname(), os.getpid(), now, now, ttl)

    def to_json(self) -> str:
        return json.dumps(asdict(self))


def read_lease(path: Union[str, Path]) -> Optional[Lease]:
    """Parse a lease file; ``None`` when missing or unreadable (a corrupt
    lease is treated as stale — it cannot prove liveness)."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        return Lease(
            fingerprint=str(payload["fingerprint"]),
            owner=str(payload["owner"]),
            host=str(payload["host"]),
            pid=int(payload["pid"]),
            acquired_at=float(payload["acquired_at"]),
            heartbeat_at=float(payload["heartbeat_at"]),
            ttl=float(payload["ttl"]),
        )
    except (OSError, ValueError, KeyError, TypeError):
        return None


def lease_is_stale(lease: Lease, now: Optional[float] = None) -> bool:
    """TTL-expired, or owned by a dead pid on *this* host (cross-host
    liveness can only be judged by the heartbeat)."""
    now = time.time() if now is None else now
    if now - lease.heartbeat_at > lease.ttl:
        return True
    if lease.host == socket.gethostname():
        try:
            os.kill(lease.pid, 0)
        except ProcessLookupError:
            return True
        except (PermissionError, OSError):  # exists, different user
            pass
    return False


def steal_lease(path: Path) -> bool:
    """Take a stale lease out of play; exactly one of N concurrent
    stealers succeeds (the single winning ``os.rename``).  A stealer
    that crashes between the rename and the unlink leaks its tombstone;
    :func:`_sweep_stale_tombstones` reclaims those."""
    tomb = path.with_name(f"{path.name}.stale-{uuid.uuid4().hex[:8]}")
    try:
        os.rename(path, tomb)
    except OSError:
        return False
    try:
        os.unlink(tomb)
    except OSError:  # pragma: no cover - tombstone already reaped
        pass
    return True


def _sweep_stale_tombstones(root: Path, ttl: float) -> int:
    """Unlink steal tombstones (``*.lease.stale-*``) and lease temp files
    (``*.lease.tmp-*``) leaked by workers that crashed mid-steal or
    mid-write.

    Nothing else ever visits them in the claims sidecar, so without
    this sweep they accumulate forever on long-lived shared roots.  Only
    files older than the lease TTL go — a live steal or lease write is
    done with its file in microseconds, so anything that old is
    certainly abandoned.  Returns the number removed.
    """
    claims = root / CLAIMS_DIR
    if not claims.is_dir():
        return 0
    cutoff = time.time() - ttl
    removed = 0
    for path in claims.glob("*.lease.*"):
        try:
            if path.stat().st_mtime <= cutoff:
                os.unlink(path)
                removed += 1
        except OSError:  # raced with another sweeper
            continue
    return removed


def try_claim(
    root: Union[str, Path],
    fingerprint: str,
    *,
    owner: str,
    ttl: Optional[float] = None,
) -> bool:
    """Attempt to claim ``fingerprint``; True when this owner now holds
    the lease.  A fresh lease held by someone else fails the claim; a
    stale one is stolen (exactly once across all racers) and re-claimed.
    """
    root = Path(root).expanduser()
    ttl = _resolve_ttl(ttl)
    path = _lease_path(root, fingerprint)
    path.parent.mkdir(parents=True, exist_ok=True)
    for _ in range(2):  # second round after a successful steal
        # Publish the lease whole: a racer reading it half-written would
        # judge it stale and steal it from its winner.
        tmp = _write_beside(path, Lease.fresh(fingerprint, owner, ttl).to_json())
        try:
            os.link(tmp, path)
            return True
        except FileExistsError:
            pass
        finally:
            os.unlink(tmp)
        current = read_lease(path)
        if current is not None and not lease_is_stale(current):
            return False
        if not path.exists():
            continue  # released between the link and the read; retry
        if not steal_lease(path):
            return False  # another worker stole (and will re-claim) it
    return False


def refresh_lease(
    root: Union[str, Path], fingerprint: str, *, owner: str, ttl: float
) -> bool:
    """Re-assert liveness: rewrite the lease with a fresh heartbeat.

    Refuses — returning ``False`` — when the on-disk lease is missing or
    names a different owner: a stalled owner whose lease was stolen and
    re-claimed must not clobber the new claimant's lease.  The
    read-then-write pair is not atomic, so a steal landing exactly in
    between can still be overwritten once; the next heartbeat observes
    the mismatch and stops.  Results stay correct either way (stores are
    idempotent and byte-identical) — this check keeps lease ownership
    truthful and avoids silently computing expensive cells twice.
    """
    root = Path(root).expanduser()
    path = _lease_path(root, fingerprint)
    current = read_lease(path)
    if current is None or current.owner != owner:
        return False
    _atomic_write(path, Lease.fresh(fingerprint, owner, ttl).to_json())
    return True


def release_lease(
    root: Union[str, Path], fingerprint: str, *, owner: Optional[str] = None
) -> None:
    """Drop a claim (best-effort: a raced steal already removed it).
    With ``owner`` given, only a lease still naming that owner is
    removed — a stolen-and-re-claimed cell keeps its new lease."""
    path = _lease_path(Path(root).expanduser(), fingerprint)
    if owner is not None:
        lease = read_lease(path)
        if lease is None or lease.owner != owner:
            return
    try:
        os.unlink(path)
    except OSError:
        pass


class _LeaseHeartbeat(threading.Thread):
    """A process's lease refresher: one daemon thread per process keeps
    ``lease``, the ``(root, fingerprint, owner, ttl)`` the process holds,
    fresh every ttl/4."""

    def __init__(self) -> None:
        super().__init__(daemon=True, name="lease-heartbeat")
        self.lease: Optional[Tuple[Path, str, str, float]] = None
        self._changed = threading.Condition()

    def hold(self, lease: Optional[Tuple[Path, str, str, float]]) -> None:
        """Refresh *lease* from now on (``None``: nothing).  On return no
        refresh is in flight, so a release that follows stays released."""
        with self._changed:
            self.lease = lease
            self._changed.notify()

    def run(self) -> None:
        with self._changed:
            while True:
                lease = self.lease
                if lease is None:
                    self._changed.wait()
                    continue
                self._changed.wait(max(lease[3] / _HEARTBEAT_FRACTION, 0.05))
                if self.lease is not lease:
                    continue
                root, fingerprint, owner, ttl = lease
                try:
                    fresh = refresh_lease(root, fingerprint, owner=owner, ttl=ttl)
                except OSError:  # pragma: no cover - cache root vanished
                    fresh = False
                if not fresh:
                    self.lease = None  # stolen or released: stop asserting it


_heartbeat: Optional[_LeaseHeartbeat] = None


def _process_heartbeat() -> _LeaseHeartbeat:
    """This process's heartbeat, started on its first claim (a forked
    child finds its parent's thread dead and starts its own).  A process
    holds one claim at a time."""
    global _heartbeat
    if _heartbeat is None or not _heartbeat.is_alive():
        _heartbeat = _LeaseHeartbeat()
        _heartbeat.start()
    return _heartbeat


# ----------------------------------------------------------------------
# Queue entries
# ----------------------------------------------------------------------
def enqueue_config(root: Union[str, Path], config: ExperimentConfig) -> str:
    """Publish one pending cell; returns its fingerprint.  Idempotent:
    an existing queue entry or done-marker short-circuits."""
    root = Path(root).expanduser()
    fingerprint = config_fingerprint(config)
    path = _queue_path(root, fingerprint)
    if path.exists() or _done_path(root, fingerprint).exists():
        return fingerprint
    path.parent.mkdir(parents=True, exist_ok=True)
    _atomic_write(
        path,
        json.dumps({"fingerprint": fingerprint, "config": config_to_dict(config)}),
    )
    return fingerprint


def pending_fingerprints(root: Union[str, Path]) -> List[str]:
    """Fingerprints with a queue entry, sorted (stable scan order)."""
    queue_dir = Path(root).expanduser() / QUEUE_DIR
    if not queue_dir.is_dir():
        return []
    return sorted(path.stem for path in queue_dir.glob("*.json"))


def _remove_queue_entry(root: Path, fingerprint: str) -> None:
    try:
        os.unlink(_queue_path(root, fingerprint))
    except OSError:
        pass


def _reap(root: Path, fingerprint: str) -> None:
    """A done cell needs neither queue entry nor (stale) lease."""
    _remove_queue_entry(root, fingerprint)
    lease_path = _lease_path(root, fingerprint)
    lease = read_lease(lease_path)
    if lease is not None and lease_is_stale(lease):
        steal_lease(lease_path)


def _quarantine_done_marker(root: Path, fingerprint: str) -> None:
    """Move a corrupt done-marker into the quarantine sidecar (the same
    treatment :func:`~repro.experiments.parallel.verify_cache` applies).

    The marker must leave the fan-out before the cell can be re-run:
    while it exists, :func:`enqueue_config` short-circuits and every
    done-check keeps reporting the cell finished, so merely re-enqueueing
    would livelock the sweep.  Falls back to unlinking when the rename
    fails (quarantine on a read-only or full filesystem).
    """
    path = _done_path(root, fingerprint)
    quarantine = root / QUARANTINE_DIR
    try:
        quarantine.mkdir(parents=True, exist_ok=True)
        os.replace(path, quarantine / f"{fingerprint[:2]}-{path.name}")
    except OSError:
        try:
            os.unlink(path)
        except OSError:  # pragma: no cover - marker already gone
            pass


def _read_entry(path: Path) -> Optional[Dict[str, Any]]:
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(payload, dict):
            raise ValueError("queue entry is not an object")
        return payload
    except (OSError, ValueError):
        return None


# ----------------------------------------------------------------------
# Worker loop
# ----------------------------------------------------------------------
@dataclass
class WorkerSummary:
    """What one :func:`run_worker` invocation did."""

    #: Cells this worker claimed, computed, and stored.
    computed: int = 0
    #: Queue entries removed because their done-marker already existed
    #: (another worker computed them, or a previous sweep did).
    reaped: int = 0
    #: Queue entries dropped as unreadable or fingerprint-inconsistent
    #: (e.g. written by a different schema/package version).
    invalid: int = 0
    #: Wall-clock seconds spent in the loop.
    elapsed: float = 0.0
    #: Labels of the computed cells, in completion order.
    labels: List[str] = field(default_factory=list)

    def summary_line(self) -> str:
        return (
            f"worker: {self.computed} computed, {self.reaped} reaped, "
            f"{self.invalid} invalid, elapsed={self.elapsed:.1f}s"
        )


def _entry_config(path: Path, fingerprint: str) -> Optional[ExperimentConfig]:
    """Deserialize one queue entry and verify its fingerprint really is
    the content address of its config under the *current* schema and
    package version — an entry written by different code (or for
    another runner's cache namespace) can never produce a valid
    done-marker for this filename, so it is dropped rather than
    computed."""
    payload = _read_entry(path)
    if payload is None:
        return None
    try:
        config = config_from_dict(payload["config"])
    except (KeyError, TypeError, ValueError):
        return None
    if config_fingerprint(config) != fingerprint:
        return None
    return config


def run_worker(
    cache_dir: Union[str, Path],
    *,
    poll: float = QUEUE_POLL_S,
    idle_timeout: Optional[float] = None,
    lease_ttl: Optional[float] = None,
    max_cells: Optional[int] = None,
    progress: Optional[WorkerProgress] = None,
) -> WorkerSummary:
    """Claim-and-compute loop over a shared cache root's work queue.

    Scans ``<cache_dir>/queue/`` for pending cells, claims them one at a
    time (lease + heartbeat), computes each with
    :func:`~repro.experiments.runner.run_experiment`, stores the result,
    and removes the queue entry.
    Exits when no claimable work has been visible for ``idle_timeout``
    seconds (``None``/``0``: as soon as one pass over the queue finds
    nothing to claim — every remaining cell done or leased by a live
    worker), or after ``max_cells`` computations.

    An exception inside a cell releases the lease and leaves the queue
    entry in place, then propagates — the cell stays computable by
    another worker (which will hit the same deterministic error and
    surface it too).
    """
    root = Path(cache_dir).expanduser()
    (root / QUEUE_DIR).mkdir(parents=True, exist_ok=True)
    (root / CLAIMS_DIR).mkdir(parents=True, exist_ok=True)
    ttl = _resolve_ttl(lease_ttl)
    if poll <= 0:
        raise ValueError(f"poll interval must be positive, got {poll}")
    _sweep_stale_tombstones(root, ttl)
    cache = ResultCache(root)
    owner = new_owner_id()
    summary = WorkerSummary()
    started = time.monotonic()
    idle_since: Optional[float] = None
    try:
        while True:
            if max_cells is not None and summary.computed >= max_cells:
                break
            if _scan_once(cache, owner, ttl, summary, progress, max_cells):
                idle_since = None
                continue
            if not idle_timeout:
                break
            now = time.monotonic()
            if idle_since is None:
                idle_since = now
            elif now - idle_since >= idle_timeout:
                break
            time.sleep(poll)
    finally:
        summary.elapsed = time.monotonic() - started
    return summary


def _scan_once(
    cache: ResultCache,
    owner: str,
    ttl: float,
    summary: WorkerSummary,
    progress: Optional[WorkerProgress],
    max_cells: Optional[int],
) -> bool:
    """One pass over the queue; True when any progress was made."""
    root = cache.root
    progressed = False
    for fingerprint in pending_fingerprints(root):
        if max_cells is not None and summary.computed >= max_cells:
            break
        if _done_path(root, fingerprint).exists():
            _reap(root, fingerprint)
            summary.reaped += 1
            progressed = True
            continue
        config = _entry_config(_queue_path(root, fingerprint), fingerprint)
        if config is None:
            if _queue_path(root, fingerprint).exists():
                _remove_queue_entry(root, fingerprint)
                summary.invalid += 1
                progressed = True
            continue
        if _claim_and_compute(root, fingerprint, config, cache, owner, ttl, progress) is None:
            continue
        summary.computed += 1
        summary.labels.append(config.label())
        progressed = True
    return progressed


def _claim_and_compute(
    root: Path,
    fingerprint: str,
    config: ExperimentConfig,
    cache: ResultCache,
    owner: str,
    ttl: float,
    progress: Optional[WorkerProgress] = None,
) -> Optional[ExperimentResult]:
    """Claim one cell, then compute, store and dequeue it under a
    heartbeated lease (the one claim path: ``faas-sched worker`` and the
    queue executor's :func:`handle_cell` both take it).  Returns the
    result, or ``None`` when another worker holds the claim or the cell is
    already done.  A raising cell releases its lease and keeps its queue
    entry, so it stays computable."""
    if not try_claim(root, fingerprint, owner=owner, ttl=ttl):
        return None
    # Claimed after the caller's done-check raced a finishing worker?  The
    # store is idempotent, so recomputing is merely wasteful — but one
    # cheap re-check avoids it in the common case.
    if _done_path(root, fingerprint).exists():
        release_lease(root, fingerprint, owner=owner)
        return None
    if progress is not None:
        progress(fingerprint, config.label())
    heartbeat = _process_heartbeat()
    heartbeat.hold((root, fingerprint, owner, ttl))
    try:
        result = run_experiment(config)
        cache.store(config, result)
        _remove_queue_entry(root, fingerprint)
    finally:
        heartbeat.hold(None)
        release_lease(root, fingerprint, owner=owner)
    return result


# ----------------------------------------------------------------------
# The queue executor
# ----------------------------------------------------------------------
def start_queue_sweep(cache: Optional[ResultCache], configs: List[ExperimentConfig]) -> Cell:
    """Enqueue a sweep's pending cells and return the function its workers
    handle each one with (:func:`handle_cell`).

    Requires a cache directory (the cache root *is* the coordination
    medium) and the default runner,
    :func:`~repro.experiments.runner.run_experiment`, whose cache
    namespace is the only one queue entries and workers know (a custom
    runner callable cannot be reconstructed by a detached worker process).
    """
    if cache is None:
        raise ValueError(
            "the queue executor requires a cache directory "
            "(--cache-dir / cache_dir=...): the shared cache root is "
            "the work queue and the done-marker store"
        )
    if cache.namespace:
        raise ValueError(
            "the queue executor supports only the default "
            "experiment runners; a custom runner callable cannot "
            "be reconstructed by detached workers — use "
            "executor='local'"
        )
    ttl = _resolve_ttl(None)
    _sweep_stale_tombstones(cache.root, ttl)
    for config in configs:
        enqueue_config(cache.root, config)
    return functools.partial(handle_cell, cache, ttl)


def handle_cell(
    cache: ResultCache, ttl: float, config: ExperimentConfig
) -> Optional[ExperimentResult]:
    """One queued cell of a sweep, in a supervisor's worker or inline.

    A cell that is done already (another worker computed it) is loaded
    and reaped; any other is claimed, computed, stored and dequeued under
    a heartbeated lease (:func:`_claim_and_compute`).  Returns ``None``
    when a live worker elsewhere holds the lease (or finished the cell
    meanwhile); the supervisor offers the cell again later.
    ``run_configs`` served every cache hit before the sweep began, so
    whoever computed the cell, it counts as computed.
    """
    root = cache.root
    fingerprint = config_fingerprint(config)
    if _done_path(root, fingerprint).exists():
        result = cache.load(config)
        if result is not None:
            _reap(root, fingerprint)
            return result
        # A corrupt done-marker (e.g. a torn disk write): quarantine it
        # first — while it exists, enqueue_config short-circuits and every
        # done-check reports the cell finished — then put the cell back in
        # play.
        _quarantine_done_marker(root, fingerprint)
        enqueue_config(root, config)
    return _claim_and_compute(root, fingerprint, config, cache, new_owner_id(), ttl)
