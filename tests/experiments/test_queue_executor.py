"""The distributed queue executor and its claim/lease protocol.

The concurrency tests race real processes through the protocol's two
critical sections — claiming a free cell and stealing a stale lease —
and assert the exactly-once guarantees the design rests on.
"""

import json
import multiprocessing
import os
import signal
import time

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.grid import GridSpec, run_grid
from repro.experiments.parallel import (
    QUARANTINE_DIR,
    EngineStats,
    ResultCache,
    config_fingerprint,
    config_to_dict,
    result_to_payload,
    run_configs,
    verify_cache,
)
from repro.experiments.queue import (
    CLAIMS_DIR,
    LEASE_TTL_ENV,
    QUEUE_DIR,
    Lease,
    QueueExecutor,
    _lease_path,
    _queue_path,
    _sweep_stale_tombstones,
    enqueue_config,
    lease_is_stale,
    pending_fingerprints,
    read_lease,
    refresh_lease,
    release_lease,
    run_worker,
    steal_lease,
    try_claim,
)
from repro.experiments.runner import run_experiment

_MP = multiprocessing.get_context("fork")


def _config(seed: int = 1, **overrides) -> ExperimentConfig:
    base = dict(cores=10, intensity=30, policy="FIFO", seed=seed)
    base.update(overrides)
    return ExperimentConfig(**base)


# ----------------------------------------------------------------------
# End-to-end executor behaviour
# ----------------------------------------------------------------------
class TestQueueExecutor:
    def test_results_bit_identical_to_serial(self, tmp_path):
        configs = [_config(seed=s) for s in (1, 2)]
        serial = run_configs(list(configs))
        stats = EngineStats()
        queued = run_configs(
            list(configs), cache_dir=tmp_path, executor="queue", stats=stats
        )
        assert stats.executor == "queue"
        assert stats.computed == 2
        for a, b in zip(serial, queued):
            assert json.dumps(result_to_payload(a), sort_keys=True) == json.dumps(
                result_to_payload(b), sort_keys=True
            )

    def test_sweep_is_resumable_with_zero_recomputation(self, tmp_path):
        spec = GridSpec(
            cores=(10,), intensities=(30,), strategies=("FIFO", "SEPT"), seeds=(1,)
        )
        first = run_grid(spec, cache_dir=tmp_path, executor="queue")
        assert first.stats.computed == 2
        second = run_grid(spec, cache_dir=tmp_path, executor="queue")
        assert second.stats.computed == 0
        assert second.stats.cached == 2
        # No leftover coordination state either.
        assert pending_fingerprints(tmp_path) == []
        assert list((tmp_path / CLAIMS_DIR).glob("*.lease")) == []

    def test_external_worker_results_count_as_cache_hits(self, tmp_path):
        config = _config()
        fingerprint = enqueue_config(tmp_path, config)
        summary = run_worker(tmp_path)
        assert summary.computed == 1
        assert summary.labels == [config.label()]
        # The submitting sweep now just consumes the done-marker.
        stats = EngineStats()
        run_configs([config], cache_dir=tmp_path, executor="queue", stats=stats)
        assert stats.cached == 1
        assert stats.computed == 0
        assert ResultCache(tmp_path).load(config) is not None
        assert fingerprint == config_fingerprint(config)

    def test_requires_cache_dir(self):
        with pytest.raises(ValueError, match="requires a cache directory"):
            run_configs([_config()], executor="queue")

    def test_rejects_custom_runners(self, tmp_path):
        def custom(config):  # pragma: no cover - rejected before any call
            raise AssertionError

        with pytest.raises(ValueError, match="default .*runners"):
            run_configs(
                [_config()], cache_dir=tmp_path, executor="queue", runner=custom
            )

    def test_default_runner_named_explicitly_shares_the_cache(self, tmp_path):
        # Naming run_experiment keeps the default cache namespace, which
        # is the only one queue entries and workers know.
        stats = EngineStats()
        run_configs(
            [_config()],
            cache_dir=tmp_path,
            executor="queue",
            runner=run_experiment,
            stats=stats,
        )
        again = EngineStats()
        run_configs([_config()], cache_dir=tmp_path, stats=again)
        assert (stats.computed, again.cached) == (1, 1)

    def test_rejects_cell_timeout(self, tmp_path):
        # The lease heartbeat keeps a claimed cell alive indefinitely, so
        # a per-cell deadline cannot be enforced — it must be refused, not
        # silently ignored.
        with pytest.raises(ValueError, match="cell-timeout"):
            run_configs(
                [_config()], cache_dir=tmp_path, executor="queue", cell_timeout=5.0
            )

    def test_corrupt_done_marker_is_quarantined_and_recomputed(self, tmp_path):
        config = _config()
        fingerprint = config_fingerprint(config)
        marker = tmp_path / fingerprint[:2] / f"{fingerprint}.json"
        marker.parent.mkdir(parents=True, exist_ok=True)
        marker.write_text("{truncated", encoding="utf-8")  # torn disk write
        stats = EngineStats()
        results = run_configs(
            [config], cache_dir=tmp_path, executor="queue", stats=stats
        )
        # The sweep must terminate (no livelock on the unparseable marker),
        # recompute the cell, and leave a servable entry behind.
        assert len(results) == 1
        assert stats.computed == 1
        assert ResultCache(tmp_path).load(config) is not None
        quarantined = sorted(p.name for p in (tmp_path / QUARANTINE_DIR).iterdir())
        assert quarantined == [f"{fingerprint[:2]}-{fingerprint}.json"]
        assert verify_cache(tmp_path).bad == 0
        assert pending_fingerprints(tmp_path) == []

    def test_damaged_packed_column_is_quarantined_and_recomputed(self, tmp_path):
        config = _config()
        fingerprint = config_fingerprint(config)
        marker = ResultCache(tmp_path).store(config, run_configs([config])[0])
        payload = json.loads(marker.read_text(encoding="utf-8"))
        # Well-formed JSON whose string codes point before the value list.
        payload["result"]["records"]["columns"]["function_name"]["codes"][0] = -1
        marker.write_text(json.dumps(payload), encoding="utf-8")
        stats = EngineStats()
        results = run_configs(
            [config], cache_dir=tmp_path, executor="queue", stats=stats
        )
        assert len(results) == 1
        assert stats.computed == 1
        reloaded = ResultCache(tmp_path).load(config)
        assert reloaded is not None
        assert reloaded.records == results[0].records
        quarantined = sorted(p.name for p in (tmp_path / QUARANTINE_DIR).iterdir())
        assert quarantined == [f"{fingerprint[:2]}-{fingerprint}.json"]
        assert verify_cache(tmp_path).bad == 0
        assert pending_fingerprints(tmp_path) == []

    def test_jobs_spawn_local_helpers(self, tmp_path):
        configs = [_config(seed=s) for s in (1, 2, 3, 4)]
        stats = EngineStats()
        results = run_configs(
            configs, cache_dir=tmp_path, executor="queue", jobs=3, stats=stats
        )
        assert len(results) == 4
        # Cells the helpers computed count as computed, not as cache hits.
        assert stats.computed == 4
        assert stats.cached == 0
        report = verify_cache(tmp_path)
        assert report.scanned == 4
        assert report.bad == 0

    def test_helper_count_never_exceeds_pending(self, tmp_path):
        executor = QueueExecutor()
        helpers = executor._spawn_helpers(jobs=8, root=tmp_path, fingerprints=[], ttl=60)
        assert helpers == []


# ----------------------------------------------------------------------
# Local helper lifecycle, with real processes
# ----------------------------------------------------------------------
def _serial_entries(root, configs):
    """Entry bytes of ``configs`` computed inline and stored the serial way."""
    cache = ResultCache(root)
    for config, result in zip(configs, run_configs(list(configs))):
        cache.store(config, result)
    return [(config, cache.path_for(config).read_bytes()) for config in configs]


class TestHelperLifecycle:
    def test_worker_exits_at_once_when_its_cell_is_leased(self, tmp_path):
        fingerprint = enqueue_config(tmp_path, _config())
        claimed, release = _MP.Event(), _MP.Event()

        def live_owner():
            try_claim(tmp_path, fingerprint, owner="live-owner")
            claimed.set()
            release.wait(30)

        owner = _MP.Process(target=live_owner)
        owner.start()
        try:
            assert claimed.wait(30)
            started = time.monotonic()
            summary = run_worker(tmp_path, only={fingerprint}, idle_timeout=0)
            assert time.monotonic() - started < 1.0
        finally:
            release.set()
            owner.join(timeout=30)
        assert not owner.is_alive()
        assert summary.computed == 0
        assert pending_fingerprints(tmp_path) == [fingerprint]
        assert read_lease(_lease_path(tmp_path, fingerprint)).owner == "live-owner"

    def test_no_helper_outlives_its_sweep(self, tmp_path):
        configs = [_config(seed=s) for s in (1, 2, 3, 4, 5, 6)]
        before = set(multiprocessing.active_children())
        run_configs(configs, cache_dir=tmp_path, executor="queue", jobs=3)
        returned = time.time()
        assert set(multiprocessing.active_children()) - before == set()
        # Helpers exit once nothing is left to claim, so the sweep returns
        # promptly after its last store.
        cache = ResultCache(tmp_path)
        last_store = max(cache.path_for(c).stat().st_mtime for c in configs)
        assert returned - last_store < 1.0

    def test_sigkilled_helper_mid_sweep_is_recomputed(self, tmp_path, monkeypatch):
        # A killed helper's lease is stale by its dead pid at once; the
        # sweep must not wait for the TTL to run out.
        monkeypatch.setenv(LEASE_TTL_ENV, "30")
        configs = [_config(seed=s, intensity=60) for s in (1, 2, 3, 4, 5, 6)]
        root = tmp_path / "queue-root"
        sweeper = os.getpid()
        killed, stop = _MP.Value("i", 0), _MP.Event()

        def kill_first_helper_lease():
            # Any lease not held by the sweeping process is a helper's.
            while not stop.is_set():
                for path in (root / CLAIMS_DIR).glob("*.lease"):
                    lease = read_lease(path)
                    if lease is not None and lease.pid != sweeper:
                        os.kill(lease.pid, signal.SIGKILL)
                        killed.value = lease.pid
                        return
                time.sleep(0.001)

        killer = _MP.Process(target=kill_first_helper_lease)
        killer.start()
        stats = EngineStats()
        try:
            run_configs(configs, cache_dir=root, executor="queue", jobs=2, stats=stats)
        finally:
            stop.set()
            killer.join(timeout=30)
        assert not killer.is_alive()
        assert killed.value != 0
        assert stats.elapsed < 10.0
        assert stats.computed == len(configs)
        assert stats.cached == 0
        assert pending_fingerprints(root) == []
        assert list((root / CLAIMS_DIR).glob("*.lease")) == []
        cache = ResultCache(root)
        for config, data in _serial_entries(tmp_path / "serial", configs):
            assert cache.path_for(config).read_bytes() == data


# ----------------------------------------------------------------------
# Queue entries
# ----------------------------------------------------------------------
class TestQueueEntries:
    def test_enqueue_is_idempotent(self, tmp_path):
        config = _config()
        fp1 = enqueue_config(tmp_path, config)
        fp2 = enqueue_config(tmp_path, config)
        assert fp1 == fp2
        assert pending_fingerprints(tmp_path) == [fp1]

    def test_enqueue_skips_done_cells(self, tmp_path):
        config = _config()
        result = run_configs([config])[0]
        ResultCache(tmp_path).store(config, result)
        enqueue_config(tmp_path, config)
        assert pending_fingerprints(tmp_path) == []

    def test_fingerprint_mismatch_is_dropped_as_invalid(self, tmp_path):
        config = _config()
        fingerprint = enqueue_config(tmp_path, config)
        # Rewrite the entry under a wrong filename: a worker must refuse
        # to compute it (it could never produce a valid done-marker).
        path = _queue_path(tmp_path, fingerprint)
        bogus = tmp_path / QUEUE_DIR / ("f" * 64 + ".json")
        os.rename(path, bogus)
        summary = run_worker(tmp_path)
        assert summary.computed == 0
        assert summary.invalid == 1
        assert pending_fingerprints(tmp_path) == []

    def test_entry_of_another_namespace_is_dropped_as_invalid(
        self, tmp_path, monkeypatch
    ):
        # A worker computes with run_experiment only; computing an entry
        # keyed for a custom runner's cache namespace would serve default
        # results to that runner's cache.
        import repro.experiments.queue as queue

        def poisoned(config):
            raise AssertionError(f"computed {config.label()}")

        monkeypatch.setattr(queue, "run_experiment", poisoned)
        config = _config()
        namespace = "tests.custom_runner"
        fingerprint = config_fingerprint(config, namespace=namespace)
        path = _queue_path(tmp_path, fingerprint)
        path.parent.mkdir(parents=True)
        path.write_text(
            json.dumps(
                {
                    "fingerprint": fingerprint,
                    "namespace": namespace,
                    "config": config_to_dict(config),
                }
            )
        )
        summary = run_worker(tmp_path)
        assert (summary.computed, summary.invalid) == (0, 1)
        assert pending_fingerprints(tmp_path) == []

    def test_corrupt_entry_is_dropped_as_invalid(self, tmp_path):
        config = _config()
        fingerprint = enqueue_config(tmp_path, config)
        _queue_path(tmp_path, fingerprint).write_text("{not json", encoding="utf-8")
        summary = run_worker(tmp_path)
        assert summary.invalid == 1

    def test_done_marker_reaps_queue_entry(self, tmp_path):
        config = _config()
        result = run_configs([config])[0]
        fingerprint = enqueue_config(tmp_path, config)
        # Simulate "another worker finished while this entry waited".
        ResultCache(tmp_path).store(config, result)
        summary = run_worker(tmp_path)
        assert summary.computed == 0
        assert summary.reaped == 1
        assert pending_fingerprints(tmp_path) == []
        assert fingerprint == config_fingerprint(config)


# ----------------------------------------------------------------------
# Claim protocol
# ----------------------------------------------------------------------
def _race_claims(root, fingerprint, racers, out):
    barrier = _MP.Barrier(racers)

    def attempt(slot):
        barrier.wait()
        out[slot] = try_claim(root, fingerprint, owner=f"racer-{slot}")
        # Stay alive until every racer has tried: a lease whose owner has
        # exited is rightly stale, and stealing it is not a second win.
        barrier.wait(timeout=30)

    processes = [
        _MP.Process(target=attempt, args=(slot,)) for slot in range(racers)
    ]
    for p in processes:
        p.start()
    for p in processes:
        p.join(timeout=30)
    assert all(not p.is_alive() for p in processes)


class TestClaimProtocol:
    FP = "ab" + "0" * 62

    def test_exactly_one_of_n_racing_claims_wins(self, tmp_path):
        racers = 8
        out = _MP.Manager().dict()
        _race_claims(str(tmp_path), self.FP, racers, out)
        wins = [slot for slot in range(racers) if out[slot]]
        assert len(wins) == 1
        lease = read_lease(_lease_path(tmp_path, self.FP))
        assert lease is not None
        assert lease.owner == f"racer-{wins[0]}"

    def test_fresh_lease_blocks_other_claimants(self, tmp_path):
        assert try_claim(tmp_path, self.FP, owner="first")
        assert not try_claim(tmp_path, self.FP, owner="second")
        lease = read_lease(_lease_path(tmp_path, self.FP))
        assert lease.owner == "first"

    def test_expired_ttl_lease_is_stale(self, tmp_path):
        assert try_claim(tmp_path, self.FP, owner="first", ttl=0.05)
        time.sleep(0.15)
        lease = read_lease(_lease_path(tmp_path, self.FP))
        assert lease_is_stale(lease)
        # ... and therefore claimable by someone else.
        assert try_claim(tmp_path, self.FP, owner="second")
        assert read_lease(_lease_path(tmp_path, self.FP)).owner == "second"

    def test_dead_pid_on_same_host_is_stale_before_ttl(self, tmp_path):
        # A forked child that exits immediately gives a real dead pid.
        child = _MP.Process(target=lambda: None)
        child.start()
        child.join()
        path = _lease_path(tmp_path, self.FP)
        path.parent.mkdir(parents=True, exist_ok=True)
        now = time.time()
        import socket as socket_module

        lease = Lease(
            fingerprint=self.FP,
            owner="dead",
            host=socket_module.gethostname(),
            pid=child.pid,
            acquired_at=now,
            heartbeat_at=now,  # heartbeat is fresh; only the pid is dead
            ttl=3600.0,
        )
        path.write_text(lease.to_json(), encoding="utf-8")
        assert lease_is_stale(read_lease(path))
        assert try_claim(tmp_path, self.FP, owner="stealer")

    def test_stale_lease_stolen_exactly_once(self, tmp_path):
        path = _lease_path(tmp_path, self.FP)
        path.parent.mkdir(parents=True, exist_ok=True)
        lease = Lease(
            fingerprint=self.FP,
            owner="dead",
            host="elsewhere",
            pid=1,
            acquired_at=0.0,
            heartbeat_at=0.0,  # epoch: expired beyond any doubt
            ttl=1.0,
        )
        path.write_text(lease.to_json(), encoding="utf-8")
        racers = 8
        out = _MP.Manager().dict()
        barrier = _MP.Barrier(racers)

        def attempt(slot):
            barrier.wait()
            out[slot] = steal_lease(path)

        processes = [
            _MP.Process(target=attempt, args=(slot,)) for slot in range(racers)
        ]
        for p in processes:
            p.start()
        for p in processes:
            p.join(timeout=30)
        wins = [slot for slot in range(racers) if out[slot]]
        assert len(wins) == 1
        assert not path.exists()

    def test_racing_workers_compute_each_cell_once(self, tmp_path):
        configs = [_config(seed=s) for s in (1, 2, 3)]
        for config in configs:
            enqueue_config(tmp_path, config)
        workers = 3
        out = _MP.Manager().dict()
        barrier = _MP.Barrier(workers)

        def drain(slot):
            barrier.wait()
            summary = run_worker(tmp_path, idle_timeout=1.0, poll=0.05)
            out[slot] = summary.computed

        processes = [
            _MP.Process(target=drain, args=(slot,)) for slot in range(workers)
        ]
        for p in processes:
            p.start()
        for p in processes:
            p.join(timeout=120)
        assert all(not p.is_alive() for p in processes)
        # Every cell computed exactly once across the fleet...
        assert sum(out.values()) == len(configs)
        # ... and whatever worker computed each cell, the stored entry is
        # byte-identical to what a serial run would have written.
        worker_cache = ResultCache(tmp_path)
        for config, data in _serial_entries(tmp_path / "serial-reference", configs):
            assert worker_cache.path_for(config).read_bytes() == data
        assert verify_cache(tmp_path).bad == 0

    def test_refresh_refuses_missing_or_foreign_lease(self, tmp_path):
        # Missing lease: nothing to heartbeat, and none is resurrected.
        assert not refresh_lease(tmp_path, self.FP, owner="ghost", ttl=60.0)
        assert read_lease(_lease_path(tmp_path, self.FP)) is None
        # Foreign lease: a stalled owner must not clobber the claimant.
        assert try_claim(tmp_path, self.FP, owner="claimant")
        assert not refresh_lease(tmp_path, self.FP, owner="ghost", ttl=60.0)
        assert read_lease(_lease_path(tmp_path, self.FP)).owner == "claimant"
        # The actual owner still heartbeats fine.
        assert refresh_lease(tmp_path, self.FP, owner="claimant", ttl=60.0)

    def test_release_with_owner_spares_foreign_lease(self, tmp_path):
        assert try_claim(tmp_path, self.FP, owner="claimant")
        release_lease(tmp_path, self.FP, owner="ghost")
        assert read_lease(_lease_path(tmp_path, self.FP)).owner == "claimant"
        release_lease(tmp_path, self.FP, owner="claimant")
        assert read_lease(_lease_path(tmp_path, self.FP)) is None

    def test_resumed_heartbeat_stops_after_lease_stolen(self, tmp_path):
        from repro.experiments.queue import _LeaseHeartbeat

        assert try_claim(tmp_path, self.FP, owner="stalled", ttl=0.2)
        heartbeat = _LeaseHeartbeat(tmp_path, self.FP, "stalled", ttl=0.2)
        heartbeat.start()
        try:
            # A stealer re-claims while the stalled owner's heartbeat is
            # still running; the heartbeat must notice and die rather than
            # overwrite the new lease forever.  (A non-atomic read/write
            # pair can clobber one write, so keep re-asserting the theft.)
            path = _lease_path(tmp_path, self.FP)
            now = time.time()
            thief = Lease(
                fingerprint=self.FP,
                owner="thief",
                host="elsewhere",
                pid=1,
                acquired_at=now,
                heartbeat_at=now,
                ttl=3600.0,
            )
            deadline = time.monotonic() + 10.0
            while heartbeat.is_alive() and time.monotonic() < deadline:
                path.write_text(thief.to_json(), encoding="utf-8")
                time.sleep(0.05)
            assert not heartbeat.is_alive()
            assert read_lease(path).owner == "thief"
        finally:
            heartbeat.stop()

    def test_heartbeat_keeps_long_cell_claims_fresh(self, tmp_path):
        from repro.experiments.queue import _LeaseHeartbeat

        assert try_claim(tmp_path, self.FP, owner="slow", ttl=0.4)
        heartbeat = _LeaseHeartbeat(tmp_path, self.FP, "slow", ttl=0.4)
        heartbeat.start()
        try:
            time.sleep(1.2)  # three TTLs: without heartbeats this is stale
            lease = read_lease(_lease_path(tmp_path, self.FP))
            assert lease is not None
            assert not lease_is_stale(lease)
            assert not try_claim(tmp_path, self.FP, owner="thief", ttl=0.4)
        finally:
            heartbeat.stop()

    def test_sigkilled_workers_cell_is_stolen_and_sweep_completes(self, tmp_path):
        config = _config()
        fingerprint = enqueue_config(tmp_path, config)

        def doomed():
            # Claim, then die without heartbeating or releasing —
            # exactly what SIGKILL mid-cell leaves behind.
            try_claim(tmp_path, fingerprint, owner="doomed", ttl=0.3)
            os._exit(0)

        victim = _MP.Process(target=doomed)
        victim.start()
        victim.join(timeout=30)
        lease = read_lease(_lease_path(tmp_path, fingerprint))
        assert lease is not None and lease.owner == "doomed"
        # The sweep steals the orphaned lease and finishes the cell.
        stats = EngineStats()
        results = run_configs(
            [config],
            cache_dir=tmp_path,
            executor="queue",
            stats=stats,
        )
        assert len(results) == 1
        assert stats.computed == 1
        assert ResultCache(tmp_path).load(config) is not None


class TestTombstoneSweep:
    """A stealer that crashes between its rename and unlink leaks a
    ``*.stale-*`` tombstone, and a claimant or heartbeat that crashes
    before publishing its lease leaks a ``*.tmp-*`` file; worker/sweep
    startup reclaims old ones."""

    def _tombstone(self, tmp_path, name, age):
        claims = tmp_path / CLAIMS_DIR
        claims.mkdir(parents=True, exist_ok=True)
        path = claims / name
        path.write_text("{}", encoding="utf-8")
        then = time.time() - age
        os.utime(path, (then, then))
        return path

    def test_old_tombstones_swept_young_ones_kept(self, tmp_path):
        old = self._tombstone(
            tmp_path, "ab" + "0" * 62 + ".lease.stale-deadbeef", age=120.0
        )
        # A young tombstone may belong to a steal still in flight.
        fresh = self._tombstone(
            tmp_path, "cd" + "0" * 62 + ".lease.stale-cafe0123", age=0.0
        )
        old_tmp = self._tombstone(
            tmp_path, "ab" + "0" * 62 + ".lease.tmp-4242-abcdef", age=120.0
        )
        # A young temp file may belong to a claim still being published.
        fresh_tmp = self._tombstone(
            tmp_path, "cd" + "0" * 62 + ".lease.tmp-4242-fedcba", age=0.0
        )
        # Live leases are never touched, whatever their age.
        live = _lease_path(tmp_path, "ef" + "0" * 62)
        assert try_claim(tmp_path, "ef" + "0" * 62, owner="live")
        os.utime(live, (time.time() - 120.0,) * 2)
        assert _sweep_stale_tombstones(tmp_path, ttl=60.0) == 2
        assert not old.exists()
        assert not old_tmp.exists()
        assert fresh.exists()
        assert fresh_tmp.exists()
        assert read_lease(live) is not None

    def test_run_worker_sweeps_on_startup(self, tmp_path):
        old = self._tombstone(
            tmp_path, "ab" + "0" * 62 + ".lease.stale-deadbeef", age=120.0
        )
        run_worker(tmp_path, lease_ttl=60.0)
        assert not old.exists()
