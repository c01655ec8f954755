"""Crash-hardened grid engine: long-lived workers compute and store many
cells each, a killed worker's cell is retried with backoff, hung cells are
cancelled on the per-cell deadline while the rest of the sweep completes,
and ``verify_cache`` quarantines damaged cache entries.
"""

import base64
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
import repro.experiments.parallel as parallel
from repro.experiments.config import ExperimentConfig
from repro.experiments.parallel import (
    CELL_TIMEOUT_ENV,
    EngineStats,
    WorkerError,
    config_fingerprint,
    result_to_payload,
    run_configs,
    verify_cache,
)
from repro.experiments.runner import run_experiment


def tiny_configs(n=3):
    return [
        ExperimentConfig(cores=4, intensity=10, policy="FIFO", seed=seed)
        for seed in range(1, n + 1)
    ]


def crash_once_runner(config):
    """SIGKILLs the seed-1 worker on its first attempt only (sentinel on
    disk), simulating an OOM kill the retry recovers from."""
    sentinel = Path(os.environ["REPRO_TEST_CRASH_SENTINEL"])
    if config.seed == 1 and not sentinel.exists():
        sentinel.write_text("crashed")
        os.kill(os.getpid(), signal.SIGKILL)
    return run_experiment(config)


def crash_always_runner(config):
    """The seed-1 cell dies on every attempt: the retry budget must
    exhaust into a WorkerError, never a hang."""
    if config.seed == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return run_experiment(config)


def pid_recording_runner(config):
    """Writes the computing process's pid to one file per seed."""
    Path(os.environ["REPRO_TEST_PID_DIR"], str(config.seed)).write_text(str(os.getpid()))
    return run_experiment(config)


#: A script that runs a long ``jobs=2`` sweep whose runner touches
#: ``argv[1]/<pid>`` for every cell it starts.
ORPHANED_SWEEP = """
import os, sys
from pathlib import Path
from repro.experiments.config import ExperimentConfig
from repro.experiments.parallel import run_configs
from repro.experiments.runner import run_experiment

def runner(config):
    Path(sys.argv[1], str(os.getpid())).touch()
    return run_experiment(config)

configs = [ExperimentConfig(cores=4, intensity=10, seed=s) for s in range(1, 500)]
run_configs(configs, jobs=2, runner=runner)
"""


def running(pid):
    """Whether ``pid`` exists and is not a zombie awaiting its reaper."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def wait_for(condition, seconds=30.0):
    deadline = time.monotonic() + seconds
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.05)
    return condition()


def sleepy_runner(config):
    """The seed-1 cell hangs far past any reasonable deadline."""
    if config.seed == 1:
        time.sleep(120.0)
    return run_experiment(config)


class TestWorkerCrash:
    def test_killed_worker_is_respawned_and_the_cell_completes(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(
            "REPRO_TEST_CRASH_SENTINEL", str(tmp_path / "sentinel")
        )
        configs = tiny_configs()
        stats = EngineStats()
        results = run_configs(
            configs, jobs=2, runner=crash_once_runner, stats=stats
        )
        assert stats.retries == 1
        assert stats.computed == len(configs)
        assert [r.config.seed for r in results] == [1, 2, 3]
        # The respawned cell is deterministic: bit-identical to inline.
        assert results[0].records == run_experiment(configs[0]).records

    def test_repeated_death_surfaces_as_worker_error_with_exit_code(self):
        stats = EngineStats()
        with pytest.raises(WorkerError) as err:
            run_configs(
                tiny_configs(), jobs=2, runner=crash_always_runner, stats=stats
            )
        assert stats.retries == 1  # one respawn before giving up
        assert "worker process died" in str(err.value)
        assert "exit code" in str(err.value)
        assert tiny_configs()[0].label() in str(err.value)


class TestLongLivedWorkers:
    def test_two_workers_compute_every_cell(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_PID_DIR", str(tmp_path))
        stats = EngineStats()
        run_configs(tiny_configs(6), jobs=2, runner=pid_recording_runner, stats=stats)
        pids = {path.read_text() for path in tmp_path.iterdir()}
        assert stats.computed == len(list(tmp_path.iterdir())) == 6
        assert 1 <= len(pids) <= 2
        assert str(os.getpid()) not in pids

    def test_workers_store_their_own_entries(self, tmp_path, monkeypatch):
        parent = os.getpid()
        store = parallel.ResultCache.store

        def store_outside_the_parent(cache, config, result):
            if os.getpid() == parent:
                raise AssertionError(f"the parent stored {config.label()}")
            return store(cache, config, result)

        monkeypatch.setattr(parallel.ResultCache, "store", store_outside_the_parent)
        configs = tiny_configs(4)
        stats = EngineStats()
        run_configs(configs, jobs=2, cache_dir=tmp_path, stats=stats)
        assert stats.computed == len(configs)
        cache = parallel.ResultCache(tmp_path)
        assert all(cache.load(config) is not None for config in configs)

    def test_worker_killed_while_idle_is_replaced(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_PID_DIR", str(tmp_path))
        configs = tiny_configs(4)
        seeds = {config.label(): config.seed for config in configs}
        killed = []

        def kill_first_worker(done, total, label, cached):
            if killed:
                return
            pid = int((tmp_path / str(seeds[label])).read_text())
            os.kill(pid, signal.SIGKILL)
            # Wait for the exit without reaping it, so the engine's next
            # send to that worker meets a closed pipe.
            os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
            killed.append(pid)

        stats = EngineStats()
        results = run_configs(
            configs,
            jobs=2,
            runner=pid_recording_runner,
            progress=kill_first_worker,
            stats=stats,
        )
        assert killed
        assert [result_to_payload(r) for r in results] == [
            result_to_payload(run_experiment(config)) for config in configs
        ]
        assert stats.computed == len(configs)
        assert stats.retries <= 1

    def test_workers_exit_when_the_parent_is_killed(self, tmp_path):
        src = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        sweep = subprocess.Popen([sys.executable, "-c", ORPHANED_SWEEP, str(tmp_path)], env=env)
        try:
            assert wait_for(lambda: len(list(tmp_path.iterdir())) == 2)
        finally:
            sweep.kill()
            sweep.wait(timeout=30)
        workers = [int(path.name) for path in tmp_path.iterdir()]
        # Each one finishes its cell, finds no parent to report to, and exits.
        assert wait_for(lambda: not any(running(pid) for pid in workers))


class TestCellTimeout:
    def test_hung_cell_is_cancelled_and_the_sweep_completes(self, tmp_path):
        configs = tiny_configs()
        cache_dir = tmp_path / "cache"
        stats = EngineStats()
        with pytest.raises(WorkerError) as err:
            run_configs(
                configs,
                jobs=2,
                runner=sleepy_runner,
                cache_dir=cache_dir,
                stats=stats,
                cell_timeout=3.0,
            )
        assert stats.timeouts == 1
        assert configs[0].label() in str(err.value)
        assert "cell timeout" in str(err.value)
        # The other cells finished (and were cached) before the raise.
        assert stats.computed == len(configs) - 1
        cached = list(cache_dir.glob("*/*.json"))
        assert len(cached) == len(configs) - 1

    @pytest.mark.parametrize("via", ["argument", "environment"])
    def test_budget_at_one_job_runs_through_a_worker(self, tmp_path, monkeypatch, via):
        # The inline path cannot cancel itself, so a budget is never
        # ignored: even at jobs=1 the sweep runs through the supervisor.
        if via == "environment":
            monkeypatch.setenv(CELL_TIMEOUT_ENV, "1.0")
        configs = tiny_configs()
        stats = EngineStats()
        with pytest.raises(WorkerError) as err:
            run_configs(
                configs,
                jobs=1,
                runner=sleepy_runner,
                cache_dir=tmp_path,
                stats=stats,
                cell_timeout=1.0 if via == "argument" else None,
            )
        assert stats.timeouts == 1
        assert configs[0].label() in str(err.value)
        assert stats.computed == len(configs) - 1
        assert len(list(tmp_path.glob("*/*.json"))) == len(configs) - 1

    def test_env_var_supplies_the_default_budget(self, monkeypatch):
        monkeypatch.setenv(CELL_TIMEOUT_ENV, "2.5")
        assert parallel._resolve_cell_timeout(None) == 2.5
        # An explicit value wins over the environment.
        assert parallel._resolve_cell_timeout(1.0) == 1.0

    def test_non_positive_disables(self, monkeypatch):
        monkeypatch.setenv(CELL_TIMEOUT_ENV, "0")
        assert parallel._resolve_cell_timeout(None) is None
        assert parallel._resolve_cell_timeout(-5.0) is None
        monkeypatch.delenv(CELL_TIMEOUT_ENV)
        assert parallel._resolve_cell_timeout(None) is None

    def test_unparseable_env_var_is_a_clean_error(self, monkeypatch):
        monkeypatch.setenv(CELL_TIMEOUT_ENV, "soon")
        with pytest.raises(ValueError, match=CELL_TIMEOUT_ENV):
            parallel._resolve_cell_timeout(None)


class TestVerifyCache:
    def populate(self, cache_dir, n=3):
        configs = tiny_configs(n)
        run_configs(configs, jobs=1, cache_dir=cache_dir)
        return configs

    def entry_paths(self, cache_dir):
        return sorted(Path(cache_dir).glob("*/*.json"))

    def test_healthy_cache_verifies_clean(self, tmp_path):
        self.populate(tmp_path)
        report = verify_cache(tmp_path)
        assert (report.scanned, report.ok, report.bad) == (3, 3, 0)
        assert report.quarantined == []

    def test_truncated_entry_is_quarantined(self, tmp_path):
        configs = self.populate(tmp_path)
        victim = self.entry_paths(tmp_path)[0]
        victim.write_text(victim.read_text()[:25])  # lost power mid-write
        report = verify_cache(tmp_path)
        assert report.corrupt == 1
        assert report.ok == 2
        assert not victim.exists()
        quarantined = list((tmp_path / "quarantine").iterdir())
        assert [p.name for p in quarantined] == report.quarantined
        # The surviving entries still serve hits.
        cache = parallel.ResultCache(tmp_path)
        hits = [c for c in configs if cache.load(c) is not None]
        assert len(hits) == 2

    def test_fingerprint_mismatch_is_corrupt(self, tmp_path):
        self.populate(tmp_path, n=2)
        a, b = self.entry_paths(tmp_path)
        # A payload copied under the wrong name can never be a valid hit.
        b.write_text(a.read_text())
        report = verify_cache(tmp_path)
        assert report.corrupt == 1

    def test_stale_schema_is_quarantined_separately(self, tmp_path):
        self.populate(tmp_path)
        victim = self.entry_paths(tmp_path)[0]
        payload = json.loads(victim.read_text())
        payload["schema"] = payload["schema"] - 1
        victim.write_text(json.dumps(payload))
        report = verify_cache(tmp_path)
        assert (report.corrupt, report.stale) == (0, 1)
        assert report.bad == 1

    def test_no_quarantine_reports_but_leaves_files(self, tmp_path):
        self.populate(tmp_path)
        victim = self.entry_paths(tmp_path)[0]
        victim.write_text("{")
        report = verify_cache(tmp_path, quarantine=False)
        assert report.corrupt == 1
        assert victim.exists()
        assert report.quarantined == []
        assert not (tmp_path / "quarantine").exists()

    def test_quarantine_dir_is_never_scanned(self, tmp_path):
        self.populate(tmp_path)
        self.entry_paths(tmp_path)[0].write_text("garbage")
        first = verify_cache(tmp_path)
        assert first.corrupt == 1
        second = verify_cache(tmp_path)
        assert (second.scanned, second.corrupt) == (2, 0)

    @pytest.mark.parametrize("counter", ["retries", "gave_up", "failed_calls"])
    def test_entry_without_a_failure_counter_is_a_miss(self, tmp_path, counter):
        # A cell that retried, so a counter read as 0 would be wrong.
        config = ExperimentConfig(
            cores=4,
            intensity=10,
            policy="FIFO",
            seed=1,
            failures={"timeout_s": 5.0, "max_attempts": 3, "container_kill_rate": 0.2},
        )
        (result,) = run_configs([config], jobs=1, cache_dir=tmp_path)
        assert result.accumulator.retries > 0
        (victim,) = self.entry_paths(tmp_path)
        payload = json.loads(victim.read_text())
        del payload["result"]["accumulator"][counter]
        victim.write_text(json.dumps(payload))
        assert parallel.ResultCache(tmp_path).load(config) is None
        report = verify_cache(tmp_path)
        assert (report.scanned, report.corrupt) == (1, 1)

    def test_missing_root_is_an_empty_report(self, tmp_path):
        report = verify_cache(tmp_path / "nope")
        assert (report.scanned, report.bad) == (0, 0)

    def test_verified_entries_match_their_fingerprints(self, tmp_path):
        configs = self.populate(tmp_path)
        stems = {p.stem for p in self.entry_paths(tmp_path)}
        assert stems == {config_fingerprint(c) for c in configs}


def _truncate_float_column(result):
    columns = result["records"]["columns"]
    text = columns["completed_at"]
    columns["completed_at"] = text[: len(text) - 8]


def _drop_one_value(result):
    result["records"]["columns"]["rid"].pop()


def _non_base64(result):
    columns = result["records"]["columns"]
    columns["exec_end"] = "*" + columns["exec_end"][1:]


def _negative_code(result):
    result["records"]["columns"]["function_name"]["codes"][0] = -1


def _code_out_of_range(result):
    column = result["records"]["columns"]["start_kind"]
    column["codes"][0] = len(column["values"])


def _count_disagrees(result):
    result["records"]["n"] += 1


def _repack(text, cut):
    """Valid base64 of ``text``'s bytes less the last ``cut``."""
    return base64.b64encode(base64.b64decode(text)[:-cut]).decode("ascii")


def _digest_non_base64(result):
    digest = result["accumulator"]["response_digest"]
    digest["means"] = "*" + digest["means"][1:]


def _digest_partial_float(result):
    digest = result["accumulator"]["stretch_digest"]
    digest["weights"] = _repack(digest["weights"], 4)


def _digest_lengths_differ(result):
    digest = result["accumulator"]["response_digest"]
    digest["means"] = _repack(digest["means"], 8)


#: Ways a stored entry's packed record columns and packed t-digest
#: centroids can be damaged.
DAMAGE = {
    "truncated float column": _truncate_float_column,
    "column with n - 1 values": _drop_one_value,
    "non-base64 characters": _non_base64,
    "negative string code": _negative_code,
    "out-of-range string code": _code_out_of_range,
    "n disagrees with the columns": _count_disagrees,
    "non-base64 digest means": _digest_non_base64,
    "digest weights not whole float64s": _digest_partial_float,
    "digest means and weights differ in length": _digest_lengths_differ,
}


class TestDamagedPackedEntries:
    """A damaged record column or t-digest is a miss for ``load`` and
    ``corrupt`` for ``verify_cache``, never an exception or wrongly
    decoded results."""

    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_damaged_entry_is_a_miss_and_quarantined(self, tmp_path, damage):
        config = tiny_configs(1)[0]
        cache = parallel.ResultCache(tmp_path)
        path = cache.store(config, run_experiment(config))
        payload = json.loads(path.read_text())
        DAMAGE[damage](payload["result"])
        path.write_text(json.dumps(payload))

        assert cache.load(config) is None
        assert cache.misses == 1
        report = verify_cache(tmp_path)
        assert (report.scanned, report.corrupt, report.stale) == (1, 1, 0)
        assert report.quarantined == [f"{path.parent.name}-{path.name}"]
        assert not path.exists()
