"""Parallel execution engine: serial-vs-parallel bit-identity, on-disk
cache hit/miss/invalidation, and worker-failure propagation.
"""

import json

import pytest

import repro
import repro.experiments.parallel as parallel
from repro.experiments.config import ExperimentConfig
from repro.experiments.grid import GridSpec, run_grid
from repro.experiments.parallel import (
    EngineStats,
    ResultCache,
    WorkerError,
    config_fingerprint,
    config_from_dict,
    config_to_dict,
    progress_printer,
    result_from_payload,
    result_to_payload,
    run_configs,
    verify_cache,
)
from repro.experiments.queue import QUEUE_DIR, enqueue_config, run_worker
from repro.experiments.runner import run_experiment, run_repetitions

#: A config as the removed ``MultiNodeConfig`` type serialized it.
LEGACY_MULTI_NODE_CONFIG = {
    "type": "MultiNodeConfig",
    "fields": {
        "nodes": 2,
        "cores_per_node": 4,
        "total_requests": 10,
        "policy": "FC",
        "seed": 1,
        "memory_mb": 40960,
        "balancer": "least-loaded",
        "window_s": 60.0,
        "node_overrides": [],
    },
}


def tagging_runner(config):
    """A custom runner whose output is distinguishable from the default's."""
    result = run_experiment(config)
    return type(result)(config=result.config, records=result.records, node_stats=[])


def tiny_spec() -> GridSpec:
    """A 4-run slice cheap enough for cache/progress tests."""
    return GridSpec(cores=(4,), intensities=(10,), strategies=("FIFO", "SEPT"), seeds=(1, 2))


def assert_results_identical(a, b) -> None:
    """Bit-identity: frozen-dataclass records compare field-by-field with
    exact float equality, and node stats are plain dicts."""
    assert a.config == b.config
    assert a.records == b.records
    assert a.node_stats == b.node_stats


class TestBitIdentity:
    def test_parallel_matches_serial_on_quick_grid(self):
        spec = GridSpec.quick()
        serial = run_grid(spec, jobs=1)
        parallel_grid = run_grid(spec, jobs=4)

        assert serial.cells.keys() == parallel_grid.cells.keys()
        for key in serial.cells:
            for s, p in zip(serial.cells[key], parallel_grid.cells[key]):
                assert_results_identical(s, p)
        for cores, intensity, strategy in spec.cells():
            assert serial.summary(cores, intensity, strategy) == parallel_grid.summary(
                cores, intensity, strategy
            )
        assert serial.stats.computed == serial.stats.total
        assert parallel_grid.stats.computed == parallel_grid.stats.total

    def test_run_repetitions_parallel_matches_serial(self):
        cfg = ExperimentConfig(cores=4, intensity=10, policy="SEPT")
        serial = run_repetitions(cfg, seeds=(1, 2, 3))
        parallel_reps = run_repetitions(cfg, seeds=(1, 2, 3), jobs=3)
        assert [r.config.seed for r in parallel_reps] == [1, 2, 3]
        for s, p in zip(serial, parallel_reps):
            assert_results_identical(s, p)


class TestScenarioBitIdentity:
    """Acceptance: every registered scenario runs through the engine with
    serial and parallel results bit-identical, and caches correctly."""

    @pytest.mark.parametrize(
        "scenario", ["azure", "poisson", "diurnal", "zipf-multitenant", "trace", "multi-node"]
    )
    def test_serial_matches_parallel(self, scenario):
        configs = [
            ExperimentConfig(
                cores=4, intensity=10, policy="SEPT", seed=seed, scenario=scenario
            )
            for seed in (1, 2)
        ]
        serial = run_configs(configs, jobs=1)
        pooled = run_configs(configs, jobs=2)
        for s, p in zip(serial, pooled):
            assert_results_identical(s, p)

    def test_replay_serial_matches_parallel_and_caches(self, tmp_path):
        from repro.workload.replay import TraceRow, write_trace_csv

        csv_path = write_trace_csv(
            tmp_path / "trace.csv",
            [TraceRow("a", "f1", 0, 15), TraceRow("b", "f2", 1, 10)],
        )
        configs = [
            ExperimentConfig(
                cores=4, intensity=10, policy="FIFO", seed=seed, scenario="replay",
                scenario_params={"path": str(csv_path), "minute_s": 10.0},
            )
            for seed in (1, 2)
        ]
        serial = run_configs(configs, jobs=1)
        pooled = run_configs(configs, jobs=2, cache_dir=tmp_path / "cache")
        for s, p in zip(serial, pooled):
            assert_results_identical(s, p)
        stats = EngineStats()
        cached = run_configs(
            configs, jobs=1, cache_dir=tmp_path / "cache", stats=stats
        )
        assert stats.cached == 2
        for s, c in zip(serial, cached):
            assert_results_identical(s, c)

    def test_grid_under_non_default_scenario(self, tmp_path):
        spec = GridSpec(
            cores=(4,), intensities=(10,), strategies=("FIFO",), seeds=(1,),
            scenario="poisson", scenario_params=(("zipf_exponent", 1.1),),
        )
        serial = run_grid(spec, jobs=1)
        pooled = run_grid(spec, jobs=2, cache_dir=tmp_path)
        for key in serial.cells:
            for s, p in zip(serial.cells[key], pooled.cells[key]):
                assert_results_identical(s, p)
        config = pooled.cells[(4, 10, "FIFO")][0].config
        assert config.scenario == "poisson"
        # Declared defaults (rate=None) are merged in at construction.
        assert config.scenario_kwargs() == {"rate": None, "zipf_exponent": 1.1}


class TestFingerprint:
    def test_stable_within_version(self):
        cfg = ExperimentConfig(cores=4, intensity=10)
        assert config_fingerprint(cfg) == config_fingerprint(cfg)

    def test_sensitive_to_every_field(self):
        cfg = ExperimentConfig(cores=4, intensity=10)
        variants = [
            cfg.with_(cores=5),
            cfg.with_(intensity=20),
            cfg.with_(policy="SEPT"),
            cfg.with_(seed=2),
            cfg.with_(memory_mb=16384),
            cfg.with_(scenario="skewed"),
            cfg.with_(warmup=False),
            cfg.with_(window_s=30.0),
            cfg.with_(node_overrides=(("busy_limit", 3),)),
        ]
        fingerprints = {config_fingerprint(c) for c in [cfg, *variants]}
        assert len(fingerprints) == len(variants) + 1

    def test_legacy_multi_node_entries_are_refused(self, tmp_path):
        # Leftover entries of the removed config type neither load nor
        # run: the cache entry is a miss that `cache verify` reports
        # corrupt, and a worker drops the queue entry as invalid.
        cfg = ExperimentConfig(cores=4, intensity=10)
        cache = ResultCache(tmp_path / "cache")
        path = cache.store(cfg, run_experiment(cfg))
        entry = json.loads(path.read_text())
        entry["result"]["config"] = LEGACY_MULTI_NODE_CONFIG
        path.write_text(json.dumps(entry))
        assert cache.load(cfg) is None
        report = verify_cache(cache.root)
        assert (report.scanned, report.corrupt) == (1, 1)

        root = tmp_path / "queue"
        queued = root / QUEUE_DIR / f"{enqueue_config(root, cfg)}.json"
        entry = json.loads(queued.read_text())
        entry["config"] = LEGACY_MULTI_NODE_CONFIG
        queued.write_text(json.dumps(entry))
        summary = run_worker(root)
        assert (summary.computed, summary.invalid) == (0, 1)

    def test_changes_with_package_version(self, monkeypatch):
        cfg = ExperimentConfig(cores=4, intensity=10)
        before = config_fingerprint(cfg)
        monkeypatch.setattr(repro, "__version__", "0.0.0-test")
        assert config_fingerprint(cfg) != before

    def test_sensitive_to_scenario_params_only(self):
        base = ExperimentConfig(cores=4, intensity=10, scenario="azure")
        tweaked = base.with_(scenario_params=(("zipf_exponent", 1.5),))
        assert base.cores == tweaked.cores and base.seed == tweaked.seed
        assert config_fingerprint(base) != config_fingerprint(tweaked)

    def test_scenario_param_value_change_diverges(self):
        a = ExperimentConfig(
            cores=4, intensity=10, scenario="skewed",
            scenario_params={"rare_count": 5},
        )
        b = a.with_(scenario_params=(("rare_count", 6),))
        assert config_fingerprint(a) != config_fingerprint(b)

    def test_config_dict_round_trip(self):
        for cfg in (
            ExperimentConfig(cores=4, intensity=10, node_overrides=(("busy_limit", 3),)),
            ExperimentConfig(
                cores=4, intensity=10, scenario="skewed",
                scenario_params={"rare_function": "sleep", "rare_count": 2},
            ),
        ):
            assert config_from_dict(json.loads(json.dumps(config_to_dict(cfg)))) == cfg

    def test_tuple_valued_override_round_trips(self):
        cfg = ExperimentConfig(
            cores=4, intensity=10, node_overrides=(("prewarm_sizes", (1, 2, 3)),)
        )
        loaded = config_from_dict(json.loads(json.dumps(config_to_dict(cfg))))
        assert loaded == cfg
        assert loaded.node_overrides[0][1] == (1, 2, 3)


class TestResultCache:
    def test_store_then_load_is_bit_identical(self, tmp_path):
        cfg = ExperimentConfig(cores=4, intensity=10)
        result = run_experiment(cfg)
        cache = ResultCache(tmp_path)
        cache.store(cfg, result)
        loaded = cache.load(cfg)
        assert loaded is not None
        assert_results_identical(result, loaded)

    def test_payload_json_round_trip_preserves_floats(self):
        cfg = ExperimentConfig(cores=4, intensity=10)
        result = run_experiment(cfg)
        payload = json.loads(json.dumps(result_to_payload(result)))
        assert_results_identical(result, result_from_payload(payload))

    def test_miss_on_unknown_config(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.load(ExperimentConfig(cores=4, intensity=10)) is None
        assert cache.misses == 1

    def test_unusable_root_fails_fast(self, tmp_path):
        not_a_dir = tmp_path / "occupied"
        not_a_dir.write_text("")
        with pytest.raises(OSError):
            ResultCache(not_a_dir)

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cfg = ExperimentConfig(cores=4, intensity=10)
        cache = ResultCache(tmp_path)
        cache.store(cfg, run_experiment(cfg))
        cache.path_for(cfg).write_text("{not json")
        assert cache.load(cfg) is None

    def test_second_run_recomputes_zero_cells(self, tmp_path, monkeypatch):
        spec = tiny_spec()
        first = run_grid(spec, jobs=1, cache_dir=tmp_path)
        assert first.stats.computed == first.stats.total == 4
        assert first.stats.cached == 0

        # Any attempt to compute on the second pass would blow up here.
        def poisoned(config):
            raise AssertionError(f"cache miss recomputed {config.label()}")

        monkeypatch.setattr(parallel, "run_experiment", poisoned)
        second = run_grid(spec, jobs=1, cache_dir=tmp_path)
        assert second.stats.cached == second.stats.total == 4
        assert second.stats.computed == 0
        for key in first.cells:
            for a, b in zip(first.cells[key], second.cells[key]):
                assert_results_identical(a, b)

    def test_version_bump_invalidates(self, tmp_path, monkeypatch):
        spec = tiny_spec()
        run_grid(spec, jobs=1, cache_dir=tmp_path)
        monkeypatch.setattr(repro, "__version__", "0.0.0-test")
        again = run_grid(spec, jobs=1, cache_dir=tmp_path)
        assert again.stats.computed == again.stats.total == 4
        assert again.stats.cached == 0

    def test_custom_runner_does_not_share_default_cache(self, tmp_path):
        cfg = ExperimentConfig(cores=4, intensity=10)
        default = run_configs([cfg], jobs=1, cache_dir=tmp_path)[0]
        assert default.node_stats  # the default runner records node stats

        custom_stats = EngineStats()
        custom = run_configs(
            [cfg], jobs=1, cache_dir=tmp_path, runner=tagging_runner, stats=custom_stats
        )[0]
        assert custom_stats.computed == 1  # not served from the default's entry
        assert custom.node_stats == []

        # And the custom runner's entry must not poison the default cache.
        again = run_configs([cfg], jobs=1, cache_dir=tmp_path)[0]
        assert again.node_stats == default.node_stats

    def test_cache_shared_between_serial_and_parallel(self, tmp_path):
        spec = tiny_spec()
        warmed = run_grid(spec, jobs=2, cache_dir=tmp_path)
        assert warmed.stats.computed == 4
        reread = run_grid(spec, jobs=1, cache_dir=tmp_path)
        assert reread.stats.cached == 4

    def test_fully_cached_parallel_run(self, tmp_path):
        # jobs > 1 with zero misses must not try to build an empty pool.
        spec = tiny_spec()
        first = run_grid(spec, jobs=2, cache_dir=tmp_path)
        again = run_grid(spec, jobs=2, cache_dir=tmp_path)
        assert again.stats.cached == again.stats.total == 4
        for key in first.cells:
            for a, b in zip(first.cells[key], again.cells[key]):
                assert_results_identical(a, b)


class TestProgressAndStats:
    def test_progress_reports_every_run_once(self, tmp_path):
        spec = tiny_spec()
        events = []

        def record(done, total, label, cached):
            events.append((done, total, label, cached))

        run_grid(spec, jobs=1, cache_dir=tmp_path, progress=record)
        assert [e[0] for e in events] == [1, 2, 3, 4]
        assert all(e[1] == 4 and not e[3] for e in events)

        events.clear()
        run_grid(spec, jobs=1, cache_dir=tmp_path, progress=record)
        assert len(events) == 4 and all(cached for _, _, _, cached in events)

    def test_progress_printer_writes_lines(self):
        import io

        stream = io.StringIO()
        report = progress_printer(stream)
        report(1, 8, "FIFO c=10 v=30 seed=1", False)
        report(2, 8, "SEPT c=10 v=30 seed=1", True)
        lines = stream.getvalue().splitlines()
        assert "run" in lines[0] and "FIFO" in lines[0]
        assert "cache" in lines[1] and "SEPT" in lines[1]

    def test_stats_filled_in_place(self):
        stats = EngineStats()
        run_configs([ExperimentConfig(cores=4, intensity=10)], jobs=1, stats=stats)
        assert (stats.total, stats.computed, stats.cached) == (1, 1, 0)


class TestWorkerFailure:
    #: node_config() materialization rejects the bogus override, so the
    #: failure happens inside the worker, not at config construction.
    BAD = ExperimentConfig(cores=4, intensity=10, node_overrides=(("bogus_field", 1),))

    def test_pool_failure_raises_worker_error(self):
        good = ExperimentConfig(cores=4, intensity=10)
        with pytest.raises(WorkerError) as excinfo:
            run_configs([good, self.BAD, good.with_(seed=2)], jobs=2)
        err = excinfo.value
        assert "c=4 v=10" in err.label
        assert "bogus_field" in err.remote_traceback
        assert "TypeError" in str(err)

    def test_serial_failure_raises_original_exception(self):
        with pytest.raises(TypeError):
            run_configs([self.BAD], jobs=1)

    def test_single_pending_run_still_honours_worker_error_contract(self):
        # jobs > 1 promises WorkerError even when only one run is pending
        # (e.g. every other cell was a cache hit).
        with pytest.raises(WorkerError):
            run_configs([self.BAD], jobs=4)

    def test_failed_run_is_not_cached(self, tmp_path):
        good = ExperimentConfig(cores=4, intensity=10)
        with pytest.raises(WorkerError):
            run_configs([self.BAD, good], jobs=2, cache_dir=tmp_path)
        cache = ResultCache(tmp_path)
        assert cache.load(self.BAD) is None
