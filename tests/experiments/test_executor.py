"""The executor choice and the local backend."""

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.grid import GridSpec, run_grid
from repro.experiments.parallel import EngineStats, run_configs


def test_unknown_executor_lists_available():
    with pytest.raises(ValueError, match="unknown executor 'slurm'.*local.*queue"):
        run_configs([ExperimentConfig(cores=10, intensity=30, seed=1)], executor="slurm")


class TestLocalBackend:
    def test_run_configs_defaults_to_local(self):
        stats = EngineStats()
        configs = [
            ExperimentConfig(cores=10, intensity=30, policy="FIFO", seed=s)
            for s in (1, 2)
        ]
        results = run_configs(configs, stats=stats)
        assert len(results) == 2
        assert stats.executor == "local"
        assert stats.computed == 2
        assert stats.elapsed > 0

    def test_explicit_executor_threads_through_run_grid(self, tmp_path):
        spec = GridSpec(
            cores=(10,), intensities=(30,), strategies=("FIFO",), seeds=(1,)
        )
        grid = run_grid(spec, cache_dir=tmp_path, executor="local")
        assert grid.stats.executor == "local"
        assert grid.stats.computed == 1

    def test_shared_stats_accumulate_across_sweeps(self):
        stats = EngineStats()
        spec = GridSpec(
            cores=(10,), intensities=(30,), strategies=("FIFO",), seeds=(1,)
        )
        run_grid(spec, stats=stats)
        run_grid(spec, stats=stats)
        assert stats.total == 2
        assert stats.computed == 2

    def test_local_executor_stores_into_cache(self, tmp_path):
        configs = [ExperimentConfig(cores=10, intensity=30, policy="FIFO", seed=1)]
        run_configs(configs, cache_dir=tmp_path)
        stats = EngineStats()
        run_configs(configs, cache_dir=tmp_path, stats=stats)
        assert stats.cached == 1
        assert stats.computed == 0

    def test_summary_line_format(self):
        stats = EngineStats(total=4, computed=1, cached=3, jobs=2, elapsed=1.25)
        line = stats.summary_line()
        assert "engine: 4 runs (1 computed, 3 from cache" in line
        assert "jobs=2" in line
        assert "executor=local" in line
        assert "retries=0" in line
        assert "timeouts=0" in line
        assert "elapsed=1.2s" in line
