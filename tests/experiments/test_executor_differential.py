"""Differential engine test: one grid through every executor and jobs value.

Each cell seeds its own RNGs from its config, so whichever engine runs a
sweep, the cache root it leaves behind must be byte-identical, and its
engine counters must tell the truth: a cold pass computes every cell, an
all-hit re-run computes none.  The same holds when workers of either
executor are SIGKILLed mid-sweep on a random schedule.
"""

import os
import random
import signal
from pathlib import Path

import pytest

import repro.experiments.queue as queue
from repro.experiments.config import ExperimentConfig
from repro.experiments.grid import GridSpec, run_grid
from repro.experiments.parallel import EngineStats, run_configs
from repro.experiments.runner import run_experiment

SPEC = GridSpec(cores=(10,), intensities=(30,), strategies=("FIFO", "SEPT", "FC"), seeds=(1, 2))
TOTAL = 6
ENGINES = [("local", 1), ("local", 2), ("queue", 1), ("queue", 2)]


def _root_files(root):
    """Relative path -> bytes of every file under a cache root."""
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in root.rglob("*")
        if path.is_file()
    }


@pytest.fixture(scope="module")
def roots(tmp_path_factory):
    """Each engine's cache root after a cold pass and a warm re-run."""
    files = {}
    for executor, jobs in ENGINES:
        root = tmp_path_factory.mktemp(f"{executor}-jobs{jobs}")
        cold = run_grid(SPEC, cache_dir=root, executor=executor, jobs=jobs)
        warm = run_grid(SPEC, cache_dir=root, executor=executor, jobs=jobs)
        files[executor, jobs] = (cold.stats, warm.stats, _root_files(root))
    return files


@pytest.mark.parametrize("engine", ENGINES, ids=lambda e: f"{e[0]}-jobs{e[1]}")
def test_cold_pass_computes_every_cell(roots, engine):
    cold, _, _ = roots[engine]
    assert (cold.total, cold.computed, cold.cached) == (TOTAL, TOTAL, 0)


@pytest.mark.parametrize("engine", ENGINES, ids=lambda e: f"{e[0]}-jobs{e[1]}")
def test_warm_pass_is_all_hits(roots, engine):
    _, warm, _ = roots[engine]
    assert (warm.total, warm.computed, warm.cached) == (TOTAL, 0, TOTAL)


@pytest.mark.parametrize("engine", ENGINES[1:], ids=lambda e: f"{e[0]}-jobs{e[1]}")
def test_cache_root_matches_serial_local(roots, engine):
    _, _, reference = roots["local", 1]
    _, _, files = roots[engine]
    assert len(reference) == TOTAL
    assert sorted(files) == sorted(reference)
    assert [path for path in reference if files[path] != reference[path]] == []



def kill_once_runner(config):
    """SIGKILLs its own worker on the first attempt at a cell whose sentinel
    file is missing, creating the sentinel first so the retry lives.  A test
    picks the cells that die by the sentinels it leaves out."""
    sentinel = Path(os.environ["REPRO_TEST_SENTINELS"]) / config.label()
    if not sentinel.exists():
        sentinel.write_text("killed")
        os.kill(os.getpid(), signal.SIGKILL)
    return run_experiment(config)


#: SPEC's cells as configs, for runs with a custom runner.
KILL_CONFIGS = [
    ExperimentConfig(cores=10, intensity=30, policy=strategy, seed=seed)
    for strategy in SPEC.strategies
    for seed in SPEC.seeds
]


def _kill_schedule_run(root, spared, jobs, executor):
    """Run ``KILL_CONFIGS`` through :func:`kill_once_runner` with sentinels
    for the ``spared`` configs only; the stats and the cache root's files.
    The ``local`` executor takes it as a custom runner; ``queue`` workers
    compute with the queue module's runner, which forked workers inherit
    patched."""
    sentinels, cache = root / "sentinels", root / "cache"
    sentinels.mkdir()
    for config in spared:
        (sentinels / config.label()).write_text("spared")
    stats = EngineStats()
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_TEST_SENTINELS", str(sentinels))
        patch.setattr(queue, "run_experiment", kill_once_runner)
        run_configs(
            KILL_CONFIGS,
            jobs=jobs,
            cache_dir=cache,
            runner=kill_once_runner if executor == "local" else None,
            executor=executor,
            stats=stats,
        )
    return stats, _root_files(cache)


@pytest.fixture(scope="module")
def unkilled(tmp_path_factory):
    """Per executor, a serial run with every sentinel pre-created, so
    nothing dies."""
    return {
        executor: _kill_schedule_run(
            tmp_path_factory.mktemp(f"unkilled-{executor}"), KILL_CONFIGS, 1, executor
        )
        for executor in ("local", "queue")
    }


@pytest.mark.parametrize("executor", ["local", "queue"])
@pytest.mark.parametrize("seed", [3, 11, 29])
def test_random_sigkill_schedule_leaves_the_serial_cache_root(unkilled, tmp_path, seed, executor):
    rng = random.Random(seed)
    doomed = set(rng.sample(range(TOTAL), rng.randint(1, TOTAL)))
    spared = [config for i, config in enumerate(KILL_CONFIGS) if i not in doomed]
    stats, files = _kill_schedule_run(tmp_path, spared, 2, executor)
    serial_stats, serial_files = unkilled[executor]
    assert (serial_stats.computed, serial_stats.retries) == (TOTAL, 0)
    assert (stats.computed, stats.retries) == (TOTAL, len(doomed))
    assert len(files) == TOTAL
    assert [path for path in serial_files if files.get(path) != serial_files[path]] == []
    assert sorted(files) == sorted(serial_files)
