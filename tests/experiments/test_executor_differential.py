"""Differential engine test: one grid through every executor and jobs value.

Each cell seeds its own RNGs from its config, so whichever engine runs a
sweep, the cache root it leaves behind must be byte-identical, and its
engine counters must tell the truth: a cold pass computes every cell, an
all-hit re-run computes none.
"""

import pytest

from repro.experiments.grid import GridSpec, run_grid

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
