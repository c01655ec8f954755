"""The benchmark's workloads: which configs each one runs, and how.

Each workload is a fixed list of configs generated from the workload seed;
the program under test receives only those configs, through its public API
(``run_experiment`` for single cells, ``run_grid`` for sweeps).

* ``cell-fc`` / ``cell-baseline``: 40 single-node cells (uniform burst,
  10 cores, v=60, 660 calls each) on consecutive seeds, run inline and
  uncached, one after another.
* ``sweep-local`` / ``sweep-queue``: the 48-cell grid (10 cores x
  v in {30, 60} x {baseline, FIFO, SEPT, FC} x 6 seeds) through
  ``run_grid(jobs=2)`` on a fresh cache root (the cold pass), then
  all-hit re-runs of the same grid on that root (the warm passes).
"""

from __future__ import annotations

import gc
import hashlib
import shutil
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
#: Scratch space of the benchmark inside the checkout (cache roots, traces).
WORK_DIR = ROOT / ".perfbench"

CORES = 10
CELL_INTENSITY = 60
CELL_CONFIGS = 40
GRID_INTENSITIES = (30, 60)
GRID_STRATEGIES = ("baseline", "FIFO", "SEPT", "FC")
GRID_SEEDS = 6
#: All-hit passes after each cold pass of a sweep.
WARM_PASSES = 6


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``"cell"`` (inline single cells) or ``"sweep"`` (run_grid passes).
    kind: str
    policy: str = ""
    executor: str = ""


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("cell-fc", "cell", policy="FC"),
        Workload("cell-baseline", "cell", policy="baseline"),
        Workload("sweep-local", "sweep", executor="local"),
        Workload("sweep-queue", "sweep", executor="queue"),
    )
}


def import_repro():
    """Import the package from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(src):
        raise ImportError(f"repro imported from {repro.__file__}, not from {src}")
    return repro


def seed_base(seed: int) -> int:
    """First simulation seed of a workload seed's configs."""
    return 1 + 1000 * seed


def cell_configs(policy: str, seed: int) -> list:
    from repro.experiments.config import ExperimentConfig

    base = seed_base(seed)
    return [
        ExperimentConfig(cores=CORES, intensity=CELL_INTENSITY, policy=policy, seed=base + i)
        for i in range(CELL_CONFIGS)
    ]


def grid_spec(seed: int):
    from repro.experiments.grid import GridSpec

    base = seed_base(seed)
    return GridSpec(
        cores=(CORES,),
        intensities=GRID_INTENSITIES,
        strategies=GRID_STRATEGIES,
        seeds=tuple(range(base, base + GRID_SEEDS)),
    )


def grid_configs(seed: int) -> list:
    """The sweep's configs, in grid order."""
    from repro.experiments.config import ExperimentConfig

    spec = grid_spec(seed)
    return [
        ExperimentConfig(cores=cores, intensity=intensity, policy=strategy, seed=s)
        for cores, intensity, strategy in spec.cells()
        for s in spec.seeds
    ]


def grid_results(grid) -> list:
    """A GridResults' results, flattened in grid order."""
    return [result for results in grid.cells.values() for result in results]


def setup(workload: Workload, seed: int) -> list:
    """What a run does before its first config is ready: import the
    package, build the function catalog, generate the configs and, for
    sweeps, create a fresh cache root.  Returns the configs."""
    import_repro()
    from repro.experiments.runner import run_experiment  # noqa: F401
    from repro.workload.functions import sebs_catalog

    sebs_catalog()
    if workload.kind == "cell":
        return cell_configs(workload.policy, seed)
    from repro.experiments.grid import run_grid  # noqa: F401

    if workload.executor == "queue":
        import repro.experiments.queue  # noqa: F401
    configs = grid_configs(seed)
    shutil.rmtree(fresh_root(), ignore_errors=True)
    return configs


def fresh_root() -> Path:
    """A new, empty cache root inside the checkout."""
    WORK_DIR.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="cache-", dir=WORK_DIR))


def cache_entries(root: Path) -> Dict[str, Path]:
    """Fingerprint -> entry path for every entry in a cache root."""
    return {
        path.stem: path
        for path in root.glob("??/*.json")
        if all(c in "0123456789abcdef" for c in path.parent.name)
    }


# ----------------------------------------------------------------------
# Single cells
# ----------------------------------------------------------------------
@dataclass
class CellTiming:
    """Seconds of each inline cell, and the calls each simulated.

    ``seconds`` are scaled to the reference machine speed when the cells
    ran with a speed meter (see calibrate.py), and equal ``raw`` otherwise.
    """

    seconds: List[float] = field(default_factory=list)
    raw: List[float] = field(default_factory=list)
    calls: int = 0

    @property
    def total(self) -> float:
        return sum(self.seconds)


def run_cells(
    configs: list,
    check: Callable,
    *,
    until: Optional[float] = None,
    min_cells: int = 0,
    around: Callable = None,
    meter=None,
) -> CellTiming:
    """Run the configs inline, in order, timing each cell.

    With ``until`` (a ``perf_counter`` deadline) the list is cycled until
    the deadline passes, always finishing the first full pass and at
    least ``min_cells`` cells.  ``check``
    receives every result outside the timed region.  ``around``, when
    given, is a context-manager factory entered around each timed cell
    (the traced run uses it to attach the profiler and open a span).
    With a ``meter``, a calibration runs after every cell and each cell's
    time is scaled by the calibrations on both sides of it.
    """
    from repro.experiments.runner import run_experiment

    timing = CellTiming()
    i = 0
    while True:
        config = configs[i % len(configs)]
        with around(config) if around is not None else nullcontext():
            started = time.perf_counter()
            result = run_experiment(config)
            elapsed = time.perf_counter() - started
        timing.raw.append(elapsed)
        timing.seconds.append(elapsed * meter.factor() if meter is not None else elapsed)
        timing.calls += len(result.records)
        check(result)
        i += 1
        if until is None:
            if i == len(configs):
                return timing
        elif i >= max(len(configs), min_cells) and time.perf_counter() >= until:
            return timing


# ----------------------------------------------------------------------
# Sweeps
# ----------------------------------------------------------------------
@dataclass
class SweepPass:
    grid: object
    stats: object
    #: ``perf_counter`` at the call and at its return.
    started: float
    ended: float
    #: ``time.time()`` at the call and at its return (comparable with
    #: cache-entry modification times).
    wall_started: float
    wall_ended: float
    #: ``perf_counter`` at each progress callback, in completion order.
    stamps: List[float]
    cached: List[bool]

    @property
    def seconds(self) -> float:
        return self.ended - self.started

    def read_seconds(self, configs: list) -> List[float]:
        """On an all-hit pass, the read cost of each v=60 cell: the time
        since the previous cell finished (hits finish in grid order)."""
        points = [self.started, *self.stamps]
        return [
            b - a
            for a, b, config in zip(points, points[1:], configs)
            if config.intensity == CELL_INTENSITY
        ]


def sweep_pass(spec, root: Path, jobs: int, executor: str) -> SweepPass:
    from repro.experiments.grid import run_grid
    from repro.experiments.parallel import EngineStats

    stamps: List[float] = []
    cached: List[bool] = []

    def progress(done: int, total: int, label: str, hit: bool) -> None:
        stamps.append(time.perf_counter())
        cached.append(hit)

    stats = EngineStats()
    # Start every pass from a collected heap, as a fresh sweep would.
    gc.collect()
    wall_started = time.time()
    started = time.perf_counter()
    grid = run_grid(
        spec,
        jobs=jobs,
        cache_dir=str(root),
        progress=progress,
        stats=stats,
        executor=executor,
    )
    ended = time.perf_counter()
    return SweepPass(
        grid, stats, started, ended, wall_started, time.time(), stamps, cached
    )


def result_key(result) -> str:
    """A compact exact fingerprint of one result (config, records, node
    stats, accumulator summary), so the benchmark need not hold whole
    results while it times later passes.  ``repr`` renders floats exactly;
    the accumulator is compared through its summary because its exact sums
    may store different but equal-valued partials after a cache round
    trip."""
    blob = repr(
        (result.config, result.records, result.node_stats, result.accumulator.summary())
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def entry_bytes(root: Path) -> Dict[str, bytes]:
    return {fp: path.read_bytes() for fp, path in cache_entries(root).items()}


def inline_entries(configs: list, around: Callable = None) -> Tuple[Dict[str, bytes], list]:
    """Compute configs inline and store them in a scratch cache root, the
    way the serial engine would; returns (entry bytes, results)."""
    from repro.experiments.parallel import ResultCache
    from repro.experiments.runner import run_experiment

    root = fresh_root()
    try:
        cache = ResultCache(root)
        results = []
        for config in configs:
            with around(config) if around is not None else nullcontext():
                result = run_experiment(config)
            cache.store(config, result)
            results.append(result)
        return entry_bytes(root), results
    finally:
        shutil.rmtree(root, ignore_errors=True)


def byte_sample(seed: int) -> list:
    """One config per (v, strategy) of the grid, on its first seed: the
    cells recomputed inline to check the sweep's stored bytes."""
    configs = grid_configs(seed)
    return configs[::GRID_SEEDS]
