"""Experiment harness: configuration, runner, parallel execution engine,
and one module per paper artifact (tables and figures).  README.md's
paper-artifact matrix is the full index.
"""

from repro.experiments.adaptive import (
    AdaptiveAllocation,
    AdaptiveGridResult,
    allocate_seeds,
    run_adaptive_grid,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.parallel import (
    CacheVerification,
    EngineOptions,
    EngineStats,
    ResultCache,
    WorkerError,
    config_fingerprint,
    progress_printer,
    run_configs,
    verify_cache,
)
from repro.experiments.runner import ExperimentResult, run_experiment, run_repetitions

__all__ = [
    "AdaptiveAllocation",
    "AdaptiveGridResult",
    "allocate_seeds",
    "run_adaptive_grid",
    "CacheVerification",
    "EngineOptions",
    "EngineStats",
    "ExperimentConfig",
    "ExperimentResult",
    "ResultCache",
    "WorkerError",
    "config_fingerprint",
    "progress_printer",
    "run_configs",
    "run_experiment",
    "run_repetitions",
    "verify_cache",
]
