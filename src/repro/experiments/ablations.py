"""Ablation studies for the invoker's design choices.

These go beyond the paper's artifacts; each isolates one mechanism:

* estimator window size (the paper fixes 10, citing [18]);
* Fair-Choice frequency horizon ``T`` (the paper suggests 60 s);
* busy-limit over-provisioning (re-introducing CPU oversubscription,
  i.e. undoing Sect. IV-A);
* cold-start cost sensitivity.

Each study is one sweep of :func:`~repro.experiments.parallel.run_configs`;
its ``engine`` keywords (``jobs``, ``cache_dir``, ...) pass straight through.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

from repro.experiments.config import ExperimentConfig
from repro.experiments.parallel import run_configs
from repro.metrics.report import format_table

__all__ = [
    "ablate_estimator_window",
    "ablate_fc_horizon",
    "ablate_busy_limit",
    "ablate_cold_start_cost",
    "AblationResult",
]


@dataclass
class AblationResult:
    """Rows of (parameter value, mean response time, mean stretch, p95)."""

    name: str
    parameter: str
    rows: List[Tuple[object, float, float, float]]

    def render(self) -> str:
        return format_table(
            [self.parameter, "R.avg [s]", "S.avg", "R.p95 [s]"],
            self.rows,
            title=f"Ablation — {self.name}",
        )


def _rows(
    values: Sequence[object], configs: List[ExperimentConfig], engine: Dict[str, Any]
) -> List[Tuple[object, float, float, float]]:
    """``(value, R.avg, S.avg, R.p95)`` per config, run as one sweep."""
    rows = []
    for value, result in zip(values, run_configs(configs, **engine)):
        stats = result.summary()
        p95 = stats.response_time_percentiles[95]
        rows.append((value, stats.mean_response_time, stats.mean_stretch, p95))
    return rows


def ablate_estimator_window(
    windows: Sequence[int] = (1, 3, 10, 50),
    cores: int = 10,
    intensity: int = 60,
    policy: str = "SEPT",
    seed: int = 1,
    **engine: Any,
) -> AblationResult:
    """How much history does SEPT need?  The paper (after [18]) uses 10."""
    configs = [
        ExperimentConfig(
            cores=cores,
            intensity=intensity,
            policy=policy,
            seed=seed,
            node_overrides=(("estimator_window", window),),
        )
        for window in windows
    ]
    rows = _rows(windows, configs, engine)
    return AblationResult("estimator window (SEPT)", "window", rows)


def ablate_fc_horizon(
    horizons: Sequence[float] = (5.0, 15.0, 60.0, 300.0),
    cores: int = 10,
    intensity: int = 90,
    seed: int = 1,
    **engine: Any,
) -> AblationResult:
    """Fair-Choice's T: short horizons forget consumption too quickly."""
    configs = [
        ExperimentConfig(
            cores=cores,
            intensity=intensity,
            policy="FC",
            seed=seed,
            scenario="skewed",
            node_overrides=(("fc_horizon_s", horizon),),
        )
        for horizon in horizons
    ]
    rows = _rows(horizons, configs, engine)
    return AblationResult("Fair-Choice horizon T (skewed mix)", "T [s]", rows)


def ablate_busy_limit(
    factors: Sequence[float] = (1.0, 1.5, 2.0, 4.0),
    cores: int = 10,
    intensity: int = 60,
    policy: str = "SEPT",
    seed: int = 1,
    **engine: Any,
) -> AblationResult:
    """Undo Sect. IV-A: allow ``factor * cores`` busy containers, which
    re-introduces OS-level preemption on the CPU bank."""
    configs = [
        ExperimentConfig(
            cores=cores,
            intensity=intensity,
            policy=policy,
            seed=seed,
            node_overrides=(("busy_limit", int(round(cores * factor))),),
        )
        for factor in factors
    ]
    rows = _rows(factors, configs, engine)
    return AblationResult("busy-limit factor (oversubscription)", "x cores", rows)


def ablate_cold_start_cost(
    create_ops: Sequence[float] = (0.1, 0.25, 0.5, 1.0),
    cores: int = 10,
    intensity: int = 60,
    policy: str = "baseline",
    seed: int = 1,
    **engine: Any,
) -> AblationResult:
    """Baseline sensitivity to the serialized container-creation cost."""
    configs = [
        ExperimentConfig(
            cores=cores,
            intensity=intensity,
            policy=policy,
            seed=seed,
            node_overrides=(("create_op_s", create_op),),
        )
        for create_op in create_ops
    ]
    rows = _rows(create_ops, configs, engine)
    return AblationResult("baseline create-op cost", "create_op [s]", rows)
