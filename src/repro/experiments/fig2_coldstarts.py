"""Figure 2 reproduction: cold starts vs. memory and intensity.

The paper measures, on 10 CPU cores, the number of cold starts for
memory pools from 2 to 128 GiB and intensities 30–120, comparing the
original OpenWhisk node management (Fig. 2a) with our FIFO variant
(Fig. 2b).  Expected shapes:

* baseline: cold starts grow strongly with intensity (>80 % of requests
  at intensity 120) and depend only weakly on memory;
* our FIFO: cold starts fall with memory and plateau (≈0) once the warm
  working set fits — 32 GiB on 10 cores — motivating the paper's choice
  of a 32 GiB pool for all other experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

from repro.experiments.config import BASELINE, ExperimentConfig
from repro.experiments.parallel import run_configs
from repro.metrics.report import format_table

__all__ = ["run_fig2", "Fig2Result", "MEMORY_SWEEP_MB", "INTENSITY_SWEEP"]

#: The paper's memory axis: 2 GiB .. 128 GiB.
MEMORY_SWEEP_MB = (2048, 4096, 8192, 16384, 32768, 65536, 131072)
INTENSITY_SWEEP = (30, 40, 60, 90, 120)


@dataclass
class Fig2Result:
    """cold_starts[(strategy, memory_mb, intensity)] plus request totals."""

    cold_starts: Dict[Tuple[str, int, int], int]
    totals: Dict[int, int]
    cores: int

    def series(self, strategy: str, intensity: int) -> List[Tuple[int, int]]:
        """(memory_mb, cold_starts) series for one curve of the figure."""
        return sorted(
            (mem, colds)
            for (strat, mem, inten), colds in self.cold_starts.items()
            if strat == strategy and inten == intensity
        )

    def render(self) -> str:
        blocks = []
        strategies = sorted({k[0] for k in self.cold_starts})
        intensities = sorted({k[2] for k in self.cold_starts})
        memories = sorted({k[1] for k in self.cold_starts})
        for strategy in strategies:
            rows = []
            for intensity in intensities:
                row: List[object] = [intensity, self.totals[intensity]]
                for mem in memories:
                    row.append(self.cold_starts.get((strategy, mem, intensity), "-"))
                rows.append(row)
            headers = ["intensity", "requests"] + [f"{m // 1024}GiB" for m in memories]
            label = "original approach" if strategy == BASELINE else f"our approach ({strategy})"
            blocks.append(
                format_table(headers, rows, title=f"Fig. 2 — cold starts, {label}, {self.cores} cores")
            )
        return "\n\n".join(blocks)


def run_fig2(
    memories_mb: Sequence[int] = MEMORY_SWEEP_MB,
    intensities: Sequence[int] = INTENSITY_SWEEP,
    cores: int = 10,
    seed: int = 1,
    strategies: Sequence[str] = (BASELINE, "FIFO"),
    **engine: Any,
) -> Fig2Result:
    """Sweep memory × intensity for the baseline and our FIFO variant, as
    one sweep of :func:`~repro.experiments.parallel.run_configs` (``engine``
    takes its keywords: ``jobs``, ``cache_dir``, ...)."""
    keys = [
        (strategy, memory_mb, intensity)
        for strategy in strategies
        for memory_mb in memories_mb
        for intensity in intensities
    ]
    configs = [
        ExperimentConfig(
            cores=cores,
            intensity=intensity,
            policy=strategy,
            seed=seed,
            memory_mb=memory_mb,
        )
        for strategy, memory_mb, intensity in keys
    ]
    cold_starts: Dict[Tuple[str, int, int], int] = {}
    totals: Dict[int, int] = {}
    for key, result in zip(keys, run_configs(configs, **engine)):
        cold_starts[key] = result.cold_starts
        totals[key[2]] = len(result.records)
    return Fig2Result(cold_starts=cold_starts, totals=totals, cores=cores)
