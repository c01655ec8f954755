"""Figure 5 reproduction: Fair-Choice fairness under a skewed call mix.

Paper Sect. VII-D: 10 CPU cores, intensity 90, exactly 10 calls of the
long ``dna-visualisation`` function, all other calls drawn uniformly at
random among the remaining functions.  Expected shape: FC cuts the rare
long function's stretch versus SEPT (paper: average 5.3 → 2.1, median
5.2 → 1.6) at a small cost to the short, frequent ``graph-bfs``
(paper: average 22.2 → 25.8).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Sequence

from repro.experiments.config import BASELINE, ExperimentConfig
from repro.experiments.paper_data import FIG5_FAIRNESS
from repro.experiments.parallel import run_configs
from repro.metrics.report import format_table
from repro.metrics.stats import BoxStats, box_stats

__all__ = ["run_fig5", "Fig5Result"]

RARE_FUNCTION = "dna-visualisation"
SHORT_FUNCTION = "graph-bfs"


@dataclass
class Fig5Result:
    """Stretch box statistics per strategy for all / rare / short calls."""

    all_calls: Dict[str, BoxStats]
    rare_calls: Dict[str, BoxStats]
    short_calls: Dict[str, BoxStats]

    def render(self) -> str:
        blocks = []
        for title, data in (
            ("(a) all functions", self.all_calls),
            (f"(b) {RARE_FUNCTION} (rare, long)", self.rare_calls),
            (f"(c) {SHORT_FUNCTION} (frequent, short)", self.short_calls),
        ):
            rows = []
            for strategy, box in data.items():
                rows.append([strategy, box.q1, box.median, box.q3, box.mean, box.n])
            blocks.append(
                format_table(
                    ["strategy", "q1", "median", "q3", "mean", "n"],
                    rows,
                    title=f"Fig. 5{title} — stretch",
                )
            )
        paper = format_table(
            ["strategy", "dna avg", "dna median", "graph-bfs avg"],
            [[s, *vals] for s, vals in FIG5_FAIRNESS.items()],
            title="Paper reference (Sect. VII-D)",
        )
        return "\n\n".join(blocks + [paper])


def run_fig5(
    strategies: Sequence[str] = (BASELINE, "FIFO", "SEPT", "EECT", "RECT", "FC"),
    seeds: Sequence[int] = (1, 2, 3, 4, 5),
    cores: int = 10,
    intensity: int = 90,
    **engine: Any,
) -> Fig5Result:
    """Run the skewed-mix experiment for each strategy and aggregate
    stretch over all seeds, as one sweep of
    :func:`~repro.experiments.parallel.run_configs` (``engine`` takes its
    keywords: ``jobs``, ``cache_dir``, ...)."""
    configs = [
        ExperimentConfig(
            cores=cores,
            intensity=intensity,
            policy=strategy,
            seed=seed,
            scenario="skewed",
        )
        for strategy in strategies
        for seed in seeds
    ]
    flat = run_configs(configs, **engine)
    all_calls: Dict[str, BoxStats] = {}
    rare_calls: Dict[str, BoxStats] = {}
    short_calls: Dict[str, BoxStats] = {}
    per_strategy = len(seeds)
    for i, strategy in enumerate(strategies):
        stretches: List[float] = []
        rare: List[float] = []
        short: List[float] = []
        for result in flat[i * per_strategy : (i + 1) * per_strategy]:
            for record in result.records:
                stretches.append(record.stretch)
                if record.function_name == RARE_FUNCTION:
                    rare.append(record.stretch)
                elif record.function_name == SHORT_FUNCTION:
                    short.append(record.stretch)
        all_calls[strategy] = box_stats(stretches)
        rare_calls[strategy] = box_stats(rare)
        short_calls[strategy] = box_stats(short)
    return Fig5Result(all_calls=all_calls, rare_calls=rare_calls, short_calls=short_calls)
