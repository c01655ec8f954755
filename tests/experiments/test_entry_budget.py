"""On-disk size budget of the paper's headline cell.

A warm sweep reads every cell from its cache entry, so the entry's size
is the read's cost.  The budget pins the column layout described in
docs/PERFORMANCE.md ("Cache entries"): the 10-core v=60 FC cell's entry,
660 call records as packed columns plus an accumulator whose t-digest
centroids are packed too (schema 9), takes ~88.5 KiB, against 273 KiB
with one JSON object per record (schema 6).
"""

from repro.experiments.config import ExperimentConfig
from repro.experiments.parallel import ResultCache
from repro.experiments.runner import run_experiment

MAX_ENTRY_KIB = 100


def test_headline_cell_entry_size(tmp_path):
    config = ExperimentConfig(cores=10, intensity=60, policy="FC", seed=1)
    path = ResultCache(tmp_path).store(config, run_experiment(config))
    assert path.stat().st_size <= MAX_ENTRY_KIB * 1024
