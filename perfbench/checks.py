"""Correctness checks for every cell the benchmark runs.

Two kinds of check:

* **References.**  For the default workload seed, every cell's result
  digest must equal the one stored in ``references.json``.  The digest is
  the golden-fingerprint digest of the repository (SHA-256 over the exact
  serialized records, node stats and summary); ``cpu_utilization`` is left
  out of it and compared at a relative tolerance of 1e-9 instead.
* **Invariants.**  For every seed: the call count matches the scenario
  size (``1.1 * cores * v``), and the streaming accumulator's
  ``n_calls``/``cold_starts``/makespan equal a fold of the records.

Capture the references (on a commit whose outputs are trusted)::

    python3 perfbench/checks.py --write
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
REFERENCES_PATH = HERE / "references.json"

#: The workload seed whose outputs are pinned in ``references.json``.
DEFAULT_SEED = 0

#: Maximum relative deviation tolerated on ``cpu_utilization``.
CPU_UTILIZATION_RTOL = 1e-9

#: Reference tables: one per cell list (both sweep workloads run one grid).
REFERENCE_KEYS = {
    "cell-fc": "cell-fc",
    "cell-baseline": "cell-baseline",
    "sweep-local": "sweep",
    "sweep-queue": "sweep",
}


def result_digest(result) -> str:
    """SHA-256 over the exact serialized metrics output of one run, with
    ``cpu_utilization`` left out (see the module docstring)."""
    from repro.metrics.serialize import records_to_dicts

    summary = result.summary()
    payload = {
        "records": records_to_dicts(result.records),
        "node_stats": [
            {k: v for k, v in stats.items() if k != "cpu_utilization"}
            for stats in result.node_stats
        ],
        "summary": {
            "n_calls": summary.n_calls,
            "mean_response_time": summary.mean_response_time,
            "response_time_percentiles": {
                str(q): v for q, v in summary.response_time_percentiles.items()
            },
            "mean_stretch": summary.mean_stretch,
            "stretch_percentiles": {
                str(q): v for q, v in summary.stretch_percentiles.items()
            },
            "max_completion_time": summary.max_completion_time,
            "cold_starts": summary.cold_starts,
        },
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def cpu_utilizations(result) -> List[float]:
    return [stats["cpu_utilization"] for stats in result.node_stats]


def expected_calls(config) -> int:
    """The uniform burst sends ``0.1 * 11 functions * cores * v`` calls."""
    return 11 * config.cores * config.intensity // 10


def invariant_problems(result) -> List[str]:
    """Problems that hold for any seed (empty when the cell is sound)."""
    records = result.records
    acc = result.accumulator
    label = result.config.label()
    if records is None or acc is None:
        return [f"{label}: result lacks records or accumulator"]
    problems = []
    want = expected_calls(result.config)
    if len(records) != want:
        problems.append(f"{label}: {len(records)} calls, expected {want}")
    if acc.n_calls != len(records):
        problems.append(f"{label}: accumulator n_calls {acc.n_calls} != {len(records)}")
    cold = sum(1 for r in records if r.cold_start)
    if acc.cold_starts != cold:
        problems.append(f"{label}: accumulator cold_starts {acc.cold_starts} != {cold}")
    makespan = max((r.completed_at for r in records), default=float("-inf"))
    if acc.max_completion_time != makespan:
        problems.append(
            f"{label}: accumulator makespan {acc.max_completion_time!r} != {makespan!r}"
        )
    return problems


def reference_problems(result, want: Optional[Dict[str, object]]) -> List[str]:
    label = result.config.label()
    if want is None:
        return [f"{label}: no reference stored"]
    problems = []
    if result_digest(result) != want["digest"]:
        problems.append(f"{label}: digest differs from the reference")
    got_util = cpu_utilizations(result)
    want_util = want["cpu_utilization"]
    if len(got_util) != len(want_util):
        problems.append(f"{label}: {len(got_util)} nodes, reference has {len(want_util)}")
    for i, (u_want, u_got) in enumerate(zip(want_util, got_util)):
        scale = max(abs(u_want), abs(u_got), 1e-300)
        if abs(u_want - u_got) / scale > CPU_UTILIZATION_RTOL:
            problems.append(f"{label}: cpu_utilization[{i}] {u_got!r} != {u_want!r}")
    return problems


class Checker:
    """Checks results of one workload run and tallies the failures."""

    def __init__(self, workload: str, seed: int) -> None:
        self.references: Optional[Dict[str, Dict[str, object]]] = None
        if seed == DEFAULT_SEED:
            tables = json.loads(REFERENCES_PATH.read_text(encoding="utf-8"))
            self.references = tables[REFERENCE_KEYS[workload]]
        self.checked = 0
        self.failed = 0
        self.problems: List[str] = []

    def check(self, result) -> bool:
        """Check one cell; True when it passes."""
        problems = invariant_problems(result)
        if self.references is not None:
            want = self.references.get(result.config.label())
            problems += reference_problems(result, want)
        return self.record(problems)

    def record(self, problems: List[str]) -> bool:
        """Count one checked cell with the given problems."""
        self.checked += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return not problems


def capture(seed: int = DEFAULT_SEED) -> Dict[str, Dict[str, Dict[str, object]]]:
    """Run every reference cell inline and record its digest."""
    from repro.experiments.runner import run_experiment

    import workloads

    lists = {
        "cell-fc": workloads.cell_configs("FC", seed),
        "cell-baseline": workloads.cell_configs("baseline", seed),
        "sweep": workloads.grid_configs(seed),
    }
    tables: Dict[str, Dict[str, Dict[str, object]]] = {}
    for key, configs in lists.items():
        table = {}
        for config in configs:
            result = run_experiment(config)
            if invariant_problems(result):
                raise SystemExit(f"refusing to capture: {invariant_problems(result)}")
            table[config.label()] = {
                "digest": result_digest(result),
                "cpu_utilization": cpu_utilizations(result),
            }
        tables[key] = table
    return tables


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Capture the benchmark's reference digests.")
    parser.add_argument("--write", action="store_true", help="write references.json")
    args = parser.parse_args(argv)
    if not args.write:
        parser.print_help()
        return 2
    import workloads

    workloads.import_repro()
    started = time.perf_counter()
    tables = capture()
    REFERENCES_PATH.write_text(
        json.dumps(
            {"seed": DEFAULT_SEED, **tables}, indent=1, sort_keys=True
        )
        + "\n",
        encoding="utf-8",
    )
    cells = sum(len(table) for table in tables.values())
    print(f"wrote {cells} reference digests in {time.perf_counter() - started:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
