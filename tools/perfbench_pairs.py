"""Run perfbench on two checkouts in alternating pairs and compare them.

Usage::

    python tools/perfbench_pairs.py --parent ../parent --change . \\
        --workload sweep-local --pairs 10 --seed 0 --seconds 25 \\
        --before BENCH_before.json --after BENCH_after.json

Each pair runs ``python3 perfbench/run.py --workload W --seed S
--seconds T --trace 0`` (the command in ``BENCHMARK.json``) once in each
checkout, the parent first in odd pairs and the change first in even
ones, and reads the last JSON line of each run.  The table gives, for
every end-to-end metric of ``BENCHMARK.json``, each side's median and
quartiles, the change of the median, the metric's bound and the pairs the
change won (ties count for neither side), then each side's failed checks.

``--before`` and ``--after`` write each side's per-run values in the
pytest-benchmark shape ``{"benchmarks": [{"name": "<workload>/<metric>",
"stats": {"data": [...]}}]}`` that ``tools/bench_compare.py`` reads.  Only
lower-is-better metrics go there: the gate reads a larger value as a
slowdown, so higher-is-better ones (``inv_per_s``) stay in the table.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Sequence

REPO_ROOT = Path(__file__).resolve().parent.parent


def load_spec() -> dict:
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def last_json_line(stdout: str) -> dict:
    """The run's summary: the last line of its output that is a JSON object."""
    for line in reversed(stdout.splitlines()):
        if line.startswith("{"):
            return json.loads(line)
    raise ValueError("perfbench printed no JSON line")


def run_perfbench(checkout: Path, command: Sequence[str], args) -> str:
    """One perfbench run in ``checkout``; its standard output."""
    argv = [*command, "--workload", args.workload, "--seed", str(args.seed)]
    argv += ["--seconds", str(args.seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if done.returncode not in (0, 1):  # 1: ran, but a check failed
        raise RuntimeError(
            f"{' '.join(argv)} in {checkout} exited {done.returncode}:\n{done.stderr}"
        )
    return done.stdout


def run_pairs(args, command: Sequence[str]) -> Dict[str, List[dict]]:
    """Alternate the sides for ``args.pairs`` pairs; each side's summaries."""
    runs: Dict[str, List[dict]] = {"parent": [], "change": []}
    checkouts = {"parent": args.parent, "change": args.change}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            summary = last_json_line(run_perfbench(checkouts[side], command, args))
            runs[side].append(summary)
            print(
                f"pair {pair + 1}/{args.pairs} {side}: correct={summary['correct']}",
                file=sys.stderr,
                flush=True,
            )
    return runs


def values(runs: List[dict], metric: str) -> List[float]:
    return [run["metrics"][metric]["value"] for run in runs]


def quartiles(data: List[float]) -> List[float]:
    """``[q1, median, q3]`` (inclusive method; one run is its own quartiles)."""
    if len(data) == 1:
        return [data[0]] * 3
    return statistics.quantiles(data, n=4, method="inclusive")


def render_table(runs: Dict[str, List[dict]], spec: dict, workload: str) -> str:
    parent, change = runs["parent"], runs["change"]
    pairs = min(len(parent), len(change))
    lines = [
        f"{workload}: {pairs} pairs (medians with quartiles; a pair is won "
        f"when the change's run is better)",
        f"{'metric':14s} {'parent':>28s} {'change':>28s} {'Δ median':>9s} "
        f"{'bound':>6s} {'won':>6s}",
    ]
    for metric in spec["end_to_end"]:
        name = metric["name"]
        before, after = values(parent, name), values(change, name)
        lower = metric["better"] == "lower"
        won = sum(
            (b < a) if lower else (b > a) for a, b in zip(before[:pairs], after[:pairs])
        )
        q_before, q_after = quartiles(before), quartiles(after)
        delta = (q_after[1] - q_before[1]) / q_before[1] if q_before[1] else 0.0
        lines.append(
            f"{name:14s} {_cell(q_before):>28s} {_cell(q_after):>28s} "
            f"{delta:+9.1%} {metric['bound']:6.0%} {won:>3d}/{pairs:<2d}"
        )
    for side in ("parent", "change"):
        failed = sum(run["failed"] for run in runs[side])
        attempted = sum(run["attempted"] for run in runs[side])
        incorrect = sum(not run["correct"] for run in runs[side])
        lines.append(
            f"{side}: {failed} of {attempted} checks failed; "
            f"{incorrect} of {len(runs[side])} runs not correct"
        )
    return "\n".join(lines)


def _cell(q: List[float]) -> str:
    return f"{_num(q[1])} [{_num(q[0])}–{_num(q[2])}]"


def _num(value: float) -> str:
    return f"{value:.0f}" if abs(value) >= 1000 else f"{value:.4g}"


def bench_json(runs: List[dict], spec: dict, args) -> dict:
    """One side's lower-is-better per-run values, pytest-benchmark shaped."""
    return {
        "perfbench": {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "runs": len(runs),
            "failed_checks": sum(run["failed"] for run in runs),
        },
        "benchmarks": [
            {
                "name": f"{args.workload}/{metric['name']}",
                "stats": {"data": values(runs, metric["name"])},
            }
            for metric in spec["end_to_end"]
            if metric["better"] == "lower"
        ],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run perfbench on a parent and a change checkout in "
        "alternating pairs and compare the end-to-end metrics."
    )
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--before", type=Path, help="write the parent's runs here")
    parser.add_argument("--after", type=Path, help="write the change's runs here")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    spec = load_spec()
    runs = run_pairs(args, spec["command"])
    print(render_table(runs, spec, args.workload))
    for path, side in ((args.before, "parent"), (args.after, "change")):
        if path is not None:
            path.write_text(json.dumps(bench_json(runs[side], spec, args), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
