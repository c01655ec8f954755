"""Compare two pytest-benchmark JSON files and flag significant regressions.

Usage::

    python tools/bench_compare.py BENCH_old.json BENCH_new.json
    python tools/bench_compare.py --alpha 0.01 old.json new.json

Reads two files in the ``--benchmark-json`` shape of pytest-benchmark
(e.g. a committed ``benchmarks/BENCH_cell_fc_before.json`` /
``BENCH_cell_fc_after.json`` pair, or the two sides of a
``tools/perfbench_pairs.py`` run against a base commit, as CI's advisory
benchmark job does) and matches benchmarks by name.  The per-round raw
samples (``stats.data``) of both runs feed
:func:`repro.metrics.compare.compare_samples`: Mann-Whitney U per
benchmark with Holm correction across all shared benchmarks, Cliff's
delta effect sizes, and bootstrap CIs on the mean difference.  A
benchmark regresses only when the corrected test is significant at
``--alpha`` *and* the candidate is slower, so a one-round blip that moves
the minimum time but leaves the distributions overlapping passes.  Exits
1 on a regression and 2 when no shared benchmark carries raw samples, so
a CI job can surface performance regressions — run it
``continue-on-error`` if the signal should stay advisory.  See
docs/COMPARISONS.md.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.metrics.compare import ComparisonResult, compare_samples  # noqa: E402


def load_benchmarks(path: Path) -> Dict[str, dict]:
    """``name -> stats`` for every benchmark in a pytest-benchmark JSON."""
    data = json.loads(path.read_text())
    benchmarks = data.get("benchmarks")
    if not isinstance(benchmarks, list):
        raise ValueError(f"{path}: not a pytest-benchmark JSON file")
    return {bench["name"]: bench["stats"] for bench in benchmarks}


def gate_comparison(
    old: Dict[str, dict],
    new: Dict[str, dict],
    *,
    alpha: float = 0.05,
    resamples: int = 2000,
) -> Tuple[Optional[ComparisonResult], List[str]]:
    """The significance-gate comparison over shared benchmarks carrying
    raw per-round samples, plus the names skipped for lacking them."""
    samples_old: Dict[str, List[float]] = {}
    samples_new: Dict[str, List[float]] = {}
    skipped: List[str] = []
    for name in sorted(set(old) & set(new)):
        data_old = old[name].get("data")
        data_new = new[name].get("data")
        if not data_old or not data_new:
            skipped.append(name)
            continue
        samples_old[name] = [float(v) for v in data_old]
        samples_new[name] = [float(v) for v in data_new]
    if not samples_old:
        return None, skipped
    return (
        compare_samples(
            samples_old,
            samples_new,
            label_a="baseline",
            label_b="candidate",
            alpha=alpha,
            resamples=resamples,
        ),
        skipped,
    )


def gate_regressions(comparison: ComparisonResult) -> List[str]:
    """Benchmarks where the candidate is *significantly slower* (Holm-
    corrected): ``diff = mean(baseline) - mean(candidate) < 0`` means the
    baseline was faster."""
    return [c.metric for c in comparison.significant() if c.diff < 0]


def run_gate(old: Dict[str, dict], new: Dict[str, dict], args) -> int:
    comparison, skipped = gate_comparison(
        old, new, alpha=args.alpha, resamples=args.resamples
    )
    if comparison is None:
        print(
            "no shared benchmark carries raw per-round samples "
            "(stats.data); rerun pytest-benchmark with --benchmark-json"
        )
        return 2
    print(
        comparison.render(
            title=(
                f"Benchmark significance gate (baseline vs. candidate, "
                f"Mann-Whitney U over per-round samples, Holm-corrected "
                f"at α={args.alpha:g})"
            )
        )
    )
    for name in skipped:
        print(f"{name}: skipped (no raw samples in one of the files)")
    regressions = gate_regressions(comparison)
    improvements = [c.metric for c in comparison.significant() if c.diff > 0]
    if regressions:
        print(
            f"\n{len(regressions)} significant regression(s) at "
            f"α={args.alpha:g}: {', '.join(regressions)}"
        )
        return 1
    if improvements:
        print(f"\nsignificant improvement(s): {', '.join(improvements)}")
    print("no significant regressions")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=(
            "Compare two pytest-benchmark JSON files: Mann-Whitney U over "
            "each benchmark's raw per-round samples, Holm-corrected; only a "
            "statistically significant slowdown fails."
        )
    )
    parser.add_argument("old", type=Path, help="baseline benchmark JSON")
    parser.add_argument("new", type=Path, help="candidate benchmark JSON")
    parser.add_argument(
        "--alpha",
        type=float,
        default=0.05,
        help="family-wise significance level (default 0.05)",
    )
    parser.add_argument(
        "--resamples",
        type=int,
        default=2000,
        help="bootstrap resamples per CI (default 2000)",
    )
    args = parser.parse_args(argv)
    return run_gate(load_benchmarks(args.old), load_benchmarks(args.new), args)


if __name__ == "__main__":
    sys.exit(main())
