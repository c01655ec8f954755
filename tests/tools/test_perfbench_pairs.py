"""tools/perfbench_pairs.py: alternating perfbench pairs, the comparison
table and the pytest-benchmark files, fed canned run outputs."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent.parent / "tools"))

import bench_compare  # noqa: E402
import perfbench_pairs  # noqa: E402

SPEC = perfbench_pairs.load_spec()
LOWER = [m["name"] for m in SPEC["end_to_end"] if m["better"] == "lower"]

PARENT_SWEEP_S = [2.0, 2.2, 2.4, 2.6]
CHANGE_SWEEP_S = [1.5, 1.6, 2.5, 1.7]
PARENT_INV_PER_S = [10.0, 10.0, 10.0, 10.0]
CHANGE_INV_PER_S = [12.0, 9.0, 10.0, 13.0]


def canned_output(sweep_s, inv_per_s, failed=0):
    """What perfbench prints: metric lines, then one JSON summary line."""
    metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in SPEC["end_to_end"]}
    metrics["sweep_s"]["value"] = sweep_s
    metrics["inv_per_s"]["value"] = inv_per_s
    summary = {"correct": failed == 0, "attempted": 100, "failed": failed, "metrics": metrics}
    return f"env: nproc=2\nsweep_s {sweep_s} s\n{json.dumps(summary)}\n"


@pytest.fixture
def pairs_run(tmp_path, monkeypatch, capsys):
    """Four canned pairs through ``main``: the checkouts in run order, the
    printed table and the two written files."""
    parent, change = tmp_path / "parent", tmp_path / "change"
    outputs = {
        parent: iter(canned_output(*v) for v in zip(PARENT_SWEEP_S, PARENT_INV_PER_S)),
        change: iter(
            canned_output(s, i, failed=2 if k == 1 else 0)
            for k, (s, i) in enumerate(zip(CHANGE_SWEEP_S, CHANGE_INV_PER_S))
        ),
    }
    order = []

    def fake_run(checkout, command, args):
        assert list(command) == SPEC["command"]
        assert (args.workload, args.seed, args.seconds) == ("sweep-local", 7, 25.0)
        order.append(checkout)
        return next(outputs[checkout])

    monkeypatch.setattr(perfbench_pairs, "run_perfbench", fake_run)
    before, after = tmp_path / "before.json", tmp_path / "after.json"
    args = ["--workload", "sweep-local", "--pairs", "4", "--seed", "7", "--seconds", "25"]
    paths = ["--parent", parent, "--change", change, "--before", before, "--after", after]
    assert perfbench_pairs.main(args + [str(arg) for arg in paths]) == 0
    return {
        "order": [path.name for path in order],
        "table": capsys.readouterr().out.splitlines(),
        "before": before,
        "after": after,
    }


def row(table, metric):
    return next(line for line in table if line.startswith(metric + " "))


def test_sides_alternate_which_runs_first(pairs_run):
    assert pairs_run["order"] == ["parent", "change", "change", "parent"] * 2


def test_table_gives_medians_quartiles_and_pairs_won(pairs_run):
    sweep = row(pairs_run["table"], "sweep_s")
    assert "2.3 [2.15–2.45]" in sweep
    assert "1.65 [1.575–1.9]" in sweep
    assert "-28.3%" in sweep
    assert sweep.rstrip().endswith("3/4")
    # Higher is better for inv_per_s, and a tie counts for neither side.
    assert row(pairs_run["table"], "inv_per_s").rstrip().endswith("2/4")
    assert len([line for line in pairs_run["table"] if line.split()[0] in LOWER]) == len(LOWER)


def test_table_reports_failed_checks(pairs_run):
    table = pairs_run["table"]
    assert "parent: 0 of 400 checks failed; 0 of 4 runs not correct" in table
    assert "change: 2 of 400 checks failed; 1 of 4 runs not correct" in table


def test_files_hold_lower_is_better_runs_for_bench_compare(pairs_run):
    before = bench_compare.load_benchmarks(pairs_run["before"])
    after = bench_compare.load_benchmarks(pairs_run["after"])
    names = [f"sweep-local/{name}" for name in LOWER]
    assert sorted(before) == sorted(after) == sorted(names)
    assert "sweep-local/inv_per_s" not in before
    assert before["sweep-local/sweep_s"]["data"] == PARENT_SWEEP_S
    assert after["sweep-local/sweep_s"]["data"] == CHANGE_SWEEP_S
    comparison, skipped = bench_compare.gate_comparison(before, after, resamples=200)
    assert skipped == []
    assert sorted(c.metric for c in comparison.comparisons) == sorted(names)


def test_output_without_a_json_line_is_an_error():
    with pytest.raises(ValueError, match="no JSON line"):
        perfbench_pairs.last_json_line("perfbench: cannot start: boom\n")
