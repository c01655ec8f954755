"""tools/bench_compare.py: the significance gate over pytest-benchmark
per-round samples."""

import json
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent.parent / "tools"))

import bench_compare  # noqa: E402


def bench_json(path: Path, benches: dict) -> Path:
    """Write a minimal pytest-benchmark JSON: ``name -> stats dict``."""
    payload = {
        "benchmarks": [
            {"name": name, "stats": stats} for name, stats in benches.items()
        ]
    }
    path.write_text(json.dumps(payload))
    return path


def stats_for(samples) -> dict:
    return {"min": min(samples), "data": list(samples)}


class TestSignificanceGate:
    @staticmethod
    def noisy(rng, center, n=20):
        return [center * (1.0 + 0.02 * rng.random()) for _ in range(n)]

    def test_significant_slowdown_fails(self, tmp_path, capsys):
        rng = random.Random(1)
        old = bench_json(
            tmp_path / "old.json", {"b": stats_for(self.noisy(rng, 1.0))}
        )
        new = bench_json(
            tmp_path / "new.json", {"b": stats_for(self.noisy(rng, 1.5))}
        )
        assert bench_compare.main([str(old), str(new)]) == 1
        out = capsys.readouterr().out
        assert "significant regression(s)" in out
        assert "p(holm)" in out

    def test_large_min_blip_with_overlapping_samples_passes(self, tmp_path, capsys):
        """The gate's point: one fast outlier round shifts the min >20%,
        but the distributions are indistinguishable, so the gate passes."""
        rng = random.Random(2)
        base = self.noisy(rng, 1.0)
        candidate = self.noisy(rng, 1.0)
        base_with_outlier = [0.7] + base  # old min 0.7 vs new min ~1.0
        old = bench_json(
            tmp_path / "old.json", {"b": stats_for(base_with_outlier)}
        )
        new = bench_json(tmp_path / "new.json", {"b": stats_for(candidate)})
        assert bench_compare.main([str(old), str(new)]) == 0
        assert "no significant regressions" in capsys.readouterr().out

    def test_significant_speedup_is_reported_not_failed(self, tmp_path, capsys):
        rng = random.Random(3)
        old = bench_json(
            tmp_path / "old.json", {"b": stats_for(self.noisy(rng, 1.5))}
        )
        new = bench_json(
            tmp_path / "new.json", {"b": stats_for(self.noisy(rng, 1.0))}
        )
        assert bench_compare.main([str(old), str(new)]) == 0
        assert "significant improvement(s)" in capsys.readouterr().out

    def test_alpha_is_configurable(self, tmp_path):
        """A borderline shift significant at α=0.05 must pass at a
        stricter α."""
        rng = random.Random(4)
        old_samples = [1.0 + 0.05 * rng.random() for _ in range(6)]
        new_samples = [1.03 + 0.05 * rng.random() for _ in range(6)]
        old = bench_json(tmp_path / "old.json", {"b": stats_for(old_samples)})
        new = bench_json(tmp_path / "new.json", {"b": stats_for(new_samples)})
        permissive = bench_compare.main(["--alpha", "0.5", str(old), str(new)])
        strict = bench_compare.main(["--alpha", "0.001", str(old), str(new)])
        assert strict == 0
        assert permissive in (0, 1)  # depends on draw; strictness must not fail

    def test_benchmarks_without_samples_are_skipped(self, tmp_path, capsys):
        rng = random.Random(5)
        old = bench_json(
            tmp_path / "old.json",
            {"with": stats_for(self.noisy(rng, 1.0)), "without": {"min": 1.0}},
        )
        new = bench_json(
            tmp_path / "new.json",
            {"with": stats_for(self.noisy(rng, 1.0)), "without": {"min": 1.0}},
        )
        assert bench_compare.main([str(old), str(new)]) == 0
        assert "without: skipped" in capsys.readouterr().out

    def test_no_samples_anywhere_exit_2(self, tmp_path, capsys):
        old = bench_json(tmp_path / "old.json", {"b": {"min": 1.0}})
        new = bench_json(tmp_path / "new.json", {"b": {"min": 1.0}})
        assert bench_compare.main([str(old), str(new)]) == 2
        assert "stats.data" in capsys.readouterr().out

    def test_disjoint_benchmarks_exit_2(self, tmp_path, capsys):
        rng = random.Random(6)
        old = bench_json(tmp_path / "old.json", {"a": stats_for(self.noisy(rng, 1.0))})
        new = bench_json(tmp_path / "new.json", {"b": stats_for(self.noisy(rng, 1.0))})
        assert bench_compare.main([str(old), str(new)]) == 2
        assert "no shared benchmark" in capsys.readouterr().out

    def test_not_a_benchmark_json_raises(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"something": "else"}))
        with pytest.raises(ValueError, match="not a pytest-benchmark"):
            bench_compare.load_benchmarks(bad)

    def test_gate_on_committed_baselines_is_deterministic(self):
        """The committed BENCH pair carries raw samples; the gate must
        produce the same comparison twice (seeded bootstrap)."""
        root = Path(__file__).resolve().parent.parent.parent
        old = bench_compare.load_benchmarks(root / "benchmarks" / "BENCH_cell_fc_before.json")
        new = bench_compare.load_benchmarks(root / "benchmarks" / "BENCH_cell_fc_after.json")
        first, skipped_1 = bench_compare.gate_comparison(old, new, resamples=200)
        second, skipped_2 = bench_compare.gate_comparison(old, new, resamples=200)
        assert skipped_1 == skipped_2 == []
        assert first is not None
        assert [c.ci for c in first.comparisons] == [c.ci for c in second.comparisons]
