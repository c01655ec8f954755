"""Integration tests for the experiment runner."""


from repro.experiments.config import ExperimentConfig
from repro.experiments.fig6_multinode import fig6_config
from repro.experiments.runner import run_experiment, run_repetitions
from repro.workload.generator import requests_for_intensity


def quick_cfg(**overrides):
    defaults = dict(cores=4, intensity=10, policy="SEPT", seed=1)
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestRunExperiment:
    def test_all_requests_answered(self):
        result = run_experiment(quick_cfg())
        assert len(result.records) == requests_for_intensity(4, 10)

    def test_deterministic_per_seed(self):
        a = run_experiment(quick_cfg(seed=3))
        b = run_experiment(quick_cfg(seed=3))
        assert [r.completed_at for r in a.records] == [
            r.completed_at for r in b.records
        ]

    def test_seeds_change_results(self):
        a = run_experiment(quick_cfg(seed=1))
        b = run_experiment(quick_cfg(seed=2))
        assert [r.completed_at for r in a.records] != [
            r.completed_at for r in b.records
        ]

    def test_baseline_uses_baseline_invoker(self):
        result = run_experiment(quick_cfg(policy="baseline"))
        assert result.node_stats[0]["is_baseline"]

    def test_records_sorted_by_rid(self):
        result = run_experiment(quick_cfg())
        rids = [r.rid for r in result.records]
        assert rids == sorted(rids)

    def test_summary_accessors(self):
        result = run_experiment(quick_cfg())
        stats = result.summary()
        assert stats.n_calls == len(result.records)
        assert result.makespan == stats.max_completion_time
        assert result.cold_starts == stats.cold_starts

    def test_records_for_function(self):
        result = run_experiment(quick_cfg())
        bfs = result.records_for("graph-bfs")
        assert all(r.function_name == "graph-bfs" for r in bfs)
        assert len(bfs) == 4  # 0.1 * cores * intensity

    def test_response_time_nonnegative_and_causal(self):
        result = run_experiment(quick_cfg())
        for record in result.records:
            assert record.response_time > 0
            assert record.completed_at > record.release_time
            assert record.exec_end >= record.exec_start

    def test_skewed_scenario(self):
        result = run_experiment(quick_cfg(scenario="skewed", intensity=20))
        assert len(result.records_for("dna-visualisation")) == 10

    def test_azure_scenario_runs(self):
        result = run_experiment(quick_cfg(scenario="azure"))
        assert len(result.records) == requests_for_intensity(4, 10)

    def test_warmup_false_forces_cold_starts(self):
        result = run_experiment(quick_cfg(warmup=False))
        assert result.cold_starts > 0


class TestRepetitions:
    def test_five_seed_protocol(self):
        results = run_repetitions(quick_cfg(), seeds=(1, 2, 3))
        assert len(results) == 3
        assert {r.config.seed for r in results} == {1, 2, 3}


class TestMultiNode:
    def test_basic_run(self):
        result = run_experiment(fig6_config(2, 4, 110, "FC", seed=1))
        assert len(result.records) == 110
        assert len(result.node_stats) == 2

    def test_all_nodes_used(self):
        result = run_experiment(fig6_config(3, 4, 330, "FC", seed=1))
        assert len({r.invoker for r in result.records}) == 3

    def test_deterministic(self):
        cfg = fig6_config(2, 4, 110, "baseline", seed=5)
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert [r.completed_at for r in a.records] == [
            r.completed_at for r in b.records
        ]
