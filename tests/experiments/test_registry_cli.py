"""Tests for the experiment registry and the CLI."""

import pytest

from repro.cli import build_parser, main
from repro.experiments.registry import EXPERIMENTS, experiment_ids, run_registered


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        expected = {
            "table1", "fig2", "fig3", "fig4", "table2", "table3", "table4",
            "fig5", "fig6", "ablations",
        }
        assert set(experiment_ids()) == expected

    def test_unknown_id_rejected(self):
        with pytest.raises(KeyError):
            run_registered("fig99")

    def test_mapping_and_pairs_give_the_same_run(self, monkeypatch):
        # Every parameter kind reaches the runner as the same pairs, in
        # the caller's order (not sorted), whichever spelling it came in.
        calls = []
        description, _ = EXPERIMENTS["table4"]
        monkeypatch.setitem(
            EXPERIMENTS, "table4", (description, lambda *selection: calls.append(selection))
        )
        pairs = dict(
            scenario_params=(("zipf_exponent", 0.5), ("rate", 3.0)),
            balancer_params=(("seed", 7), ("d", 3)),
            policy_params=(("smoothing", 0.4), ("alpha", 0.5)),
            failure_params=(("timeout_s", 2.0), ("max_attempts", 3)),
        )
        for spelling in (pairs, {name: dict(value) for name, value in pairs.items()}):
            run_registered("table4", scenario="poisson", balancers=("power-of-d",), **spelling)
        assert calls[0] == calls[1]
        _, _, workload, cluster, policy, failure = calls[0]
        assert workload.params == pairs["scenario_params"]
        assert cluster.balancer_params == pairs["balancer_params"]
        assert policy.params == pairs["policy_params"]
        assert failure.params == pairs["failure_params"]

    def test_descriptions_present(self):
        for _, (description, _) in EXPERIMENTS.items():
            assert description


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "fig6" in out

    def test_simulate(self, capsys):
        code = main([
            "simulate", "--cores", "4", "--intensity", "10",
            "--policy", "SEPT", "--seed", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "SEPT" in out and "R.avg" in out and "cold starts" in out

    def test_simulate_baseline(self, capsys):
        assert main([
            "simulate", "--cores", "4", "--intensity", "10", "--policy", "baseline",
        ]) == 0
        assert "baseline" in capsys.readouterr().out

    def test_parser_rejects_bad_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--policy", "LIFO"])

    def test_parser_rejects_bad_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig99"])

    def test_parser_rejects_bad_scenario(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--scenario", "chaos"])


class TestScenarioCli:
    def test_scenarios_subcommand_lists_all_registered(self, capsys):
        from repro.workload.registry import scenario_names

        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        assert len(scenario_names()) >= 8
        for name in scenario_names():
            assert name in out
        assert "--scenario-param" in out  # parameters are documented

    def test_simulate_with_registered_scenario(self, capsys):
        code = main([
            "simulate", "--cores", "4", "--intensity", "10",
            "--scenario", "poisson", "--scenario-param", "zipf_exponent=1.1",
        ])
        assert code == 0
        assert "scenario=poisson" in capsys.readouterr().out

    def test_simulate_replay_scenario(self, capsys, tmp_path):
        from repro.workload.replay import TraceRow, write_trace_csv

        csv_path = write_trace_csv(
            tmp_path / "t.csv", [TraceRow("a", "f", 0, 20)]
        )
        code = main([
            "simulate", "--cores", "4", "--intensity", "10",
            "--scenario", "replay",
            "--scenario-param", f"path={csv_path}",
            "--scenario-param", "minute_s=10",
        ])
        assert code == 0
        assert "scenario=replay" in capsys.readouterr().out

    def test_grid_with_scenario(self, capsys):
        code = main([
            "grid", "--cores", "4", "--intensities", "10",
            "--strategies", "FIFO", "--seeds", "1",
            "--scenario", "diurnal", "--scenario-param", "amplitude=0.5",
            "--no-progress",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "engine: 1 runs" in out

    def test_run_artifact_under_scenario_override(self, capsys):
        code = main([
            "run", "table4", "--scenario", "poisson", "--no-progress",
        ])
        assert code == 0
        assert "scenario=poisson" in capsys.readouterr().out

    def test_bad_scenario_param_format_exits(self):
        with pytest.raises(SystemExit):
            main([
                "simulate", "--cores", "4", "--intensity", "10",
                "--scenario", "poisson", "--scenario-param", "zipf_exponent",
            ])

    def test_unknown_scenario_param_clean_error(self, capsys):
        assert main([
            "simulate", "--cores", "4", "--intensity", "10",
            "--scenario", "skewed", "--scenario-param", "rare_cont=5",
        ]) == 2
        err = capsys.readouterr().err
        assert "rare_cont" in err and "rare_count" in err

    def test_scenario_param_without_scenario_on_run_rejected(self, capsys):
        # 'run' defaults --scenario to None; dropping the params silently
        # would run the wrong workload without any hint.
        assert main(["run", "table1", "--scenario-param", "zipf_exponent=1.5"]) == 2
        assert "--scenario" in capsys.readouterr().err

    def test_scenario_override_rejected_for_fixed_workload_artifact(self, capsys):
        # fig5 runs its own skewed workload; silently ignoring --scenario
        # would present the wrong experiment as if the override applied.
        assert main(["run", "fig5", "--scenario", "poisson"]) == 2
        assert "fixed workload" in capsys.readouterr().err

    def test_run_registered_rejects_override_for_fixed_workload_artifact(self):
        with pytest.raises(ValueError, match="fixed workload"):
            run_registered("table1", scenario="poisson")

    def test_grid_empty_scenario_clean_error(self, capsys):
        assert main([
            "grid", "--cores", "4", "--intensities", "10",
            "--strategies", "FIFO", "--seeds", "1",
            "--scenario", "poisson", "--scenario-param", "rate=0",
            "--no-progress",
        ]) == 2
        assert "no requests" in capsys.readouterr().err

    def test_grid_empty_scenario_clean_error_with_jobs(self, capsys):
        # With --jobs > 1 the failure arrives as WorkerError; the CLI must
        # still print a clean error, not a traceback.
        assert main([
            "grid", "--cores", "4", "--intensities", "10",
            "--strategies", "FIFO", "--seeds", "1", "2", "--jobs", "2",
            "--scenario", "poisson", "--scenario-param", "rate=0",
            "--no-progress",
        ]) == 2
        assert "no requests" in capsys.readouterr().err

    def test_simulate_dict_valued_param_clean_error(self, capsys):
        assert main([
            "simulate", "--cores", "4", "--intensity", "10",
            "--scenario", "poisson", "--scenario-param", 'rate={"a":1}',
        ]) == 2
        assert "unsupported value type" in capsys.readouterr().err

    def test_run_registered_params_without_scenario_rejected(self):
        with pytest.raises(ValueError, match="without a scenario"):
            run_registered("table3", scenario_params=(("zipf_exponent", 1.5),))

    def test_simulate_missing_replay_file_clean_error(self, capsys, tmp_path):
        assert main([
            "simulate", "--cores", "4", "--intensity", "10",
            "--scenario", "replay",
            "--scenario-param", f"path={tmp_path / 'absent.csv'}",
        ]) == 2
        assert "absent.csv" in capsys.readouterr().err

    def test_simulate_empty_scenario_clean_error(self, capsys):
        assert main([
            "simulate", "--cores", "4", "--intensity", "10",
            "--scenario", "poisson", "--scenario-param", "rate=0",
        ]) == 2
        err = capsys.readouterr().err
        assert "no requests" in err and "poisson" in err

    def test_python_style_boolean_literals_parse_typed(self):
        from repro.cli import _parse_scenario_params

        assert _parse_scenario_params(["a=False", "b=True", "c=None"]) == (
            ("a", False), ("b", True), ("c", None),
        )
        assert _parse_scenario_params(["a=false", "b=1.5", "c=text"]) == (
            ("a", False), ("b", 1.5), ("c", "text"),
        )

    def test_run_registered_scenario_override(self):
        report = run_registered(
            "table4", quick=True, scenario="poisson",
            scenario_params=(("zipf_exponent", 0.5),),
        )
        assert "scenario=poisson" in report

    def test_run_registered_accepts_mapping_params(self):
        # The title keeps the caller's order, not a sorted one, and the
        # mapping runs what the same pairs run.
        report = run_registered(
            "table4", quick=True, scenario="poisson",
            scenario_params={"zipf_exponent": 0.5, "rate": 3.0},
        )
        assert "scenario=poisson zipf_exponent=0.5" in report
        assert "[scenario=poisson zipf_exponent=0.5 rate=3.0]" in report
        assert report == run_registered(
            "table4", quick=True, scenario="poisson",
            scenario_params=(("zipf_exponent", 0.5), ("rate", 3.0)),
        )


class TestPolicyCli:
    """The policy dimension through the CLI: the `policies` listing plus
    --policy-param on simulate/grid and --policies/--policy-param on run."""

    def test_policies_subcommand_lists_all_registered(self, capsys):
        from repro.scheduling.registry import policy_names

        assert main(["policies"]) == 0
        out = capsys.readouterr().out
        assert len(policy_names()) >= 10
        for name in policy_names():
            assert name in out
        assert "--policy-param" in out  # parameters are documented
        assert "starvation-free" in out

    def test_simulate_with_parameterized_policy(self, capsys):
        code = main([
            "simulate", "--cores", "4", "--intensity", "10",
            "--policy", "SEPT-EMA", "--policy-param", "smoothing=0.4",
        ])
        assert code == 0
        assert "SEPT-EMA" in capsys.readouterr().out

    def test_simulate_with_extension_policy(self, capsys):
        code = main([
            "simulate", "--cores", "4", "--intensity", "10",
            "--policy", "ORACLE-SPT",
        ])
        assert code == 0
        assert "ORACLE-SPT" in capsys.readouterr().out

    def test_simulate_unknown_policy_param_clean_error(self, capsys):
        assert main([
            "simulate", "--cores", "4", "--intensity", "10",
            "--policy", "ETAS", "--policy-param", "alhpa=0.5",
        ]) == 2
        err = capsys.readouterr().err
        assert "alhpa" in err and "alpha" in err

    def test_simulate_non_numeric_policy_param_clean_error(self, capsys):
        # 'high' survives the JSON fallback as a string; the registry's
        # validator rejects it with a clean ValueError -> exit 2.
        assert main([
            "simulate", "--cores", "4", "--intensity", "10",
            "--policy", "ETAS", "--policy-param", "alpha=high",
        ]) == 2
        assert "must be a number" in capsys.readouterr().err

    def test_grid_non_numeric_policy_param_clean_error(self, capsys):
        assert main([
            "grid", "--cores", "4", "--intensities", "10",
            "--strategies", "ETAS", "--seeds", "1",
            "--policy-param", "alpha=high", "--no-progress",
        ]) == 2
        assert "must be a number" in capsys.readouterr().err

    def test_simulate_inert_param_combination_clean_error(self, capsys):
        assert main([
            "simulate", "--cores", "4", "--intensity", "10",
            "--policy", "SEPT-EMA",
            "--policy-param", "window=3", "--policy-param", "smoothing=0.4",
        ]) == 2
        assert "not both" in capsys.readouterr().err

    def test_simulate_baseline_with_policy_param_clean_error(self, capsys):
        assert main([
            "simulate", "--cores", "4", "--intensity", "10",
            "--policy", "baseline", "--policy-param", "alpha=0.5",
        ]) == 2
        assert "no policy parameters" in capsys.readouterr().err

    def test_parser_rejects_unregistered_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--policy", "SJF"])

    def test_grid_with_parameterized_strategy(self, capsys):
        code = main([
            "grid", "--cores", "4", "--intensities", "10",
            "--strategies", "SEPT", "SEPT-EMA", "--seeds", "1",
            "--policy-param", "window=3", "--no-progress",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "SEPT-EMA" in out and "engine: 2 runs" in out

    def test_grid_unknown_policy_param_clean_error(self, capsys):
        assert main([
            "grid", "--cores", "4", "--intensities", "10",
            "--strategies", "FIFO", "--seeds", "1",
            "--policy-param", "window=3", "--no-progress",
        ]) == 2
        assert "not declared by any swept strategy" in capsys.readouterr().err

    def test_run_with_policy_override(self, capsys):
        assert main([
            "run", "table4", "--policies", "FC", "FC-HYBRID",
            "--policy-param", "deadline_weight=0.8", "--no-progress",
        ]) == 0
        assert "FC-HYBRID" in capsys.readouterr().out

    def test_run_policy_override_rejected_for_fixed_artifact(self, capsys):
        assert main(["run", "table1", "--policies", "SEPT"]) == 2
        assert "fixed strategy" in capsys.readouterr().err


class TestClusterCli:
    """The cluster dimension through the CLI: --nodes / --balancer /
    --balancer-param / --autoscale on simulate, grid, and run."""

    def test_simulate_multi_node_prints_breakdown(self, capsys):
        code = main([
            "simulate", "--cores", "4", "--intensity", "10", "--policy", "FC",
            "--nodes", "3", "--balancer", "power-of-d",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "nodes=3" in out and "balancer=power-of-d" in out
        assert "Cluster breakdown" in out
        assert "FC-node-2" in out

    def test_simulate_single_node_keeps_classic_output(self, capsys):
        assert main(["simulate", "--cores", "4", "--intensity", "10"]) == 0
        out = capsys.readouterr().out
        assert "cold starts" in out and "Cluster breakdown" not in out

    def test_grid_sweeps_nodes_and_balancers(self, capsys, tmp_path):
        args = [
            "grid", "--cores", "4", "--intensities", "10",
            "--strategies", "FC", "--seeds", "1", "--jobs", "2",
            "--nodes", "1", "3", "--balancer", "least-loaded", "power-of-d",
            "--cache-dir", str(tmp_path / "cache"), "--no-progress",
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "nodes=3 balancer=power-of-d" in out
        assert "engine: 4 runs (4 computed" in out
        # Cached re-run computes nothing.
        assert main(args) == 0
        assert "4 from cache" in capsys.readouterr().out

    def test_grid_single_topology_tagged_in_title(self, capsys):
        assert main([
            "grid", "--cores", "4", "--intensities", "10",
            "--strategies", "FIFO", "--seeds", "1",
            "--nodes", "2", "--no-progress",
        ]) == 0
        assert "[cluster: nodes=2" in capsys.readouterr().out

    def test_grid_bad_balancer_param_clean_error(self, capsys):
        assert main([
            "grid", "--cores", "4", "--intensities", "10",
            "--strategies", "FIFO", "--seeds", "1",
            "--nodes", "2", "--balancer", "power-of-d",
            "--balancer-param", "dd=3", "--no-progress",
        ]) == 2
        assert "not declared by any swept balancer" in capsys.readouterr().err

    def test_parser_rejects_unknown_balancer(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--balancer", "magic"])

    def test_simulate_autoscale_flag(self, capsys):
        code = main([
            "simulate", "--cores", "4", "--intensity", "60",
            "--policy", "baseline", "--nodes", "1", "--autoscale",
        ])
        assert code == 0
        assert "Cluster breakdown" in capsys.readouterr().out

    def test_run_fig6_honors_balancer_override(self, capsys):
        assert main([
            "run", "fig6", "--balancer", "least-loaded", "--no-progress",
        ]) == 0
        assert "multi-node response times" in capsys.readouterr().out

    def test_run_cluster_override_rejected_for_fixed_topology(self, capsys):
        assert main(["run", "table1", "--nodes", "3"]) == 2
        assert "fixed topology" in capsys.readouterr().err

    def test_run_registered_cluster_override(self):
        report = run_registered(
            "table4",
            quick=True,
            nodes=(2,),
            balancers=("power-of-d",),
        )
        assert "[cluster: nodes=2 balancer=power-of-d]" in report


class TestEngineFlags:
    """Every artifact but Table I runs its cells through the engine, and
    Table I refuses the engine flags rather than dropping them."""

    def test_fig5_stores_its_cells_and_rereads_them(self, capsys, tmp_path):
        argv = ["run", "fig5", "--cache-dir", str(tmp_path), "--no-progress"]
        assert main(argv) == 0
        assert "engine: 6 runs (6 computed, 0 from cache" in capsys.readouterr().out
        assert len(list(tmp_path.glob("*/*.json"))) == 6
        assert main(argv) == 0
        assert "engine: 6 runs (0 computed, 6 from cache" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags", [["--jobs", "2"], ["--cell-timeout", "5"], ["--cache-dir", "."]]
    )
    def test_table1_rejects_engine_flags(self, capsys, flags):
        assert main(["run", "table1", *flags]) == 2
        assert "table1 runs a sequential client" in capsys.readouterr().err
