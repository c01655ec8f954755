"""The cluster dimension as a first-class grid citizen.

Acceptance for the cluster elevation: a ``nodes × balancer`` sweep runs
through :func:`run_grid` with ``jobs=2``, hits the cache on a re-run,
matches the serial run bit-for-bit, and cluster parameters provably
change the cache fingerprint.
"""

import pytest

from repro.cluster.spec import ClusterSpec
from repro.experiments.config import ExperimentConfig
from repro.experiments.fig6_multinode import run_fig6
from repro.experiments.grid import GridSpec, run_grid
from repro.experiments.parallel import (
    EngineStats,
    config_fingerprint,
    config_from_dict,
    config_to_dict,
    result_from_payload,
    result_to_payload,
    run_configs,
)
from repro.experiments.runner import run_experiment


def cluster_spec() -> GridSpec:
    """A small nodes × balancer sweep, cheap enough for jobs=2 + cache."""
    return GridSpec(
        cores=(4,),
        intensities=(10,),
        strategies=("FC",),
        seeds=(1,),
        nodes=(1, 3),
        balancers=("least-loaded", "power-of-d"),
    )


def assert_results_identical(a, b) -> None:
    assert a.config == b.config
    assert a.records == b.records
    assert a.node_stats == b.node_stats
    assert a.balancer_stats == b.balancer_stats


class TestClusterSweepAcceptance:
    def test_parallel_matches_serial_and_caches(self, tmp_path):
        spec = cluster_spec()
        serial = run_grid(spec, jobs=1)
        pooled = run_grid(spec, jobs=2, cache_dir=tmp_path / "cache")

        assert serial.cells.keys() == pooled.cells.keys()
        assert len(serial.cells) == 4  # 2 node counts x 2 balancers
        for key in serial.cells:
            for s, p in zip(serial.cells[key], pooled.cells[key]):
                assert_results_identical(s, p)

        # Cached re-run: every cell comes back from disk, still identical.
        again = run_grid(spec, jobs=2, cache_dir=tmp_path / "cache")
        assert again.stats.cached == again.stats.total == 4
        for key in serial.cells:
            for s, c in zip(serial.cells[key], again.cells[key]):
                assert_results_identical(s, c)

    def test_sweep_keys_carry_topology(self):
        spec = cluster_spec()
        assert spec.has_cluster_sweep
        keys = spec.cell_keys()
        assert (4, 10, "FC", 3, "power-of-d") in keys
        assert len(keys) == 4

    def test_single_topology_keeps_classic_keys(self):
        spec = GridSpec(cores=(4,), intensities=(10,), strategies=("FIFO",), seeds=(1,))
        assert not spec.has_cluster_sweep
        assert spec.cell_keys() == [(4, 10, "FIFO")]

    def test_multi_node_cells_use_every_node(self):
        spec = cluster_spec()
        grid = run_grid(spec)
        results = grid.results(4, 10, "FC", nodes=3, balancer="least-loaded")
        assert len(results[0].node_stats) == 3
        assert len({r.invoker for r in results[0].records}) == 3
        assert results[0].balancer_stats["picks"] == len(results[0].records)


class TestFingerprintDivergence:
    """Cluster parameters are part of the experiment's identity: any
    change must produce a different cache fingerprint."""

    BASE = dict(cores=4, intensity=10, policy="FC", seed=1)

    def fp(self, **cluster_kwargs) -> str:
        cluster = ClusterSpec(**cluster_kwargs) if cluster_kwargs else None
        config = (
            ExperimentConfig(**self.BASE, cluster=cluster)
            if cluster is not None
            else ExperimentConfig(**self.BASE)
        )
        return config_fingerprint(config)

    def test_node_count_changes_fingerprint(self):
        assert self.fp() != self.fp(nodes=2)
        assert self.fp(nodes=2) != self.fp(nodes=3)

    def test_balancer_changes_fingerprint(self):
        assert self.fp(nodes=2) != self.fp(nodes=2, balancer="power-of-d")

    def test_balancer_params_change_fingerprint(self):
        assert self.fp(nodes=2, balancer="power-of-d") != self.fp(
            nodes=2, balancer="power-of-d", balancer_params={"d": 3}
        )

    def test_node_overrides_change_fingerprint(self):
        assert self.fp(nodes=2) != self.fp(
            nodes=2, node_overrides=({"cores": 2}, {"cores": 8})
        )

    def test_autoscaler_changes_fingerprint(self):
        assert self.fp(nodes=2) != self.fp(nodes=2, autoscaler=())
        assert self.fp(nodes=2, autoscaler=()) != self.fp(
            nodes=2, autoscaler={"max_nodes": 8}
        )

    def test_default_cluster_fingerprint_matches_plain_config(self):
        # Spelling the default explicitly is the same experiment.
        assert self.fp() == self.fp(nodes=1, balancer="least-loaded")


class TestConfigAndResultSerialization:
    def test_cluster_config_round_trips(self):
        config = ExperimentConfig(
            cores=4,
            intensity=10,
            policy="FC",
            cluster=ClusterSpec(
                nodes=2,
                balancer="locality",
                balancer_params={"capacity_factor": 1.5},
                autoscaler={"max_nodes": 3},
            ),
        )
        assert config_from_dict(config_to_dict(config)) == config

    def test_result_payload_keeps_balancer_stats(self):
        config = ExperimentConfig(
            cores=4, intensity=10, policy="FC", cluster=ClusterSpec(nodes=2)
        )
        result = run_experiment(config)
        assert result.balancer_stats is not None
        restored = result_from_payload(result_to_payload(result))
        assert_results_identical(result, restored)

    def test_mapping_cluster_accepted(self):
        config = ExperimentConfig(cores=4, intensity=10, cluster={"nodes": 2})
        assert config.cluster == ClusterSpec(nodes=2)

    def test_bad_cluster_type_rejected(self):
        with pytest.raises(ValueError, match="ClusterSpec"):
            ExperimentConfig(cores=4, intensity=10, cluster=3)


class TestClusterRunBehaviour:
    def test_heterogeneous_fleet_materialises_per_node_configs(self):
        config = ExperimentConfig(
            cores=4,
            intensity=10,
            policy="FC",
            cluster=ClusterSpec(nodes=2, node_overrides=({"cores": 2}, {"cores": 8})),
        )
        result = run_experiment(config)
        assert len(result.node_stats) == 2
        assert len(result.records) == 44

    def test_every_balancer_flavour_runs_deterministically(self):
        for balancer in ("round-robin", "least-loaded", "hash-overflow",
                         "power-of-d", "locality"):
            config = ExperimentConfig(
                cores=4,
                intensity=10,
                policy="FC",
                cluster=ClusterSpec(nodes=3, balancer=balancer),
            )
            a = run_experiment(config)
            b = run_experiment(config)
            assert a.records == b.records, balancer
            assert a.balancer_stats == b.balancer_stats, balancer

    def test_autoscaled_run_grows_fleet_and_reports_scale_events(self):
        config = ExperimentConfig(
            cores=4,
            intensity=90,
            policy="baseline",
            cluster=ClusterSpec(
                nodes=1,
                autoscaler={"max_nodes": 3, "provisioning_delay_s": 5.0},
            ),
        )
        result = run_experiment(config)
        assert len(result.node_stats) > 1  # balancer routed to scaled nodes
        assert result.balancer_stats["scale_events"]
        time, size = result.balancer_stats["scale_events"][0]
        assert time >= 5.0 and size >= 2
        # Scaled-out nodes actually served calls (live-list contract end
        # to end: autoscaler append -> balancer pick -> records).
        assert len({r.invoker for r in result.records}) > 1

    def test_autoscaled_run_is_engine_safe(self, tmp_path):
        config = ExperimentConfig(
            cores=4,
            intensity=90,
            policy="baseline",
            cluster=ClusterSpec(
                nodes=1,
                autoscaler={"max_nodes": 3, "provisioning_delay_s": 5.0},
            ),
        )
        serial = run_configs([config], jobs=1)[0]
        stats = EngineStats()
        pooled = run_configs(
            [config], jobs=2, cache_dir=tmp_path / "cache", stats=stats
        )[0]
        assert_results_identical(serial, pooled)
        cached = run_configs([config], jobs=1, cache_dir=tmp_path / "cache")[0]
        assert_results_identical(serial, cached)


class TestArtifactSweepSeams:
    """Artifacts keyed per (cores, intensity, strategy) must refuse a
    multi-topology sweep instead of rendering empty, and paper
    comparisons must not present non-default topologies as comparable."""

    def run_sweep_grid(self):
        return run_grid(
            GridSpec(
                cores=(4,), intensities=(10,),
                strategies=("baseline", "FIFO"), seeds=(1,),
                nodes=(1, 2),
            )
        )

    def test_fig3_fig4_reject_cluster_sweeps(self):
        from repro.experiments.artifacts import fig3_from_grid, fig4_from_grid

        grid = self.run_sweep_grid()
        with pytest.raises(ValueError, match="one cluster topology at a time"):
            fig3_from_grid(grid)
        with pytest.raises(ValueError, match="one cluster topology at a time"):
            fig4_from_grid(grid)

    def test_table2_rejects_cluster_sweeps(self):
        from repro.experiments.artifacts import table2_from_grid

        with pytest.raises(ValueError, match="one cluster topology at a time"):
            table2_from_grid(self.run_sweep_grid())

    def test_table3_comparison_skipped_off_paper_topology(self):
        from repro.experiments.artifacts import table3_from_grid

        note = table3_from_grid(self.run_sweep_grid()).render_comparison()
        assert "skipped" in note

    def test_single_non_default_topology_artifacts_are_tagged(self):
        from repro.experiments.artifacts import fig3_from_grid, table2_from_grid

        grid = run_grid(
            GridSpec(
                cores=(4,), intensities=(10,),
                strategies=("baseline", "FIFO"), seeds=(1,),
                nodes=(2,),
            )
        )
        assert "[cluster: nodes=2" in fig3_from_grid(grid).render()
        assert "[cluster: nodes=2" in table2_from_grid(grid).render()

    def test_explicit_selector_mismatch_raises_on_single_topology_grid(self):
        grid = run_grid(
            GridSpec(
                cores=(4,), intensities=(10,), strategies=("FC",), seeds=(1,),
                nodes=(3,),
            )
        )
        assert len(grid.results(4, 10, "FC", nodes=3)) == 1
        with pytest.raises(KeyError, match="no cell has"):
            grid.results(4, 10, "FC", nodes=1)
        with pytest.raises(KeyError, match="no cell has"):
            grid.summary(4, 10, "FC", balancer="power-of-d")

    def test_balancer_params_filtered_per_swept_flavour(self):
        spec = GridSpec(
            nodes=(2,),
            balancers=("least-loaded", "power-of-d"),
            balancer_params=(("d", 3),),
        )
        by_name = {v.balancer: v for v in spec.cluster_variants()}
        assert dict(by_name["power-of-d"].balancer_params)["d"] == 3
        assert "d" not in dict(by_name["least-loaded"].balancer_params)

    def test_balancer_param_unknown_to_every_flavour_rejected(self):
        spec = GridSpec(
            balancers=("least-loaded", "power-of-d"),
            balancer_params=(("dd", 3),),
        )
        with pytest.raises(ValueError, match="not declared by any"):
            spec.cluster_variants()

    def test_fig6_rejects_unhonored_cluster_overrides(self):
        from repro.experiments.registry import run_registered

        with pytest.raises(ValueError, match="does not honor"):
            run_registered("fig6", nodes=(2,))
        with pytest.raises(ValueError, match="does not honor"):
            run_registered("fig6", autoscale=True)
        with pytest.raises(ValueError, match="does not honor"):
            run_registered(
                "fig6", balancers=("power-of-d",), balancer_params={"d": 3}
            )


class TestFig6Equivalence:
    """fig6 rides the engine; its cells are pinned by the ``cluster:fig6``
    golden fingerprints (tools/golden_fingerprints.py)."""

    def test_fig6_runs_through_the_engine_and_caches(self, tmp_path):
        kwargs = dict(
            cores_per_node=4, node_counts=(2, 1), strategies=("FC",), seeds=(1,)
        )
        serial = run_fig6(**kwargs)
        pooled = run_fig6(**kwargs, jobs=2, cache_dir=tmp_path / "cache")
        assert serial.stats == pooled.stats
        cached = run_fig6(**kwargs, jobs=1, cache_dir=tmp_path / "cache")
        assert serial.stats == cached.stats
