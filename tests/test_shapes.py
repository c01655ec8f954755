"""Shape-regression tests: the paper's qualitative claims must hold.

These are the reproduction's acceptance tests.  They run scaled-down but
real experiments and pin the *orderings and crossovers* the paper
reports — not absolute numbers (our substrate is a simulator, not the
authors' testbed).  If a refactoring breaks one of these, the
reproduction no longer reproduces the paper.
"""

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.fig6_multinode import fig6_config
from repro.experiments.runner import run_experiment

pytestmark = pytest.mark.shape


def summary(cores, intensity, policy, seed=1, **kwargs):
    cfg = ExperimentConfig(
        cores=cores, intensity=intensity, policy=policy, seed=seed, **kwargs
    )
    return run_experiment(cfg)


class TestSingleNodeShapes:
    def test_loaded_system_fc_beats_baseline_by_factors(self):
        # Headline: "in a loaded system, our method decreases the average
        # response time by a factor of 4 ... average stretch by 18".
        base = summary(20, 120, "baseline").summary()
        fc = summary(20, 120, "FC").summary()
        assert base.mean_response_time / fc.mean_response_time > 3.0
        assert base.mean_stretch / fc.mean_stretch > 10.0

    def test_sept_and_fc_beat_fifo_everywhere_loaded(self):
        for cores, intensity in ((10, 60), (20, 40)):
            fifo = summary(cores, intensity, "FIFO").summary()
            sept = summary(cores, intensity, "SEPT").summary()
            fc = summary(cores, intensity, "FC").summary()
            assert sept.mean_response_time < fifo.mean_response_time
            assert fc.mean_response_time < fifo.mean_response_time
            assert sept.mean_stretch < fifo.mean_stretch
            assert fc.mean_stretch < fifo.mean_stretch

    def test_sept_fc_median_close_to_idle(self):
        # Paper Fig. 3/4: SEPT/FC median response stays ~1-2 s even under
        # load (short calls fly) while FIFO's median is tens of seconds.
        fifo = summary(20, 40, "FIFO").summary()
        sept = summary(20, 40, "SEPT").summary()
        assert sept.response_time_percentiles[50] < 5.0
        assert fifo.response_time_percentiles[50] > 20.0

    def test_baseline_collapses_at_20_cores(self):
        # Paper Sect. VII-C / Table III: at 20 cores the baseline is the
        # worst strategy by a wide margin.
        base = summary(20, 40, "baseline").summary()
        fifo = summary(20, 40, "FIFO").summary()
        assert base.mean_response_time > 2.0 * fifo.mean_response_time

    def test_crossover_baseline_wins_at_5_cores_low_intensity(self):
        # Table II, first row: at 5 cores / intensity 30 the baseline
        # completes the burst FASTER than our FIFO (I/O overlap wins when
        # management overheads are small).
        base = summary(5, 30, "baseline")
        fifo = summary(5, 30, "FIFO")
        assert fifo.makespan > base.makespan

    def test_fifo_beats_baseline_makespan_at_20_cores(self):
        # Table II, last row: at 20 cores our FIFO completes in ~0.6x the
        # baseline's time.
        base = summary(20, 120, "baseline")
        fifo = summary(20, 120, "FIFO")
        assert fifo.makespan < 0.8 * base.makespan

    def test_baseline_degrades_with_intensity(self):
        prev = 0.0
        for intensity in (30, 60, 120):
            mean = summary(10, intensity, "baseline").summary().mean_response_time
            assert mean > prev
            prev = mean

    def test_eect_rect_between_fifo_and_sept(self):
        fifo = summary(10, 60, "FIFO").summary().mean_stretch
        sept = summary(10, 60, "SEPT").summary().mean_stretch
        eect = summary(10, 60, "EECT").summary().mean_stretch
        rect = summary(10, 60, "RECT").summary().mean_stretch
        assert sept < eect < fifo or sept < eect < 1.5 * fifo
        assert sept < rect < fifo or sept < rect < 1.5 * fifo


class TestColdStartShapes:
    def test_baseline_cold_starts_grow_with_intensity(self):
        colds = [
            summary(10, intensity, "baseline").cold_starts
            for intensity in (30, 60, 120)
        ]
        assert colds[0] < colds[1] < colds[2]
        # Fig. 2a: at intensity 120 over 80% of the 1320 requests cold-start.
        assert colds[2] > 0.6 * 1320

    def test_our_fifo_no_cold_starts_at_32gib(self):
        # Fig. 2b: from 32 GiB our approach's cold starts vanish (10 cores).
        assert summary(10, 120, "FIFO").cold_starts == 0

    def test_our_fifo_cold_starts_at_tiny_memory(self):
        assert summary(10, 60, "FIFO", memory_mb=4096).cold_starts > 0

    def test_baseline_cold_starts_insensitive_to_memory(self):
        # Fig. 2a: the baseline's cold-start count barely depends on memory.
        small = summary(10, 120, "baseline", memory_mb=16384).cold_starts
        large = summary(10, 120, "baseline", memory_mb=131072).cold_starts
        assert small > 0.5 * 1320 and large > 0.5 * 1320


class TestFairnessShape:
    def test_fc_fairer_than_sept_for_rare_long_function(self):
        # Paper Fig. 5(b): FC cuts the rare dna-visualisation stretch vs
        # SEPT (5.3 -> 2.1 average in the paper).
        import numpy as np

        def rare_stretch(policy):
            values = []
            for seed in (1, 2):
                result = run_experiment(ExperimentConfig(
                    cores=10, intensity=90, policy=policy, seed=seed,
                    scenario="skewed",
                ))
                values += [r.stretch for r in result.records_for("dna-visualisation")]
            return float(np.mean(values))

        assert rare_stretch("FC") < rare_stretch("SEPT")


class TestMultiNodeShape:
    def test_fc_on_3_nodes_beats_baseline_on_4(self):
        # The paper's capacity-reduction headline (Sect. VIII).
        def pooled(nodes, policy):
            return run_experiment(fig6_config(nodes, 18, 2376, policy, seed=1)).summary()

        base4 = pooled(4, "baseline")
        fc3 = pooled(3, "FC")
        assert fc3.mean_response_time < base4.mean_response_time
        assert fc3.response_time_percentiles[75] < base4.response_time_percentiles[75]
