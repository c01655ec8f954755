"""Tests for the five scheduling policies (paper Sect. IV)."""

import pytest

from repro.scheduling.estimator import RuntimeEstimator
from repro.scheduling.policies import (
    EarliestExpectedCompletionTime,
    FairChoice,
    FirstInFirstOut,
    RecentExpectedCompletionTime,
    SchedulingPolicy,
    ShortestExpectedProcessingTime,
)
from repro.scheduling.registry import build_policy, get_policy, policy_names
from repro.workload.functions import catalog_by_name
from repro.workload.generator import Request


def req(name: str, rid: int = 0, release: float = 0.0) -> Request:
    return Request(rid, catalog_by_name()[name], release, 1.0)


class TestRegistry:
    def test_all_five_policies_registered(self):
        section_iv = {name for name in policy_names() if get_policy(name).paper_section == "IV"}
        assert section_iv == {"FIFO", "SEPT", "EECT", "RECT", "FC"}

    def test_make_policy_case_insensitive(self):
        assert isinstance(build_policy("sept"), ShortestExpectedProcessingTime)
        assert isinstance(build_policy("Fc"), FairChoice)

    def test_make_policy_unknown(self):
        with pytest.raises(ValueError, match="available policies"):
            build_policy("SJF")

    def test_starvation_free_flags(self):
        # Paper Sect. IV: EECT and RECT prevent starvation; SEPT and FC may
        # starve.
        assert EarliestExpectedCompletionTime.starvation_free
        assert RecentExpectedCompletionTime.starvation_free
        assert FirstInFirstOut.starvation_free
        assert not ShortestExpectedProcessingTime.starvation_free
        assert not FairChoice.starvation_free


class TestFIFO:
    def test_priority_is_receipt_time(self):
        policy = build_policy("FIFO")
        assert policy.on_received(req("graph-bfs"), 12.5) == 12.5
        assert policy.on_received(req("dna-visualisation"), 13.5) == 13.5


class TestSEPT:
    def test_priority_is_expected_processing_time(self):
        policy = build_policy("SEPT")
        policy.estimator.record_completion("graph-bfs", 0.01)
        policy.estimator.record_completion("dna-visualisation", 8.5)
        assert policy.on_received(req("graph-bfs"), 0.0) == pytest.approx(0.01)
        assert policy.on_received(req("dna-visualisation"), 0.0) == pytest.approx(8.5)

    def test_unknown_function_gets_zero(self):
        policy = build_policy("SEPT")
        assert policy.on_received(req("sleep"), 100.0) == 0.0

    def test_receipt_time_irrelevant(self):
        policy = build_policy("SEPT")
        policy.estimator.record_completion("sleep", 1.0)
        assert policy.priority(req("sleep"), 0.0) == policy.priority(req("sleep"), 999.0)


class TestEECT:
    def test_priority_is_receipt_plus_estimate(self):
        policy = build_policy("EECT")
        policy.estimator.record_completion("compression", 0.8)
        assert policy.on_received(req("compression"), 10.0) == pytest.approx(10.8)

    def test_starvation_bound(self):
        # If r'(j) > r'(i) + E(p(i)), j is served after i (paper Sect. IV).
        policy = build_policy("EECT")
        policy.estimator.record_completion("compression", 0.8)
        policy.estimator.record_completion("graph-bfs", 0.01)
        early_long = policy.on_received(req("compression"), 0.0)
        late_short = policy.on_received(req("graph-bfs"), 1.0)
        assert late_short > early_long


class TestRECT:
    def test_first_call_anchored_at_own_receipt(self):
        policy = build_policy("RECT")
        policy.estimator.record_completion("sleep", 1.0)
        assert policy.on_received(req("sleep"), 5.0) == pytest.approx(6.0)

    def test_subsequent_call_anchored_at_previous_receipt(self):
        policy = build_policy("RECT")
        policy.estimator.record_completion("sleep", 1.0)
        policy.on_received(req("sleep"), 5.0)
        # Second call at t=9: anchor is the previous receipt (5.0).
        assert policy.on_received(req("sleep"), 9.0) == pytest.approx(6.0)

    def test_anchor_increases_over_time(self):
        policy = build_policy("RECT")
        policy.estimator.record_completion("sleep", 1.0)
        p1 = policy.on_received(req("sleep"), 5.0)
        policy.on_received(req("sleep"), 9.0)
        p3 = policy.on_received(req("sleep"), 20.0)
        assert p3 > p1  # r̄ is increasing -> no starvation


class TestFairChoice:
    def test_priority_is_count_times_estimate(self):
        policy = build_policy("FC")
        policy.estimator.record_completion("sleep", 1.0)
        # First call: no recorded arrivals yet -> count 0 -> priority 0.
        assert policy.on_received(req("sleep"), 0.0) == 0.0
        # Second call: one arrival within T -> 1 * 1.0.
        assert policy.on_received(req("sleep"), 1.0) == pytest.approx(1.0)
        assert policy.on_received(req("sleep"), 2.0) == pytest.approx(2.0)

    def test_frequency_window_forgets(self):
        policy = build_policy("FC", frequency_horizon=10.0)
        policy.estimator.record_completion("sleep", 1.0)
        policy.on_received(req("sleep"), 0.0)
        policy.on_received(req("sleep"), 1.0)
        # At t=50 both previous arrivals are outside T=10.
        assert policy.on_received(req("sleep"), 50.0) == 0.0

    def test_rare_long_beats_frequent_short(self):
        # The fairness mechanism (paper Sect. VII-D): a rarely-called long
        # function outranks a frequently-called short one once the short
        # function's recent consumption is higher.
        policy = build_policy("FC")
        policy.estimator.record_completion("dna-visualisation", 8.5)
        policy.estimator.record_completion("graph-bfs", 0.01)
        for t in range(1000):
            policy.on_received(req("graph-bfs"), t * 0.05)
        dna_priority = policy.on_received(req("dna-visualisation"), 50.0)
        bfs_priority = policy.on_received(req("graph-bfs"), 50.0)
        assert dna_priority < bfs_priority


class TestBookkeeping:
    def test_on_completed_feeds_estimator(self):
        policy = build_policy("SEPT")
        policy.on_completed(req("sleep"), 1.5)
        assert policy.estimator.expected_processing_time("sleep") == pytest.approx(1.5)

    def test_base_class_is_abstract(self):
        policy = SchedulingPolicy(RuntimeEstimator())
        with pytest.raises(NotImplementedError):
            policy.priority(req("sleep"), 0.0)

    def test_on_received_records_arrival_after_priority(self):
        # RECT's correctness depends on this ordering: priority must use the
        # PREVIOUS arrival, not the current one.
        policy = build_policy("RECT")
        policy.estimator.record_completion("sleep", 0.0)
        policy.on_received(req("sleep"), 3.0)
        assert policy.estimator.previous_arrival("sleep") == 3.0
