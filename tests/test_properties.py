"""Cross-cutting property-based tests on full platform runs.

These check invariants that must hold for ANY workload and ANY policy:
conservation (every request answered exactly once), causality (timeline
monotonicity), and the no-oversubscription guarantee of our invoker.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.platform import FaaSPlatform
from repro.node.baseline import BaselineInvoker
from repro.node.config import NodeConfig
from repro.node.invoker import Invoker
from repro.sim.core import Environment
from repro.workload.functions import sebs_catalog
from repro.workload.generator import BurstScenario, Request


@st.composite
def small_scenarios(draw):
    """Random workloads: arbitrary arrival times and service times."""
    catalog = sebs_catalog()
    n = draw(st.integers(min_value=1, max_value=25))
    requests = []
    for rid in range(n):
        spec = catalog[draw(st.integers(0, len(catalog) - 1))]
        release = draw(st.floats(min_value=0.0, max_value=30.0))
        service = draw(st.floats(min_value=1e-3, max_value=5.0))
        requests.append(Request(rid, spec, release, service))
    return BurstScenario(requests=requests, window=30.0)


def run_platform(scenario, policy, before_run=None):
    env = Environment()
    config = NodeConfig(cores=2, memory_mb=8192)
    if policy == "baseline":
        invoker = BaselineInvoker(env, config)
    else:
        invoker = Invoker(env, config, policy=policy)
    invoker.warm_up(sebs_catalog())
    if before_run is not None:
        before_run(invoker)
    platform = FaaSPlatform(env, [invoker])
    return invoker, platform.run_scenario(scenario)


@pytest.mark.parametrize("policy", ["baseline", "FIFO", "SEPT", "EECT", "RECT", "FC"])
class TestConservationPerPolicy:
    @given(scenario=small_scenarios())
    @settings(max_examples=15, deadline=None)
    def test_every_request_answered_exactly_once(self, policy, scenario):
        _, records = run_platform(scenario, policy)
        assert sorted(r.rid for r in records) == sorted(r.rid for r in scenario)

    @given(scenario=small_scenarios())
    @settings(max_examples=15, deadline=None)
    def test_timeline_causality(self, policy, scenario):
        _, records = run_platform(scenario, policy)
        for record in records:
            assert record.release_time <= record.received_at
            assert record.received_at <= record.dispatched_at
            assert record.dispatched_at <= record.exec_start
            assert record.exec_start <= record.exec_end
            assert record.exec_end <= record.completed_at

    @given(scenario=small_scenarios())
    @settings(max_examples=10, deadline=None)
    def test_execution_at_least_service_time(self, policy, scenario):
        # A call can never finish faster than its intrinsic demand.
        _, records = run_platform(scenario, policy)
        by_rid = {r.rid: r for r in scenario}
        for record in records:
            assert record.processing_time >= by_rid[record.rid].service_time - 1e-6


class TestOurInvokerGuarantees:
    @given(scenario=small_scenarios())
    @settings(max_examples=15, deadline=None)
    def test_cpu_bank_never_oversubscribed(self, scenario):
        invoker, _ = run_platform(scenario, "SEPT")
        assert invoker.cpu.peak_tasks <= invoker.config.cores

    @given(scenario=small_scenarios())
    @settings(max_examples=15, deadline=None)
    def test_work_conservation_on_cpu_bank(self, scenario):
        # Delivered CPU work equals the work submitted to the bank (call,
        # system and init work alike): the bank neither creates nor loses
        # core-seconds.  A task completes once at most 1e-9 core-seconds
        # remain, so that is the slack per task.
        submitted = []

        def record_submissions(invoker):
            execute = invoker.cpu.execute

            def recording_execute(work, *args, **kwargs):
                submitted.append(work)
                return execute(work, *args, **kwargs)

            invoker.cpu.execute = recording_execute

        invoker, _ = run_platform(scenario, "FIFO", before_run=record_submissions)
        gap = abs(invoker.cpu.delivered_work - sum(submitted))
        assert gap <= 1e-9 * len(submitted)


class TestStarvationFreedom:
    def test_eect_serves_everything_under_persistent_short_stream(self):
        # Adversarial pattern for SEPT-like policies: a steady stream of
        # short calls plus one long call.  EECT/RECT must finish the long
        # call well before the stream ends; SEPT parks it at the end.
        catalog = {s.name: s for s in sebs_catalog()}

        def finish_of_long(policy):
            # Shorts flood from t=0 faster than the 2-core node can drain,
            # so the queue never empties; the long call lands at t=1 into
            # an already-saturated node.
            requests = [
                Request(i, catalog["graph-bfs"], 0.02 * i, 0.3)
                for i in range(1, 1500)
            ]
            requests.append(Request(0, catalog["dna-visualisation"], 1.0, 8.0))
            scenario = BurstScenario(requests=requests, window=30.0)
            _, records = run_platform(scenario, policy)
            return next(r.completed_at for r in records if r.rid == 0)

        sept_finish = finish_of_long("SEPT")
        assert finish_of_long("EECT") < sept_finish
        assert finish_of_long("RECT") < sept_finish
