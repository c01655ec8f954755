"""Integration tests for the FaaSPlatform façade."""

import numpy as np
import pytest

from repro.cluster.controller import RoundRobinBalancer
from repro.cluster.network import NetworkModel
from repro.cluster.platform import FaaSPlatform
from repro.failures import FailureRng, FailureSpec
from repro.node.config import NodeConfig
from repro.node.invoker import Invoker, NodeCallInfo
from repro.sim.core import Environment
from repro.sim.events import Event
from repro.workload.functions import sebs_catalog
from repro.workload.generator import BurstScenario, Request, RequestStream
from repro.workload.scenarios import uniform_burst


def build(env, n_invokers=1, policy="FIFO", cores=4):
    config = NodeConfig(cores=cores, memory_mb=16384)
    invokers = [
        Invoker(env, config, policy=policy, name=f"node-{i}") for i in range(n_invokers)
    ]
    for invoker in invokers:
        invoker.warm_up(sebs_catalog())
    return invokers


class TestPlatform:
    def test_every_request_gets_a_record(self):
        env = Environment()
        invokers = build(env)
        scenario = uniform_burst(4, 10, np.random.default_rng(0))
        platform = FaaSPlatform(env, invokers)
        records = platform.run_scenario(scenario)
        assert len(records) == len(scenario)
        assert [r.rid for r in records] == sorted(r.rid for r in scenario)

    def test_empty_scenario(self):
        env = Environment()
        invokers = build(env)
        scenario = uniform_burst(4, 10, np.random.default_rng(0))
        scenario.requests = []
        platform = FaaSPlatform(env, invokers)
        assert platform.run_scenario(scenario) == []

    @pytest.mark.parametrize("shape", ["burst", "stream"])
    def test_out_of_order_arrivals_rejected(self, shape):
        env = Environment()
        invokers = build(env)
        function = sebs_catalog()[0]
        requests = [Request(0, function, 2.0, 1.0), Request(1, function, 1.0, 1.0)]
        if shape == "burst":
            scenario = BurstScenario([], label="unsorted")
            scenario.requests = requests  # past the constructor's sort
        else:
            scenario = RequestStream(lambda: iter(requests), label="unsorted")
        with pytest.raises(ValueError, match="'unsorted' yielded request rid=1"):
            FaaSPlatform(env, invokers).run_scenario(scenario)

    def test_response_time_includes_network_overhead(self):
        env = Environment()
        invokers = build(env)
        network = NetworkModel(request_latency_s=0.1, response_latency_s=0.2)
        scenario = uniform_burst(4, 10, np.random.default_rng(0))
        platform = FaaSPlatform(env, invokers, network=network)
        records = platform.run_scenario(scenario)
        assert all(r.response_time >= 0.3 for r in records)

    def test_received_at_is_release_plus_request_leg(self):
        env = Environment()
        invokers = build(env)
        scenario = uniform_burst(4, 10, np.random.default_rng(0))
        platform = FaaSPlatform(env, invokers)
        records = platform.run_scenario(scenario)
        for record in records:
            assert record.received_at == pytest.approx(record.release_time + 0.005)

    def test_multi_invoker_round_robin_spreads_load(self):
        env = Environment()
        invokers = build(env, n_invokers=3)
        scenario = uniform_burst(4, 30, np.random.default_rng(0))
        platform = FaaSPlatform(env, invokers, balancer=RoundRobinBalancer(invokers))
        records = platform.run_scenario(scenario)
        by_invoker = {name: 0 for name in ("node-0", "node-1", "node-2")}
        for record in records:
            by_invoker[record.invoker] += 1
        counts = list(by_invoker.values())
        assert max(counts) - min(counts) <= 1

    def test_no_invokers_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            FaaSPlatform(env, [])

    def test_completions_cover_all_functions(self):
        env = Environment()
        invokers = build(env)
        scenario = uniform_burst(4, 10, np.random.default_rng(1))
        platform = FaaSPlatform(env, invokers)
        records = platform.run_scenario(scenario)
        assert {r.function_name for r in records} == {
            s.name for s in sebs_catalog()
        }


class ScriptedInvoker:
    """A node that answers its k-th attempt ``delay`` seconds after the
    submit, with outcome ``outcome``, for ``script[k] = (delay, outcome)``.
    Every node timestamp of the answer equals the answer time."""

    name = "scripted"

    def __init__(self, env, script):
        self.env = env
        self.script = list(script)
        #: Simulated time of every submit, in order.
        self.submits = []

    def submit(self, request, fault=None):
        assert fault is None  # no attempt hazards in these specs
        received_at = self.env.now
        self.submits.append(received_at)
        done = Event(self.env)
        delay, outcome = self.script.pop(0)

        def answer(_timeout):
            now = self.env.now
            done.succeed(
                NodeCallInfo(
                    request=request,
                    invoker=self.name,
                    received_at=received_at,
                    dispatched_at=now,
                    exec_start=now,
                    exec_end=now,
                    finished_at=now,
                    start_kind="hot",
                    outcome=outcome,
                )
            )

        self.env.timeout(delay).callbacks.append(answer)
        return done


def run_one_call(script, **failures):
    """One call released at t=1 through the retrying client; request leg
    0.1 s, response leg 0.2 s.  Returns ``(record, submit times)``."""
    env = Environment()
    invoker = ScriptedInvoker(env, script)
    platform = FaaSPlatform(
        env,
        [invoker],
        balancer=RoundRobinBalancer([invoker]),
        network=NetworkModel(request_latency_s=0.1, response_latency_s=0.2),
        failures=FailureSpec(**failures),
        failure_rng=FailureRng(1),
    )
    request = Request(0, sebs_catalog()[0], 1.0, 1.0)
    [record] = platform.run_scenario(BurstScenario([request]))
    return record, invoker.submits


class TestRetryingClient:
    def test_answer_before_timeout_is_one_attempt(self):
        record, submits = run_one_call([(0.5, "ok")], timeout_s=2.0)
        assert record.attempts == 1
        assert record.outcome == "ok"
        assert submits == [pytest.approx(1.1)]
        # Answered at 1.6, plus the 0.2 s response leg.
        assert record.exec_end == pytest.approx(1.6)
        assert record.completed_at == pytest.approx(1.8)

    def test_late_response_during_backoff_is_discarded(self):
        # Attempt 1 (submitted at 1.1) times out at 2.1; its answer lands
        # at 2.3, inside the backoff that ends at 2.6, and must not be
        # taken.  The retry reaches the node at 2.7 and answers at 3.0.
        record, submits = run_one_call(
            [(1.2, "ok"), (0.3, "ok")], timeout_s=1.0, backoff_base_s=0.5
        )
        assert submits == [pytest.approx(1.1), pytest.approx(2.7)]
        assert record.attempts == 2
        assert record.outcome == "ok"
        assert record.received_at == pytest.approx(2.7)
        assert record.exec_end == pytest.approx(3.0)
        assert record.completed_at == pytest.approx(3.2)

    def test_every_attempt_timed_out_gets_synthetic_record(self):
        # Both answers arrive long after the call gave up (at 3.7) and are
        # dropped; the run still yields exactly one record.
        record, submits = run_one_call(
            [(10.0, "ok"), (10.0, "ok")],
            timeout_s=1.0,
            max_attempts=2,
            backoff_base_s=0.5,
        )
        assert submits == [pytest.approx(1.1), pytest.approx(2.7)]
        assert record.outcome == "gave-up"
        assert record.attempts == 2
        assert record.invoker == ""
        assert record.start_kind == "none"
        assert not record.cold_start
        assert record.release_time == 1.0
        assert record.completed_at == pytest.approx(3.7)
        for stamp in (
            record.received_at,
            record.dispatched_at,
            record.exec_start,
            record.exec_end,
        ):
            assert stamp == record.completed_at

    def test_failed_final_attempt_keeps_its_node_timeline(self):
        record, submits = run_one_call(
            [(0.3, "node-crash"), (0.3, "node-crash")],
            max_attempts=2,
            backoff_base_s=0.5,
        )
        assert submits == [pytest.approx(1.1), pytest.approx(2.0)]
        assert record.outcome == "gave-up"
        assert record.attempts == 2
        assert record.invoker == "scripted"
        assert record.start_kind == "hot"
        assert record.received_at == pytest.approx(2.0)
        assert record.exec_end == pytest.approx(2.3)
        # Giving up is decided at the node's answer: no response leg.
        assert record.completed_at == pytest.approx(2.3)

    @pytest.mark.parametrize("base", [0.5, 0.0])
    def test_backoff_is_exponential_in_the_attempt_number(self, base):
        record, submits = run_one_call(
            [(0.1, "container-kill")] * 3 + [(0.1, "ok")],
            max_attempts=4,
            backoff_base_s=base,
            backoff_factor=3.0,
        )
        assert record.attempts == 4
        assert record.outcome == "ok"
        # Gap between submits: the node's 0.1 s answer, the backoff of
        # retry k (none at all for a zero base), and the 0.1 s request leg.
        gaps = [b - a for a, b in zip(submits, submits[1:])]
        assert gaps == [pytest.approx(0.2 + base * 3.0 ** (k - 1)) for k in (1, 2, 3)]

    @pytest.mark.parametrize("crash_inflight, first_gap", [("migrate", 0.2), ("fail", 0.45)])
    def test_migrated_crash_is_resent_at_once(self, crash_inflight, first_gap):
        record, submits = run_one_call(
            [(0.1, "node-crash"), (0.1, "container-kill"), (0.1, "ok")],
            crash_inflight=crash_inflight,
            backoff_base_s=0.25,
        )
        assert record.attempts == 3
        assert record.outcome == "ok"
        # A node crash skips the backoff only under "migrate"; the
        # container kill that follows backs off 0.25 * 2 ** 1 either way.
        gaps = [b - a for a, b in zip(submits, submits[1:])]
        assert gaps == [pytest.approx(first_gap), pytest.approx(0.7)]
