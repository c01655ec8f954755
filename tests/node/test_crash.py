"""Crash and recovery on a single node, for both node models.

A crash settles every queued and in-flight call at once with outcome
``"node-crash"``; an attempt already dispatched notices it at its next
crash check and frees its container there.  The two models check at
different steps (docs/FAILURES.md, "Node crashes"), and the last tests
pin where.
"""

from dataclasses import replace

import pytest

from repro.node.baseline import BaselineInvoker
from repro.node.invoker import Invoker

from tests.node.conftest import make_request

CRASH_AT = 0.5
#: After the in-flight one-second calls have ended, before recovery.
SETTLED_AT = 3.0
RECOVER_AT = 5.0

NODES = {
    "invoker-fifo": lambda env, config: Invoker(env, config, policy="FIFO"),
    "baseline": lambda env, config: BaselineInvoker(env, config),
}


@pytest.fixture(params=sorted(NODES))
def make_node(request):
    return NODES[request.param]


def submit(env, node, request, fired):
    """Submit *request* now; record ``(time, info)`` each time its
    ``done`` fires."""
    done = node.submit(request)
    done.callbacks.append(lambda event: fired.append((env.now, event.value)))
    return done


def busy_containers(node):
    return [c for c in node.pool.containers if c.busy]


class TestCrashSettlesEveryCall:
    @pytest.fixture
    def crashed(self, env, config, catalog, make_node):
        """A node with two warm containers filling its memory, four
        one-second calls (two in flight, two queued), crashed at
        ``CRASH_AT`` and recovered at ``RECOVER_AT``."""
        spec = catalog["graph-bfs"]
        config = replace(config, memory_mb=2 * spec.memory_mb, prewarm_stock=0)
        node = make_node(env, config)
        node.warm_up([spec])
        fired = []
        dones = [
            submit(env, node, make_request(catalog, rid=i, service=1.0), fired)
            for i in range(4)
        ]
        at_crash = {}

        def crash(_arg):
            at_crash.update(busy=node.busy_count, queued=node.queue_length)
            node.crash()

        env.call_later(CRASH_AT, crash)
        env.call_later(RECOVER_AT, lambda _arg: node.recover())
        return node, dones, fired, at_crash

    def test_every_done_fires_once_with_node_crash(self, env, crashed):
        node, dones, fired, at_crash = crashed
        env.run(until=SETTLED_AT)
        assert at_crash == {"busy": 2, "queued": 2}
        assert all(done.processed for done in dones)
        assert sorted(info.request.rid for _, info in fired) == [0, 1, 2, 3]
        for when, info in fired:
            assert when == CRASH_AT
            assert info.outcome == "node-crash"
            assert info.finished_at == CRASH_AT

    def test_counters(self, env, crashed):
        node = crashed[0]
        env.run(until=SETTLED_AT)
        assert node.node_crashes == 1
        assert node.crash_dropped == 4
        assert node.completed_count == node.submitted == 4
        assert node.outstanding == 0
        assert node.queue_length == 0
        assert not node.live

    def test_in_flight_attempts_free_their_containers(self, env, crashed):
        node = crashed[0]
        env.run(until=CRASH_AT)
        assert node.busy_count == 2 and len(busy_containers(node)) == 2
        env.run(until=SETTLED_AT)
        assert node.busy_count == 0
        assert busy_containers(node) == []

    def test_recovered_node_dispatches_later_calls(self, env, catalog, crashed):
        node, _, fired, _ = crashed
        env.run(until=RECOVER_AT + 1.0)
        assert node.live
        fired.clear()
        for i in range(4, 6):
            submit(env, node, make_request(catalog, rid=i, service=0.2), fired)
        env.run()
        assert sorted(info.request.rid for _, info in fired) == [4, 5]
        for _, info in fired:
            assert info.outcome == "ok"
            assert info.dispatched_at == RECOVER_AT + 1.0
        assert node.completed_count == node.submitted == 6
        assert node.outstanding == 0
        assert node.busy_count == 0 and busy_containers(node) == []


class TestCrashCheckPoints:
    """A crash while a call's cold container initialises: our invoker
    notices it when the container is placed, the baseline only at
    finish."""

    CRASH_AT = 0.25  # after the create op (0.2 s), within the init latency

    def run_cold_call(self, env, config, catalog, node_type):
        config = replace(config, cold_init_cpu_s=0.0, prewarm_stock=0)
        node = node_type(env, config)
        request = make_request(catalog, service=1.0)
        fired = []
        submit(env, node, request, fired)
        env.call_later(self.CRASH_AT, lambda _arg: node.crash())
        placed_at = config.create_op_s + config.cold_init_latency_s
        env.run(until=placed_at + 0.01)
        return node, request, fired, placed_at

    def test_our_invoker_releases_at_placement(self, env, config, catalog):
        node, _, fired, placed_at = self.run_cold_call(env, config, catalog, Invoker)
        assert [(when, info.outcome) for when, info in fired] == [(self.CRASH_AT, "node-crash")]
        (container,) = node.pool.containers
        assert node.busy_count == 0 and not container.busy
        assert container.last_used == placed_at
        env.run()
        assert node.cpu.delivered_work == 0.0

    def test_baseline_runs_the_call_on_the_crashed_node(self, env, config, catalog):
        node, request, fired, placed_at = self.run_cold_call(env, config, catalog, BaselineInvoker)
        assert [(when, info.outcome) for when, info in fired] == [(self.CRASH_AT, "node-crash")]
        (container,) = node.pool.containers
        assert node.busy_count == 1 and container.busy
        env.run()
        assert node.busy_count == 0 and not container.busy
        assert container.last_used > placed_at + request.io_time
        assert node.cpu.delivered_work == pytest.approx(request.cpu_work)
