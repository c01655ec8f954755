"""Tests for our invoker (priority queue + CPU-based container management)."""

import pytest

from repro.node.config import NodeConfig
from repro.node.invoker import Invoker
from repro.sim.cpu import DedicatedCPU, SharedCPU
from repro.workload.functions import sebs_catalog

from tests.node.conftest import make_request


def submit_all(env, invoker, requests):
    """Submit requests at their release times; return the list of infos."""
    infos = []

    def client(env, request):
        if request.release_time > env.now:
            yield env.timeout(request.release_time - env.now)
        info = yield invoker.submit(request)
        infos.append(info)

    for request in requests:
        env.process(client(env, request))
    return infos


class TestBasicExecution:
    def test_single_call_completes(self, env, config, catalog):
        invoker = Invoker(env, config, policy="FIFO")
        invoker.warm_up(sebs_catalog())
        infos = submit_all(env, invoker, [make_request(catalog, service=0.5)])
        env.run()
        assert len(infos) == 1
        info = infos[0]
        assert info.exec_end > info.exec_start
        assert info.finished_at >= info.exec_end
        assert info.start_kind == "warm"

    def test_all_calls_complete_conservation(self, env, config, catalog):
        invoker = Invoker(env, config, policy="SEPT")
        invoker.warm_up(sebs_catalog())
        requests = [
            make_request(catalog, name=n, rid=i, release=i * 0.01)
            for i, n in enumerate(
                ["graph-bfs", "sleep", "dna-visualisation", "uploader"] * 5
            )
        ]
        infos = submit_all(env, invoker, requests)
        env.run()
        assert len(infos) == len(requests)
        assert invoker.outstanding == 0
        assert {i.request.rid for i in infos} == {r.rid for r in requests}

    def test_busy_limit_respected(self, env, config, catalog):
        invoker = Invoker(env, config, policy="FIFO")  # 2 cores
        invoker.warm_up(sebs_catalog())
        requests = [
            make_request(catalog, name="sleep", rid=i, service=1.0) for i in range(6)
        ]
        submit_all(env, invoker, requests)
        max_seen = 0

        def monitor(env):
            nonlocal max_seen
            while True:
                max_seen = max(max_seen, invoker.busy_count)
                yield env.timeout(0.05)

        env.process(monitor(env))
        env.run(until=10.0)
        assert max_seen <= config.effective_busy_limit == 2

    def test_cpu_never_oversubscribed(self, env, config, catalog):
        invoker = Invoker(env, config, policy="FIFO")
        invoker.warm_up(sebs_catalog())
        requests = [
            make_request(catalog, name="graph-bfs", rid=i, service=0.2)
            for i in range(20)
        ]
        submit_all(env, invoker, requests)
        env.run()
        # 1-core tasks, busy <= cores: the bank never holds more tasks than
        # cores (the paper's no-preemption guarantee).
        assert invoker.cpu.peak_tasks <= config.cores

    def test_default_invoker_gets_dedicated_cores(self, env, config):
        # The dedicated bank raises on a task beyond ``cores``, so the
        # no-oversubscription guarantee is checked on every submission.
        assert isinstance(Invoker(env, config).cpu, DedicatedCPU)
        at_cores = NodeConfig(cores=config.cores, busy_limit=config.cores)
        assert isinstance(Invoker(env, at_cores).cpu, DedicatedCPU)

    def test_cold_start_when_not_warmed(self, env, config, catalog):
        invoker = Invoker(env, config, policy="FIFO")  # no warm_up
        infos = submit_all(env, invoker, [make_request(catalog)])
        env.run()
        assert infos[0].start_kind in ("cold", "prewarm")
        assert infos[0].cold_start

    def test_zero_cold_starts_after_warmup(self, env, config, catalog):
        # Needs a pool that holds the full warm working set
        # (2 cores x 11 functions ~ 5.8 GiB).
        config = NodeConfig(cores=2, memory_mb=8192, invoker_overhead_s=0.0)
        invoker = Invoker(env, config, policy="FIFO")
        invoker.warm_up(sebs_catalog())
        requests = [
            make_request(catalog, name=spec.name, rid=i)
            for i, spec in enumerate(sebs_catalog())
        ]
        submit_all(env, invoker, requests)
        env.run()
        assert invoker.pool.cold_starts == 0


class TestSchedulingOrder:
    def _queued_burst(self, env, config, catalog, policy):
        """All requests arrive while the node is plugged by long calls."""
        invoker = Invoker(env, config, policy=policy)
        invoker.warm_up(sebs_catalog())
        # Two pluggers occupy both cores; then shorts and longs queue.
        pluggers = [
            make_request(catalog, name="sleep", rid=90 + i, release=0.0, service=3.0)
            for i in range(2)
        ]
        queued = [
            make_request(catalog, "dna-visualisation", rid=0, release=0.1, service=8.0),
            make_request(catalog, "dna-visualisation", rid=1, release=0.15, service=8.0),
            make_request(catalog, "graph-bfs", rid=2, release=0.2, service=0.01),
            make_request(catalog, "graph-bfs", rid=3, release=0.25, service=0.01),
        ]
        infos = submit_all(env, invoker, pluggers + queued)
        env.run()
        order = [i.request.rid for i in sorted(infos, key=lambda x: x.dispatched_at)
                 if i.request.rid < 90]
        return order

    def test_fifo_serves_in_arrival_order(self, env, config, catalog):
        assert self._queued_burst(env, config, catalog, "FIFO") == [0, 1, 2, 3]

    def test_sept_serves_short_first(self, env, config, catalog):
        order = self._queued_burst(env, config, catalog, "SEPT")
        assert order[:2] == [2, 3]  # graph-bfs jumps dna-visualisation

    def test_fc_repeat_long_call_deprioritised(self, env, config, catalog):
        # FC gives any function's FIRST call priority 0 (no recent
        # consumption), so dna #0 may go early — but the SECOND dna call
        # already carries its 8.5 s consumption and must fall behind both
        # graph-bfs calls.
        order = self._queued_burst(env, config, catalog, "FC")
        assert order[-1] == 1
        assert order.index(2) < order.index(1)
        assert order.index(3) < order.index(1)

    def test_estimator_learns_during_run(self, env, config, catalog):
        invoker = Invoker(env, config, policy="SEPT")
        est = invoker.policy.estimator
        assert est.expected_processing_time("graph-bfs") == 0.0
        submit_all(env, invoker, [make_request(catalog, service=0.25)])
        env.run()
        assert est.expected_processing_time("graph-bfs") == pytest.approx(0.25, abs=0.05)


class TestNodeCallInfo:
    def test_timeline_monotone(self, env, config, catalog):
        invoker = Invoker(env, config, policy="FIFO")
        invoker.warm_up(sebs_catalog())
        infos = submit_all(env, invoker, [make_request(catalog, service=0.3)])
        env.run()
        info = infos[0]
        assert (
            info.received_at
            <= info.dispatched_at
            <= info.exec_start
            <= info.exec_end
            <= info.finished_at
        )

    def test_processing_time_close_to_service(self, env, config, catalog):
        invoker = Invoker(env, config, policy="FIFO")
        invoker.warm_up(sebs_catalog())
        infos = submit_all(env, invoker, [make_request(catalog, service=0.4)])
        env.run()
        # Uncontended, the node-measured processing time equals the service
        # time (the 1-core guarantee).
        assert infos[0].processing_time == pytest.approx(0.4, abs=1e-6)

    def test_wait_time(self, env, config, catalog):
        invoker = Invoker(env, config, policy="FIFO")
        invoker.warm_up(sebs_catalog())
        requests = [
            make_request(catalog, name="sleep", rid=i, service=1.0) for i in range(4)
        ]
        infos = submit_all(env, invoker, requests)
        env.run()
        waits = sorted(i.wait_time for i in infos)
        assert waits[0] == pytest.approx(0.0, abs=1e-6)
        assert waits[-1] > 0.5  # 3rd/4th call waited for a slot


class TestBusyLimitAblation:
    def test_higher_busy_limit_allows_oversubscription(self, env, catalog):
        config = NodeConfig(
            cores=2, memory_mb=4096, busy_limit=8,
            dispatch_op_s=0.0, create_op_s=0.0, invoker_overhead_s=0.0,
            system_cpu_coeff_s=0.0, pause_grace_s=0.5,
        )
        invoker = Invoker(env, config, policy="FIFO")
        assert isinstance(invoker.cpu, SharedCPU)
        invoker.warm_up(sebs_catalog())
        requests = [
            make_request(catalog, name="graph-bfs", rid=i, service=1.0)
            for i in range(8)
        ]
        submit_all(env, invoker, requests)
        env.run()
        assert invoker.cpu.peak_tasks > config.cores  # OS-level preemption back
