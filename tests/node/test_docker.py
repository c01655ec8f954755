"""Tests for the serialized docker-daemon model."""

from itertools import count
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.node.config import NodeConfig
from repro.node.docker import DockerDaemon, _Op
from repro.sim.core import Environment
from repro.sim.events import Timeout


@pytest.fixture
def setup():
    env = Environment()
    config = NodeConfig(cores=2, create_op_s=1.0, dispatch_op_s=0.5, pause_op_s=0.25,
                        remove_op_s=0.1)
    return env, DockerDaemon(env, config)


def at(env, delay, callback):
    """Call *callback* ``delay`` seconds from now."""
    Timeout(env, delay).callbacks.append(lambda _event: callback())


class TestDockerDaemon:
    def test_single_op_duration(self, setup):
        env, daemon = setup
        done = {}

        daemon.op("create", then=lambda: done.update(t=env.now))
        env.run()
        assert done["t"] == pytest.approx(1.0)
        assert daemon.op_counts["create"] == 1

    def test_ops_serialize(self, setup):
        env, daemon = setup
        finished = []

        for kind in ("create", "dispatch"):
            daemon.op(kind, then=lambda kind=kind: finished.append((kind, env.now)))
        env.run()
        # dispatch waits for the 1.0s create, then takes 0.5s.
        assert finished == [("create", pytest.approx(1.0)), ("dispatch", pytest.approx(1.5))]

    def test_priority_order(self, setup):
        env, daemon = setup
        finished = []

        def issue(kind, priority):
            daemon.op(kind, priority, lambda: finished.append(kind))

        # While the first create runs, a low-priority dispatch jumps ahead
        # of an earlier-enqueued high-priority one.
        issue("create", 0.0)
        at(env, 0.1, lambda: issue("pause", 100.0))
        at(env, 0.2, lambda: issue("dispatch", 1.0))
        env.run()
        assert finished == ["create", "dispatch", "pause"]

    def test_default_priority_is_enqueue_time(self, setup):
        env, daemon = setup
        finished = []

        for tag, delay in (("first", 0.0), ("second", 0.01), ("third", 0.02)):
            at(env, delay, lambda tag=tag: daemon.op("remove", then=lambda: finished.append(tag)))
        env.run()
        assert finished == ["first", "second", "third"]

    def test_unknown_op_rejected(self, setup):
        env, daemon = setup
        with pytest.raises(KeyError):
            daemon.duration_of("explode")

    def test_utilization_and_busy_seconds(self, setup):
        env, daemon = setup

        daemon.op("create", then=lambda: at(env, 1.0, lambda: None))  # idle gap
        env.run()
        assert daemon.busy_seconds == pytest.approx(1.0)
        assert daemon.utilization() == pytest.approx(0.5)

    def test_queue_length(self, setup):
        env, daemon = setup

        for _ in range(3):
            daemon.op("create")
        env.run(until=0.5)
        assert daemon.queue_length == 2


#: One operation: kind, arrival (in 1/8 s slots) and an explicit or
#: default priority.  Durations are multiples of 1/8 s too, so operations
#: often arrive at the very moment another one completes, and every sum
#: of durations is exact.
OP_STREAMS = st.lists(
    st.tuples(
        st.sampled_from(sorted(DockerDaemon.OP_FIELDS)),
        st.integers(0, 300),
        st.one_of(st.none(), st.integers(0, 3).map(float)),
    ),
    min_size=1,
    max_size=30,
)


class TestDaemonQueueProperties:
    @given(OP_STREAMS)
    @settings(max_examples=100, deadline=None)
    def test_serial_work_conserving_priority_order(self, stream):
        env = Environment()
        config = NodeConfig(
            cores=2, create_op_s=1.0, dispatch_op_s=0.5, pause_op_s=0.25, remove_op_s=0.125
        )
        daemon = DockerDaemon(env, config)
        # One counter orders arrivals and releases that share a moment.
        ticks = count()
        arrived, arrival_tick, key, start, start_tick, queued, end, release_tick = (
            {} for _ in range(8)
        )

        #: Each operation's ``then`` -> what its client records at start.
        starting = {}

        def client(i, kind, priority):
            arrived[i], arrival_tick[i] = env.now, next(ticks)
            key[i] = (env.now if priority is None else priority, arrival_tick[i])

            def on_start():
                start[i], start_tick[i] = env.now, next(ticks)
                queued[i] = daemon.queue_length

            def on_end():
                end[i], release_tick[i] = env.now, next(ticks)

            starting[on_end] = on_start
            daemon.op(kind, priority, on_end)

        serve = _Op.serve

        def observed_serve(op, slot):
            """Arm the operation's timeout, i.e. start its service."""
            serve(op, slot)
            starting[op.then]()

        for i, (kind, slot, priority) in enumerate(stream):
            at(env, slot / 8, lambda i=i, kind=kind, priority=priority: client(i, kind, priority))
        with patch.object(_Op, "serve", observed_serve):
            env.run()

        assert len(end) == len(stream) and daemon.queue_length == 0
        served = sorted(range(len(stream)), key=start.__getitem__)
        for i in served:
            assert end[i] == start[i] + daemon.duration_of(stream[i][0])
        for n, k in enumerate(served):
            later = served[n:]
            # The operations not yet served that had arrived when the
            # daemon last freed; none before the first operation.
            if n == 0:
                waiting = []
            else:
                before = served[n - 1]
                assert start[k] >= end[before]  # one operation at a time
                waiting = [i for i in later if arrival_tick[i] < release_tick[before]]
            if waiting:
                # Busy again at once, with the least (priority, arrival).
                assert start[k] == end[before]
                assert key[k] == min(key[i] for i in waiting)
            else:
                # Idle until the next arrival, which is served at once.
                assert arrival_tick[k] == min(arrival_tick[i] for i in later)
                assert start[k] == arrived[k]
            # Everything else that has arrived by now waits in the queue.
            assert queued[k] == sum(arrival_tick[i] < start_tick[k] for i in later[1:])
        # The counters total the stream.
        kinds = [kind for kind, _, _ in stream]
        assert daemon.op_counts == {kind: kinds.count(kind) for kind in DockerDaemon.OP_FIELDS}
        assert daemon.busy_seconds == sum(daemon.duration_of(kind) for kind in kinds)
