"""Property-based tests on DES kernel invariants."""


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, SharedCPU


class TestEventOrdering:
    @given(st.lists(st.floats(min_value=0, max_value=1e4), min_size=1, max_size=100))
    @settings(max_examples=100)
    def test_callbacks_fire_in_nondecreasing_time_order(self, delays):
        env = Environment()
        fired = []
        for delay in delays:
            t = env.timeout(delay, value=delay)
            t.callbacks.append(lambda ev: fired.append(env.now))
        env.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @given(st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=50))
    @settings(max_examples=50)
    def test_clock_never_goes_backwards(self, delays):
        env = Environment()
        observed = []

        def proc(env, delay):
            yield env.timeout(delay)
            observed.append(env.now)

        for delay in delays:
            env.process(proc(env, delay))
        env.run()
        assert observed == sorted(observed)


class TestCpuWorkConservation:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=5.0),   # start offset
                st.floats(min_value=0.001, max_value=4.0),  # work
            ),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_delivered_work_equals_submitted(self, specs):
        env = Environment()
        cpu = SharedCPU(env, cores=2)
        for start, work in specs:
            env.call_later(start, cpu.execute, work)
        env.run()
        total = sum(work for _, work in specs)
        assert cpu.delivered_work == pytest.approx(total, rel=1e-6, abs=1e-6)

    @given(
        st.lists(st.floats(min_value=0.01, max_value=3.0), min_size=1, max_size=15),
        st.integers(1, 4),
    )
    @settings(max_examples=50, deadline=None)
    def test_completion_no_earlier_than_dedicated_run(self, works, cores):
        # Sharing can only slow a task down, never speed it beyond 1 core.
        env = Environment()
        cpu = SharedCPU(env, cores=cores)
        finish = {}

        def finished(task):
            finish[int(task.label)] = env.now

        for idx, work in enumerate(works):
            cpu.execute(work, label=str(idx), then=finished)
        env.run()
        for idx, work in enumerate(works):
            assert finish[idx] >= work - 1e-9
