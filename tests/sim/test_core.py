"""Unit tests for the DES kernel: environment, events, processes."""

import pytest

from repro.sim import Environment, SimulationError


class TestEnvironment:
    def test_clock_starts_at_zero(self):
        env = Environment()
        assert env.now == 0.0

    def test_clock_custom_start(self):
        env = Environment(initial_time=12.5)
        assert env.now == 12.5

    def test_run_empty_calendar_is_noop(self):
        env = Environment()
        env.run()
        assert env.now == 0.0

    def test_run_until_time_advances_clock(self):
        env = Environment()
        env.timeout(100.0)
        env.run(until=40.0)
        assert env.now == 40.0

    def test_run_until_time_in_past_raises(self):
        env = Environment(initial_time=10.0)
        with pytest.raises(SimulationError):
            env.run(until=5.0)

    def test_negative_delay_raises(self):
        env = Environment()
        with pytest.raises((SimulationError, ValueError)):
            env.timeout(-1.0)

    def test_step_on_empty_calendar_raises(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.step()

    def test_peek_empty_is_inf(self):
        env = Environment()
        assert env.peek() == float("inf")

    def test_events_fire_in_time_order(self):
        env = Environment()
        order = []
        for delay in (5.0, 1.0, 3.0):
            t = env.timeout(delay, value=delay)
            t.callbacks.append(lambda ev: order.append(ev.value))
        env.run()
        assert order == [1.0, 3.0, 5.0]

    def test_simultaneous_events_fire_fifo(self):
        env = Environment()
        order = []
        for tag in range(5):
            t = env.timeout(1.0, value=tag)
            t.callbacks.append(lambda ev: order.append(ev.value))
        env.run()
        assert order == [0, 1, 2, 3, 4]


class TestEvent:
    def test_succeed_sets_value(self):
        env = Environment()
        ev = env.event()
        ev.succeed(17)
        assert ev.triggered and ev.ok and ev.value == 17

    def test_double_trigger_raises(self):
        env = Environment()
        ev = env.event()
        ev.succeed()
        with pytest.raises(RuntimeError):
            ev.succeed()
        with pytest.raises(RuntimeError):
            ev.fail(ValueError("x"))

    def test_value_before_trigger_raises(self):
        env = Environment()
        ev = env.event()
        with pytest.raises(AttributeError):
            _ = ev.value

    def test_fail_requires_exception(self):
        env = Environment()
        ev = env.event()
        with pytest.raises(TypeError):
            ev.fail("not an exception")

    def test_unhandled_failure_crashes_run(self):
        env = Environment()
        ev = env.event()
        ev.fail(ValueError("boom"))
        with pytest.raises(ValueError, match="boom"):
            env.run()

    def test_defused_failure_does_not_crash(self):
        env = Environment()
        ev = env.event()
        ev.fail(ValueError("boom"))
        ev.defused = True
        env.run()  # no raise

    def test_run_until_event_returns_value(self):
        env = Environment()
        t = env.timeout(2.0, value="payload")
        assert env.run(until=t) == "payload"
        assert env.now == 2.0

    def test_run_until_already_triggered_event(self):
        env = Environment()
        ev = env.event()
        ev.succeed("x")
        assert env.run(until=ev) == "x"

    def test_run_until_failed_event_raises(self):
        env = Environment()
        ev = env.event()
        ev.fail(ValueError("boom"))
        with pytest.raises(ValueError, match="boom"):
            env.run(until=ev)

    def test_run_until_processed_failed_event_raises(self):
        env = Environment()
        ev = env.event()
        ev.fail(ValueError("earlier"))
        ev.defused = True
        env.run()
        assert ev.processed
        with pytest.raises(ValueError, match="earlier"):
            env.run(until=ev)

    def test_run_until_event_never_triggering_raises(self):
        env = Environment()
        ev = env.event()  # never triggered
        env.timeout(1.0)
        with pytest.raises(SimulationError):
            env.run(until=ev)


class TestProcess:
    def test_return_value(self):
        env = Environment()

        def proc(env):
            yield env.timeout(3.0)
            return 42

        p = env.process(proc(env))
        env.run()
        assert p.value == 42
        assert env.now == 3.0

    def test_sequential_timeouts_accumulate(self):
        env = Environment()
        times = []

        def proc(env):
            for _ in range(3):
                yield env.timeout(2.0)
                times.append(env.now)

        env.process(proc(env))
        env.run()
        assert times == [2.0, 4.0, 6.0]

    def test_process_waits_on_other_process(self):
        env = Environment()

        def child(env):
            yield env.timeout(5.0)
            return "child-result"

        def parent(env):
            result = yield env.process(child(env))
            return result

        p = env.process(parent(env))
        env.run()
        assert p.value == "child-result"

    def test_yield_non_event_raises_inside_process(self):
        env = Environment()

        def proc(env):
            try:
                yield 123
            except TypeError:
                return "caught"

        p = env.process(proc(env))
        env.run()
        assert p.value == "caught"

    def test_exception_in_process_propagates(self):
        env = Environment()

        def proc(env):
            yield env.timeout(1.0)
            raise RuntimeError("inner")

        env.process(proc(env))
        with pytest.raises(RuntimeError, match="inner"):
            env.run()

    def test_run_until_raising_process_raises(self):
        env = Environment()

        def proc(env):
            yield env.timeout(1.0)
            raise RuntimeError("inner")

        p = env.process(proc(env))
        with pytest.raises(RuntimeError, match="inner"):
            env.run(until=p)
        assert env.now == 1.0

    def test_exception_handled_by_waiting_parent(self):
        env = Environment()

        def child(env):
            yield env.timeout(1.0)
            raise ValueError("from-child")

        def parent(env):
            try:
                yield env.process(child(env))
            except ValueError as exc:
                return str(exc)

        p = env.process(parent(env))
        env.run()
        assert p.value == "from-child"

    def test_non_generator_rejected(self):
        env = Environment()
        with pytest.raises(TypeError):
            env.process(lambda: None)

    @staticmethod
    def _returns_at_once(env):
        return "settled"
        yield  # pragma: no cover - makes this a generator

    def test_unawaited_return_settles_in_place(self):
        env = Environment()
        p = env.process(self._returns_at_once(env))
        env.step()  # the start event
        assert p.processed and p.ok and p.value == "settled"
        assert env.scheduled_count == 0  # no end event nobody listens to

    def test_yield_on_settled_process_resumes_at_once(self):
        env = Environment()
        p = env.process(self._returns_at_once(env))

        def late(env):
            yield env.timeout(5.0)
            value = yield p
            return (env.now, value)

        waiter = env.process(late(env))
        env.run()
        assert waiter.value == (5.0, "settled")

    def test_run_until_and_conditions_on_settled_process(self):
        env = Environment()
        p = env.process(self._returns_at_once(env))
        env.run()
        assert env.run(until=p) == "settled"

    def test_unawaited_failure_is_still_scheduled(self):
        env = Environment()

        def fails_at_once(env):
            raise RuntimeError("unawaited")
            yield  # pragma: no cover - makes this a generator

        env.process(fails_at_once(env))
        env.step()  # the start event
        assert env.scheduled_count == 1
        with pytest.raises(RuntimeError, match="unawaited"):
            env.run()
