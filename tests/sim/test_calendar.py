"""Cancellable-calendar, bare-entry and reusable-timer semantics.

The calendar's tombstone mechanism is the foundation of the CPU bank's
wake-up scheme: a superseded wake-up must *never* fire, the heap must not
grow without bound under re-arming churn, and cancellation must be
invisible to live entries' ordering.  The per-call path waits on bare
entries (``Environment.call_later``), which must order exactly like the
event entries they replaced.
"""

import pytest

from repro.sim import Environment, SimulationError
from repro.sim.core import _MIN_COMPACT, NORMAL, URGENT


class TestCancelScheduled:
    def test_cancelled_entry_never_fires(self):
        env = Environment()
        fired = []
        entry = env.call_later(5.0, lambda _: fired.append(env.now))
        assert env.cancel_scheduled(entry) is True
        assert entry[3] is None  # the tombstone
        env.call_later(10.0, _noop)
        env.run()
        assert fired == []
        assert env.now == 10.0

    def test_cancel_is_idempotent_and_reports(self):
        env = Environment()
        entry = env.call_later(1.0, _noop)
        assert env.cancel_scheduled(entry) is True
        assert env.cancel_scheduled(entry) is False

    def test_cancel_after_fire_reports_false(self):
        env = Environment()
        entry = env.call_later(1.0, _noop)
        env.run()
        assert env.cancel_scheduled(entry) is False

    def test_live_count_tracks_cancellations(self):
        env = Environment()
        entries = [env.call_later(float(i), _noop) for i in range(10)]
        assert env.scheduled_count == 10
        for entry in entries[:4]:
            env.cancel_scheduled(entry)
        assert env.scheduled_count == 6

    def test_peek_skips_tombstones(self):
        env = Environment()
        first = env.call_later(1.0, _noop)
        env.call_later(2.0, _noop)
        env.cancel_scheduled(first)
        assert env.peek() == 2.0

    def test_run_terminates_with_only_tombstones(self):
        env = Environment()
        entry = env.call_later(1.0, _noop)
        env.cancel_scheduled(entry)
        env.run()  # must not spin or raise
        assert env.now == 0.0

    def test_step_with_only_tombstones_raises(self):
        env = Environment()
        entry = env.call_later(1.0, _noop)
        env.cancel_scheduled(entry)
        with pytest.raises(SimulationError):
            env.step()

    def test_compaction_bounds_heap_growth(self):
        env = Environment()
        # Cancel-and-re-arm far beyond the compaction threshold; the heap
        # must stay O(live), not O(total arms).
        for i in range(20 * _MIN_COMPACT):
            entry = env.call_later(1.0, _noop)
            env.cancel_scheduled(entry)
        assert env.scheduled_count == 0
        assert len(env._queue) <= 2 * _MIN_COMPACT + 2

    def test_cancellation_preserves_fifo_of_survivors(self):
        env = Environment()
        order = []
        entries = [env.call_later(1.0, order.append, tag) for tag in range(6)]
        env.cancel_scheduled(entries[1])
        env.cancel_scheduled(entries[4])
        env.run()
        assert order == [0, 2, 3, 5]


class TestBareEntries:
    """Entries that hold their callback: ``[time, priority, seq, fn, arg]``
    processed as ``fn(arg)``, side by side with event entries."""

    def test_bare_and_event_entries_run_in_sequence_order(self):
        env = Environment()
        order = []
        env.call_later(0.0, order.append, "bare-0")
        event = env.event()
        event.callbacks.append(lambda ev: order.append(ev.value))
        event.succeed("event")
        env.call_later(1.0, order.append, "bare-1")
        env.timeout(1.0, value="timeout").callbacks.append(lambda ev: order.append(ev.value))
        env.call_later(0.0, order.append, "bare-2")
        env.call_later(1.0, order.append, "bare-3")
        env.run()
        assert order == ["bare-0", "event", "bare-2", "bare-1", "timeout", "bare-3"]

    def test_urgent_entries_run_before_normal_ones(self):
        env = Environment()
        order = []

        def first(_):
            order.append("normal-1")
            # Pushed while normal-2 waits at the same time: runs before it.
            env.call_later(0.0, order.append, "urgent-2", URGENT)

        env.call_later(1.0, first)
        env.call_later(1.0, order.append, "normal-2")
        env.call_later(1.0, order.append, "urgent-1", URGENT)
        env.call_later(0.5, order.append, "normal-0", NORMAL)
        env.run()
        assert order == ["normal-0", "urgent-1", "normal-1", "urgent-2", "normal-2"]

    def test_cancel_tombstones_a_bare_entry(self):
        env = Environment()
        fired = []
        kept = env.call_later(1.0, fired.append, "kept")
        dropped = env.call_later(1.0, fired.append, "dropped")
        assert env.cancel_scheduled(dropped) is True
        assert dropped[3] is None and kept[3] is not None
        assert env.scheduled_count == 1
        env.run()
        assert fired == ["kept"]
        assert kept[3] is None  # processed entries are neutralized too

    def test_negative_delay_raises(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.call_later(-1e-9, _noop)
        assert env.scheduled_count == 0
        assert env._queue == []

    def test_bare_callback_exception_propagates(self):
        env = Environment()

        def boom(_):
            raise RuntimeError("from a bare entry")

        env.call_later(1.0, boom)
        env.call_later(2.0, _noop)
        with pytest.raises(RuntimeError, match="from a bare entry"):
            env.run()
        assert env.now == 1.0
        assert env.scheduled_count == 1

    def test_unhandled_event_failure_propagates(self):
        env = Environment()
        event = env.event()
        env.call_later(1.0, lambda _: event.fail(ValueError("unhandled")))
        with pytest.raises(ValueError, match="unhandled"):
            env.run()
        assert env.now == 1.0

    def test_run_until_event_stops_with_bare_entries_pending(self):
        env = Environment()
        stop = env.event()
        fired = []
        env.call_later(1.0, lambda _: stop.succeed("stopped"))
        env.call_later(2.0, fired.append, "later")
        assert env.run(until=stop) == "stopped"
        assert env.now == 1.0
        assert fired == []
        assert env.scheduled_count == 1
        env.run()
        assert fired == ["later"]


class TestReusableTimer:
    def test_fires_at_armed_time(self):
        env = Environment()
        fired = []
        timer = env.timer(lambda: fired.append(env.now))
        timer.arm(3.0)
        env.run()
        assert fired == [3.0]
        assert not timer.armed

    def test_rearm_supersedes_previous(self):
        env = Environment()
        fired = []
        timer = env.timer(lambda: fired.append(env.now))
        timer.arm(3.0)
        timer.arm(7.0)  # the 3.0 firing is tombstoned, never happens
        env.run()
        assert fired == [7.0]

    def test_cancel_prevents_firing(self):
        env = Environment()
        fired = []
        timer = env.timer(lambda: fired.append(env.now))
        timer.arm(3.0)
        timer.cancel()
        assert not timer.armed
        env.run()
        assert fired == []

    def test_timer_reusable_across_many_cycles(self):
        env = Environment()
        fired = []
        timer = env.timer(lambda: fired.append(env.now))

        def driver(env):
            for _ in range(5):
                timer.arm(0.5)  # supersedes the 2.0 arm below each round
                yield env.timeout(1.0)

        timer.arm(2.0)
        env.process(driver(env))
        env.run()
        assert fired == [0.5, 1.5, 2.5, 3.5, 4.5]

    def test_rearm_from_within_callback(self):
        env = Environment()
        fired = []

        def on_fire():
            fired.append(env.now)
            if len(fired) < 3:
                timer.arm(1.0)

        timer = env.timer(on_fire)
        timer.arm(1.0)
        env.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_refused_arm_keeps_the_armed_firing(self):
        env = Environment()
        fired = []
        timer = env.timer(lambda: fired.append(env.now))
        timer.arm(5.0)
        with pytest.raises(SimulationError):
            timer.arm(-1.0)
        assert timer.armed
        assert env.scheduled_count == 1
        env.run()
        assert fired == [5.0]

    def test_armed_property(self):
        env = Environment()
        timer = env.timer(lambda: None)
        assert not timer.armed
        timer.arm(1.0)
        assert timer.armed
        env.run()
        assert not timer.armed


def _noop(_arg):
    pass
