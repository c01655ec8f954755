"""Cancellable-calendar, bare-entry and reusable-timer semantics.

The calendar's tombstone mechanism is the foundation of the CPU bank's
wake-up scheme: a superseded wake-up must *never* fire, the heap must not
grow without bound under re-arming churn, and cancellation must be
invisible to live entries' ordering.  The per-call path waits on bare
entries (``Environment.call_later``), which must order exactly like the
event entries they replaced, and zero-delay entries wait in a lane beside
the heap (``Environment.call_soon``), which must order exactly like a
single heap.
"""

from heapq import heapify, heappop, heappush
from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


class OneHeap:
    """The calendar without its lane: every entry on one heap, with
    ``call_soon(fn, arg)`` meaning ``call_later(0.0, fn, arg)``, and the
    same tombstones, pruning and compaction rule as
    :class:`~repro.sim.core.Environment`."""

    def __init__(self):
        self.now = 0.0
        self.heap = []
        self.live = 0
        self._next_eid = count().__next__

    @property
    def scheduled_count(self):
        return self.live

    def call_later(self, delay, fn, arg=None, priority=NORMAL):
        entry = [self.now + delay, priority, self._next_eid(), fn, arg]
        heappush(self.heap, entry)
        self.live += 1
        return entry

    def call_soon(self, fn, arg=None):
        return self.call_later(0.0, fn, arg)

    def cancel_scheduled(self, entry):
        if entry[3] is None:
            return False
        entry[3] = None
        self.live -= 1
        dead = len(self.heap) - self.live
        if dead > _MIN_COMPACT and dead > self.live:
            self.heap = [e for e in self.heap if e[3] is not None]
            heapify(self.heap)
        return True

    def peek(self):
        while self.heap:
            if self.heap[0][3] is not None:
                return self.heap[0][0]
            heappop(self.heap)
        return float("inf")

    def step(self):
        while True:
            entry = heappop(self.heap)
            fn = entry[3]
            if fn is not None:
                break
        self.live -= 1
        entry[3] = None
        self.now = entry[0]
        fn(entry[4])

    def run(self, until):
        while self.live:
            if self.peek() > until:
                break
            self.step()
        self.now = until


def _stored(calendar):
    """Entries a calendar holds, live or tombstoned."""
    if isinstance(calendar, OneHeap):
        return len(calendar.heap)
    return len(calendar._queue) + len(calendar._lane)


#: Delays that tie often (0.0 most of all), plus arbitrary ones.
DELAYS = st.sampled_from([0.0, 0.0, 0.0, 0.5, 1.0]) | st.floats(0.0, 2.0)


def _ops(depth):
    """A calendar operation, and what a pushed entry does when it runs."""
    children = st.lists(_ops(depth - 1), max_size=3) if depth else st.just([])
    return st.one_of(
        st.tuples(st.just("later"), DELAYS, st.sampled_from([NORMAL, URGENT]), children),
        st.tuples(st.just("soon"), st.just(0.0), st.just(NORMAL), children),
        st.tuples(st.just("cancel"), st.integers(0, 200), st.just(0), st.just([])),
        # Push entries and cancel them at once: tombstones for compaction.
        st.tuples(st.just("churn"), st.integers(1, 90), st.booleans(), st.just([])),
    )


PROGRAMS = st.lists(
    _ops(2) | st.tuples(st.just("step")) | st.tuples(st.just("until"), DELAYS),
    max_size=40,
)


def _execute(calendar, program):
    """Run *program* on *calendar*; returns what must not depend on the
    lane: the ``(time, label, scheduled_count)`` of every processed entry,
    the ``(scheduled_count, stored entries)`` after every operation, and
    the next sequence number."""
    handles, trace, states = [], [], []

    def push(kind, delay, priority, children):
        label = len(handles)

        def fire(_arg):
            trace.append((calendar.now, label, calendar.scheduled_count))
            for child in children:
                apply(child)

        if kind == "soon":
            handles.append(calendar.call_soon(fire))
        else:
            handles.append(calendar.call_later(delay, fire, None, priority))

    def cancel(entry):
        calendar.cancel_scheduled(entry)
        # Compaction keeps tombstones from outnumbering live entries.
        dead = _stored(calendar) - calendar.scheduled_count
        assert dead <= _MIN_COMPACT or dead <= calendar.scheduled_count

    def apply(op):
        kind, a, b, children = op
        if kind in ("later", "soon"):
            push(kind, a, b, children)
        elif kind == "cancel":
            if handles:
                cancel(handles[a % len(handles)])
        else:  # churn: a entries, in the lane when b
            for i in range(a):
                push("soon" if b else "later", float(i % 3), NORMAL, [])
                cancel(handles[-1])
        states.append((calendar.scheduled_count, _stored(calendar)))

    for op in program:
        if op[0] == "step":
            if calendar.scheduled_count:
                calendar.step()
        elif op[0] == "until":
            calendar.run(until=calendar.now + op[1])
        else:
            apply(op)
        states.append((calendar.scheduled_count, _stored(calendar)))
    calendar.run(until=calendar.now + 100.0)
    return trace, states, calendar._next_eid()


class TestZeroDelayLane:
    """``call_soon`` entries run in the order, and with the sequence
    numbers, they would have on a single heap."""

    @given(PROGRAMS)
    @settings(max_examples=300, deadline=None)
    def test_lane_keeps_the_single_heap_order(self, program):
        reference = OneHeap()
        expected = _execute(reference, program)
        assert _execute(Environment(), program) == expected

    def test_lane_entry_key_is_call_later_zero(self):
        env = Environment()
        env.call_later(1.5, _noop)
        env.step()
        soon = env.call_soon(_noop, "arg")
        later = env.call_later(0.0, _noop, "arg")
        assert soon == [1.5, NORMAL, 1, _noop, "arg"]
        assert later[:2] == soon[:2] and later[2] == soon[2] + 1
        assert env.scheduled_count == 2
        assert list(env._lane) == [soon] and env._queue == [later]

    def test_urgent_zero_delay_entry_runs_before_the_lane(self):
        env = Environment()
        order = []
        env.call_soon(order.append, "lane")
        env.call_later(0.0, order.append, "urgent", URGENT)
        env.call_later(0.0, order.append, "heap")
        env.run()
        assert order == ["urgent", "lane", "heap"]

    def test_cancelled_lane_entry_never_runs_and_is_compacted(self):
        env = Environment()
        fired = []
        kept = env.call_soon(fired.append, "kept")
        for _ in range(3 * _MIN_COMPACT):
            assert env.cancel_scheduled(env.call_soon(fired.append, "dropped"))
        assert env.scheduled_count == 1
        assert len(env._lane) <= _MIN_COMPACT + 1
        assert env.peek() == 0.0
        env.run()
        assert fired == ["kept"]
        assert kept[3] is None
        assert env.cancel_scheduled(kept) is False


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
