"""Event calendar and simulation clock.

The :class:`Environment` owns a binary-heap calendar of ``[time, priority,
sequence, fn, arg]`` entries; processing an entry calls ``fn(arg)``.
Entries with equal time and priority are popped in insertion order (FIFO),
which makes simulations fully deterministic for a fixed seed.

:meth:`Environment.call_later` pushes such an entry after a delay, and the
per-call path waits on nothing else: the client's legs, each attempt's
steps, the docker daemon, the container pool's timers and the CPU banks'
completions hold their callback in the entry itself.

A zero-delay ``NORMAL`` entry (:meth:`Environment.call_soon`: an event's
trigger, a CPU bank's completion, the daemon's slot grant) goes to a FIFO
lane beside the heap instead.  Its key is the one ``call_later(0.0, ...)``
would build, and the lane is sorted by construction: its entries carry the
clock's time at their push, which never falls, one priority, and sequence
numbers from the heap's counter, which rise in push order.
:meth:`Environment.step` takes the lane's head when it is below the heap's
top (the comparison ``heapq`` makes), so entries run in exactly the order,
and with exactly the sequence numbers, of a single heap.  A one-shot
:class:`~repro.sim.events.Event` is an entry whose function runs the
event's callback list; it is left only where something waits on an
outcome (an invoker's ``done`` handle, ``run(until=event)``, and the
coroutine processes of the cold path).

Calendar entries are *cancellable*: :meth:`Environment.cancel_scheduled`
turns an entry into a lazy tombstone (``fn`` set to ``None``) — it stays in
the heap or the lane but is skipped (never processed) when it surfaces.  A
live-entry counter drives loop termination, and the calendar is compacted
(tombstones filtered out of both, the heap re-heapified) once dead entries
outnumber live ones, so a component that re-arms a timer on every state
change cannot grow the calendar without bound.

:class:`ReusableTimer` packages the common re-arming pattern: one object
whose ``arm``/``cancel`` cycle tombstones the superseded entry instead of
letting it fire inertly (see :class:`repro.sim.cpu.SharedCPU`).
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from itertools import count
from typing import Any, Callable, Deque, Generator, List, Optional

__all__ = [
    "Environment",
    "ReusableTimer",
    "SimulationError",
    "StopSimulation",
    "NORMAL",
    "URGENT",
]

#: Calendar priority for ordinary events.
NORMAL = 1
#: Calendar priority for events that must run before ordinary events
#: scheduled at the same timestamp (e.g. process resumption).
URGENT = 0

#: A calendar entry: ``[time, priority, sequence, fn, arg]``, processed as
#: ``fn(arg)``.  ``None`` for ``fn`` marks a processed or cancelled
#: (tombstoned) entry.
Entry = List[Any]

#: Compaction threshold: rebuild the heap once it holds more than this many
#: tombstones *and* tombstones outnumber live entries.
_MIN_COMPACT = 64


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel (e.g. double-trigger)."""


class StopSimulation(Exception):
    """Raised internally to halt :meth:`Environment.run` early."""

    def __init__(self, value: Any = None) -> None:
        super().__init__(value)
        self.value = value


class Environment:
    """A discrete-event simulation environment.

    Parameters
    ----------
    initial_time:
        Starting value of the simulation clock (seconds).

    Examples
    --------
    >>> env = Environment()
    >>> def proc(env):
    ...     yield env.timeout(5.0)
    ...     return "done"
    >>> p = env.process(proc(env))
    >>> env.run()
    >>> env.now
    5.0
    >>> p.value
    'done'
    """

    __slots__ = ("now", "_queue", "_lane", "_live", "_next_eid")

    def __init__(self, initial_time: float = 0.0) -> None:
        #: Current simulation time (seconds).  Set by :meth:`step` and
        #: :meth:`run`; read it, never assign it.
        self.now: float = float(initial_time)
        self._queue: List[Entry] = []
        #: Zero-delay ``NORMAL`` entries, in push order (see :meth:`call_soon`).
        self._lane: Deque[Entry] = deque()
        self._live: int = 0
        self._next_eid = count().__next__

    # ------------------------------------------------------------------
    # Clock & calendar
    # ------------------------------------------------------------------
    def call_later(
        self, delay: float, fn: Callable[[Any], None], arg: Any = None, priority: int = NORMAL
    ) -> Entry:
        """Call ``fn(arg)`` from a calendar entry ``delay`` seconds from now.

        Returns the entry — an opaque handle accepted by
        :meth:`cancel_scheduled`.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay!r})")
        entry: Entry = [self.now + delay, priority, self._next_eid(), fn, arg]
        heappush(self._queue, entry)
        self._live += 1
        return entry

    def call_soon(self, fn: Callable[[Any], None], arg: Any = None) -> Entry:
        """``call_later(0.0, fn, arg)`` through the zero-delay lane: the
        same entry and sequence number, appended in O(1) instead of pushed
        on the heap.  Returns the entry, as :meth:`call_later` does."""
        entry: Entry = [self.now, NORMAL, self._next_eid(), fn, arg]
        self._lane.append(entry)
        self._live += 1
        return entry

    def cancel_scheduled(self, entry: Entry) -> bool:
        """Tombstone a calendar *entry* returned by :meth:`call_later` or
        :meth:`call_soon`.

        Its function will never be called.  Returns ``False`` if the entry
        already ran or was already cancelled.  O(1) amortised: the dead
        entry is skipped when popped, and the calendar is compacted once
        dead entries outnumber live ones.
        """
        if entry[3] is None:
            return False
        entry[3] = None
        self._live -= 1
        dead = len(self._queue) + len(self._lane) - self._live
        if dead > _MIN_COMPACT and dead > self._live:
            self._compact()
        return True

    def _compact(self) -> None:
        """Drop tombstones and restore the heap invariant (O(live))."""
        self._queue = [entry for entry in self._queue if entry[3] is not None]
        heapify(self._queue)
        self._lane = deque(entry for entry in self._lane if entry[3] is not None)

    @property
    def scheduled_count(self) -> int:
        """Number of live (non-cancelled) calendar entries, heap and lane."""
        return self._live

    def peek(self) -> float:
        """Time of the next live event, or ``inf`` if the calendar is empty.

        Tombstones that come first in the calendar's order are pruned as a
        side effect (they carry no information), the same ones a single
        heap would prune.
        """
        queue, lane = self._queue, self._lane
        while True:
            if lane and (not queue or lane[0] < queue[0]):
                if lane[0][3] is not None:
                    return lane[0][0]
                lane.popleft()
            elif queue:
                if queue[0][3] is not None:
                    return queue[0][0]
                heappop(queue)
            else:
                return float("inf")

    def step(self) -> None:
        """Process the next live calendar entry: the lane's head when it
        comes before the heap's top, else the heap's top.

        Raises
        ------
        SimulationError
            If no live entries remain.
        """
        queue, lane = self._queue, self._lane
        while True:
            if lane and (not queue or lane[0] < queue[0]):
                entry = lane.popleft()
            elif queue:
                entry = heappop(queue)
            else:
                raise SimulationError("no scheduled events")
            fn = entry[3]
            if fn is not None:
                break
        self._live -= 1
        # Neutralize the handle: a later cancel_scheduled() on this entry
        # must be a reported no-op, not a live-counter corruption.
        entry[3] = None
        self.now = entry[0]
        fn(entry[4])

    def run(self, until: "float | Event | None" = None) -> Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            ``None`` — run until the calendar drains;
            a number — run until the clock reaches that time;
            an :class:`~repro.sim.events.Event` — run until it is processed,
            and return its value (or raise its exception, if it failed).
        """
        stop_at: Optional[float] = None
        if until is None:
            pass
        elif isinstance(until, Event):
            if until.processed:
                if not until.ok:
                    raise until.value
                return until.value
            until.callbacks.append(_stop_simulation)
        else:
            stop_at = float(until)
            if stop_at < self.now:
                raise SimulationError(
                    f"until={stop_at!r} lies before the current time {self.now!r}"
                )

        # One entry per ``step()`` call: tracers count calendar entries by
        # wrapping the method, so bind it here rather than inlining it.
        step = self.step
        try:
            if stop_at is None:
                while self._live:
                    step()
            else:
                while self._live:
                    if self.peek() > stop_at:
                        self.now = stop_at
                        return None
                    step()
        except StopSimulation as stop:
            return stop.value
        if isinstance(until, Event) and not until.triggered:
            raise SimulationError("simulation ended before the awaited event triggered")
        if stop_at is not None:
            self.now = stop_at
        return None

    # ------------------------------------------------------------------
    # Factories
    # ------------------------------------------------------------------
    def event(self) -> "Event":
        """Create a fresh, untriggered :class:`~repro.sim.events.Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> "Timeout":
        """Create a :class:`~repro.sim.events.Timeout` firing after *delay*."""
        return Timeout(self, delay, value)

    def timer(self, callback: Callable[[], None]) -> "ReusableTimer":
        """Create a (disarmed) :class:`ReusableTimer` invoking *callback*."""
        return ReusableTimer(self, callback)

    def process(self, generator: Generator) -> "Process":
        """Start a new coroutine :class:`~repro.sim.process.Process`."""
        return Process(self, generator)


class ReusableTimer:
    """A re-armable calendar callback.

    One timer object serves an unbounded number of ``arm``/``fire`` cycles:
    re-arming tombstones the previous calendar entry (which therefore never
    fires) and pushes a fresh one whose function is the timer's own.
    """

    __slots__ = ("env", "_fn", "_entry")

    def __init__(self, env: Environment, callback: Callable[[], None]) -> None:
        self.env = env
        self._fn = callback
        self._entry: Optional[Entry] = None

    @property
    def armed(self) -> bool:
        """True while a live calendar entry will fire this timer."""
        entry = self._entry
        return entry is not None and entry[3] is not None

    def arm(self, delay: float, priority: int = NORMAL) -> None:
        """(Re)schedule the callback ``delay`` seconds from now, cancelling
        any previously armed firing.  A negative delay raises and leaves
        the armed firing in place."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay!r})")
        env = self.env
        entry = self._entry
        # Inlined ``env.cancel_scheduled`` and ``env.call_later``: the CPU
        # bank re-arms on every membership change.
        if entry is not None and entry[3] is not None:
            entry[3] = None
            live = env._live - 1
            env._live = live
            dead = len(env._queue) + len(env._lane) - live
            if dead > _MIN_COMPACT and dead > live:
                env._compact()
        entry = self._entry = [env.now + delay, priority, env._next_eid(), _fire, self]
        heappush(env._queue, entry)
        env._live += 1

    def cancel(self) -> None:
        """Disarm without firing (no-op if not armed)."""
        entry = self._entry
        if entry is not None and entry[3] is not None:
            self.env.cancel_scheduled(entry)
        self._entry = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "armed" if self.armed else "idle"
        return f"<ReusableTimer {state} at {id(self):#x}>"


def _fire(timer: ReusableTimer) -> None:
    """Calendar function of an armed :class:`ReusableTimer`."""
    timer._entry = None
    timer._fn()


def _stop_simulation(event: "Event") -> None:
    """Calendar callback used by :meth:`Environment.run(until=event)`:
    stop with the event's value, or raise the exception it failed with."""
    if not event.ok:
        raise event.value
    raise StopSimulation(event.value)


# Typing-only imports for annotations used above.
from repro.sim.events import Event, Timeout  # noqa: E402  (cycle-safe tail import)
from repro.sim.process import Process  # noqa: E402
