"""One-shot events and timeouts."""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, List, Optional

from repro.sim.core import NORMAL, URGENT

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.core import Environment

__all__ = ["Event", "Timeout", "PENDING", "urgent"]

#: Sentinel for "event not yet triggered".
PENDING = object()


class Event:
    """A one-shot event.

    Lifecycle: *pending* → (``succeed``/``fail``) *triggered* → *processed*
    (once its callbacks have run from the calendar).

    Attributes
    ----------
    callbacks:
        List of callables invoked with the event when it is processed;
        ``None`` once processed.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: Optional[bool] = None
        #: True if a failure has been marked as handled (will not crash the run).
        self.defused = False

    # -- state ----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once :meth:`succeed` or :meth:`fail` has been called."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have been run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only meaningful once triggered."""
        return bool(self._ok)

    @property
    def value(self) -> Any:
        """The event's value (or exception, if failed)."""
        if self._value is PENDING:
            raise AttributeError(f"value of {self!r} is not yet available")
        return self._value

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with *value* and schedule it."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        # Inlined ``env.schedule(self)``: the hottest push of the kernel.
        env = self.env
        heappush(env._queue, [env._now, NORMAL, env._next_eid(), self])
        env._live += 1
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception and schedule it."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self

    def __repr__(self) -> str:
        state = "processed" if self.processed else ("triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` seconds after creation."""

    __slots__ = ()

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self.defused = False
        delay = float(delay)
        # Inlined ``env.schedule(self, delay)`` (same entry, same sequence
        # counter): one Timeout per simulated delay makes this a hot path.
        heappush(env._queue, [env._now + delay, NORMAL, env._next_eid(), self])
        env._live += 1


def urgent(env: "Environment", callback: Callable[[Event], None]) -> None:
    """Run *callback* from a zero-delay ``URGENT`` calendar entry: after
    the callbacks running now, before any ``NORMAL`` entry at this time.
    This is the entry that starts a process, without the process."""
    event = Event(env)
    event._ok = True
    event._value = None
    event.callbacks.append(callback)
    heappush(env._queue, [env._now, URGENT, env._next_eid(), event])
    env._live += 1
