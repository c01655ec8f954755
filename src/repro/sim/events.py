"""One-shot events and timeouts.

An event is what something waits on: its callback list runs from one
calendar entry, :func:`_process`, which a trigger puts in the calendar's
zero-delay lane (:meth:`~repro.sim.core.Environment.call_soon`).  The
per-call path waits on plain calendar entries instead
(:meth:`~repro.sim.core.Environment.call_later`); events are left for an
invoker's ``done`` handle, ``run(until=event)`` and the coroutine
processes of the cold path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, List, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.core import Environment

__all__ = ["Event", "Timeout", "PENDING"]

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
    triggered:
        True once :meth:`succeed` or :meth:`fail` has been called (a
        :class:`Timeout` is triggered from its creation).
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "defused", "triggered")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: Optional[bool] = None
        #: True if a failure has been marked as handled (will not crash the run).
        self.defused = False
        self.triggered = False

    # -- state ----------------------------------------------------------
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
        if self.triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        self.triggered = True
        self._ok = True
        self._value = value
        self.env.call_soon(_process, self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception and schedule it."""
        if self.triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self.triggered = True
        self._ok = False
        self._value = exception
        self.env.call_soon(_process, self)
        return self

    def __repr__(self) -> str:
        state = "processed" if self.processed else ("triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` seconds after creation."""

    __slots__ = ()

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self.defused = False
        self.triggered = True
        env.call_later(float(delay), _process, self)


def _process(event: Event) -> None:
    """Calendar function of a triggered event: run its callbacks, then let
    a failure nobody handled propagate out of the event loop."""
    # Snapshot the callback list: a callback may legitimately register new
    # callbacks on other events while running.
    callbacks, event.callbacks = event.callbacks, None
    for callback in callbacks:
        callback(event)
    if not event._ok and not event.defused:
        raise event._value
