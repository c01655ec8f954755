"""Coroutine processes driven by the event calendar."""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

from repro.sim.core import URGENT
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.core import Environment

__all__ = ["Process"]


class Process(Event):
    """A simulation process wrapping a generator.

    The generator yields :class:`~repro.sim.events.Event` instances; the
    process resumes when the yielded event triggers, receiving its value (or
    having its exception thrown in).  The process itself is an event that
    triggers when the generator returns (value = return value) or raises.
    A return with no callback attached settles the process in place, without
    a calendar entry; a raise is always scheduled, so an exception nobody
    handles still propagates out of :meth:`Environment.run`.
    """

    __slots__ = ("_send", "_throw")

    def __init__(self, env: "Environment", generator: Generator) -> None:
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        # Bound once: the resume loop runs these on every event cycle.
        self._send = generator.send
        self._throw = generator.throw
        # Kick off the coroutine at the current time, before normal events.
        env.call_later(0.0, self._resume, None, URGENT)

    # ------------------------------------------------------------------
    def _resume(self, event: Optional[Event]) -> None:
        """Advance the generator with the outcome of *event* (``None``
        starts it)."""
        env = self.env
        send = self._send
        while True:
            try:
                if event is None:
                    next_target = send(None)
                elif event._ok:
                    next_target = send(event._value)
                else:
                    event.defused = True
                    next_target = self._throw(event._value)
            except StopIteration as stop:
                if self.callbacks:
                    self.succeed(stop.value)
                else:
                    # Nothing waits: an end event would run no callback.
                    self.triggered = True
                    self._ok = True
                    self._value = stop.value
                    self.callbacks = None
                return
            except BaseException as exc:
                self.fail(exc)
                return

            # Fast path: a pending event of this environment (the single
            # ``yield env.timeout(...)`` shape) — one isinstance, one env
            # check, one append.
            if isinstance(next_target, Event) and next_target.env is env:
                callbacks = next_target.callbacks
                if callbacks is not None:
                    callbacks.append(self._resume)
                    return
                # Already resolved: loop immediately with its outcome.
                event = next_target
                continue

            # Slow path: feed a descriptive error back into the generator so
            # user code sees a meaningful traceback at the faulty ``yield``.
            event = Event(env)
            event.triggered = True
            event._ok = False
            if not isinstance(next_target, Event):
                event._value = TypeError(f"process may only yield events, got {next_target!r}")
            else:
                event._value = ValueError("yielded event belongs to another environment")
            event.defused = True
