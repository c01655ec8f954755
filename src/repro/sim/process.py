"""Coroutine processes driven by the event calendar."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.sim.core import URGENT
from repro.sim.events import Event, PENDING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.core import Environment

__all__ = ["Process", "Interrupt"]


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`."""

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None


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

    __slots__ = ("_generator", "_target", "_send", "_throw")

    def __init__(self, env: "Environment", generator: Generator) -> None:
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        # Bound once: the resume loop runs these on every event cycle.
        self._send = generator.send
        self._throw = generator.throw
        self._target: Optional[Event] = None
        # Kick off the coroutine at the current time, before normal events.
        init = Event(env)
        init._ok = True
        init._value = None
        env.schedule(init, priority=URGENT)
        init.callbacks.append(self._resume)

    @property
    def target(self) -> Optional[Event]:
        """The event this process is currently waiting for."""
        return self._target

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._value is PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if not self.is_alive:
            raise RuntimeError(f"{self!r} has terminated and cannot be interrupted")
        if self is self.env.active_process:
            raise RuntimeError("a process is not allowed to interrupt itself")
        interrupt_event = Event(self.env)
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event.defused = True
        # Detach from the awaited event so its eventual trigger is ignored.
        target, self._target = self._target, None
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self.env.schedule(interrupt_event, priority=URGENT)
        interrupt_event.callbacks.append(self._resume)

    # ------------------------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of *event*."""
        env = self.env
        previous, env._active_process = env._active_process, self
        send = self._send
        try:
            while True:
                try:
                    if event._ok:
                        next_target = send(event._value)
                    else:
                        event.defused = True
                        next_target = self._throw(event._value)
                except StopIteration as stop:
                    self._target = None
                    if self.callbacks:
                        self.succeed(stop.value)
                    else:
                        # Nothing waits: an end event would run no callback.
                        self._ok = True
                        self._value = stop.value
                        self.callbacks = None
                    return
                except BaseException as exc:
                    self._target = None
                    self.fail(exc)
                    return

                # Fast path: a pending event of this environment (the single
                # ``yield env.timeout(...)`` / ``yield task.event`` shape) —
                # one isinstance, one env check, one append.
                if isinstance(next_target, Event) and next_target.env is env:
                    callbacks = next_target.callbacks
                    if callbacks is not None:
                        self._target = next_target
                        callbacks.append(self._resume)
                        return
                    # Already resolved: loop immediately with its outcome.
                    event = next_target
                    continue

                # Slow path: feed a descriptive error back into the
                # generator so user code sees a meaningful traceback at the
                # faulty ``yield``.
                event = Event(env)
                event._ok = False
                if not isinstance(next_target, Event):
                    event._value = TypeError(
                        f"process may only yield events, got {next_target!r}"
                    )
                else:
                    event._value = ValueError("yielded event belongs to another environment")
                event.defused = True
        finally:
            env._active_process = previous
