"""The Docker daemon as a serialized container-operation server.

Heavy container lifecycle operations — ``docker run`` (creation), our
invoker's per-dispatch cpu-limit/unpause cycle, removals and pauses —
funnel through a single daemon whose throughput is roughly constant
regardless of how many CPU cores the action containers use.  Under a
request burst this serialization, not the CPU, pins the node's dispatch
rate — exactly the pathology the paper measures ("the system overheads
related to container management have a significant impact … for the same
core-level intensity, the best performance is presented by nodes that
have lower numbers of cores", Sect. VII-C).

Light operations (the baseline's unpause of a warm container) happen
concurrently and are modelled as plain latency by the callers.

Waiting operations are served lowest priority first, ties in arrival
order.  Background operations (pausing or removing an idle container)
enter the same queue and steal capacity from foreground dispatch
operations.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from typing import TYPE_CHECKING, Callable, Dict, List, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.core import Environment
    from repro.node.config import NodeConfig

__all__ = ["DockerDaemon"]


class DockerDaemon:
    """Serialized executor of heavy container operations.

    Operations carry a *priority* (lower served first; ties FIFO).  The
    invoker pipeline issues its foreground operations with the call's
    scheduling priority — the single dispatch pipeline is part of the same
    modified invoker, so a short call jumps ahead of a long one here too —
    while background operations (pauses, removals) default to their
    enqueue time, which interleaves them fairly with FIFO-ordered work.

    The daemon is one busy flag and a heap of ``(priority, arrival,
    op)`` for the operations waiting behind the one in service; the
    daemon grants an operation its slot with a zero-delay calendar entry
    (in the calendar's lane, :meth:`~repro.sim.core.Environment.call_soon`)
    that calls the operation's :meth:`_Op.serve`.
    """

    #: Known operation kinds, mapped to their NodeConfig duration field.
    OP_FIELDS = {
        "create": "create_op_s",
        "dispatch": "dispatch_op_s",
        "pause": "pause_op_s",
        "remove": "remove_op_s",
    }

    def __init__(self, env: "Environment", config: "NodeConfig") -> None:
        self.env = env
        self.config = config
        self._busy = False
        self._waiting: List[Tuple[float, int, _Op]] = []
        self._arrivals = count()
        #: Completed-operation counters by kind.
        self.op_counts: Dict[str, int] = {kind: 0 for kind in self.OP_FIELDS}
        #: Total seconds the daemon has spent serving operations.
        self.busy_seconds = 0.0

    @property
    def queue_length(self) -> int:
        """Operations waiting for the daemon (excludes the one in service)."""
        return len(self._waiting)

    def duration_of(self, kind: str) -> float:
        field_name = self.OP_FIELDS.get(kind)
        if field_name is None:
            raise KeyError(f"unknown docker operation {kind!r}")
        return getattr(self.config, field_name)

    def op(
        self,
        kind: str,
        priority: "float | None" = None,
        then: "Callable[[], None] | None" = None,
    ) -> None:
        """Perform one serialized operation, then call *then*.

        The operation waits for its slot, holds the daemon for its
        duration, and hands the daemon to the next waiting operation.
        ``then()`` runs from the calendar entry that ends the operation,
        once the next slot is granted and the counters are updated.
        Without an explicit *priority* the operation is served in
        enqueue-time order.
        """
        op = _Op(self, kind, self.duration_of(kind), then)
        env = self.env
        if priority is None:
            priority = env.now
        if self._busy:
            heappush(self._waiting, (priority, next(self._arrivals), op))
        else:
            self._busy = True
            env.call_soon(op.serve)

    def utilization(self) -> float:
        """Fraction of elapsed time the daemon has been busy."""
        if self.env.now <= 0:
            return 0.0
        return self.busy_seconds / self.env.now


class _Op:
    """One operation between its slot and its end: two calendar steps."""

    __slots__ = ("daemon", "kind", "duration", "then")

    def __init__(
        self,
        daemon: DockerDaemon,
        kind: str,
        duration: float,
        then: "Callable[[], None] | None",
    ) -> None:
        self.daemon = daemon
        self.kind = kind
        self.duration = duration
        self.then = then

    def serve(self, _arg: None) -> None:
        """The daemon turned to this operation: hold it for the duration."""
        self.daemon.env.call_later(self.duration, self.finish)

    def finish(self, _arg: None) -> None:
        """Hand the daemon on, count the operation, and continue."""
        daemon = self.daemon
        if daemon._waiting:
            daemon.env.call_soon(heappop(daemon._waiting)[2].serve)
        else:
            daemon._busy = False
        daemon.op_counts[self.kind] += 1
        daemon.busy_seconds += self.duration
        if self.then is not None:
            self.then()
