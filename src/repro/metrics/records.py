"""Per-call measurement records (the client's view, as Gatling reports)."""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.node.invoker import NodeCallInfo

__all__ = ["CallRecord"]


class CallRecord(NamedTuple):
    """End-to-end measurement of one call.

    Times follow the paper's notation: the request is generated at
    ``r(i)`` (:attr:`release_time`), received by the invoker at ``r'(i)``
    (:attr:`received_at`), and its response reaches the client at ``c(i)``
    (:attr:`completed_at`).

    A named tuple, so immutable, and cheap to build, pickle and rebuild
    from the cache's columns: a record equals the tuple of its field
    values and iterates over them in field order.  ``_fields`` names the
    fields, ``_asdict()`` maps them to their values and ``_replace()``
    returns a copy with some of them changed.
    """

    rid: int
    function_name: str
    invoker: str
    release_time: float
    received_at: float
    dispatched_at: float
    exec_start: float
    exec_end: float
    completed_at: float
    service_time: float
    #: Idle-system median response time of the function — the stretch
    #: denominator the paper uses (Sect. V-A).
    reference_response_time: float
    cold_start: bool
    start_kind: str
    #: Attempts the client made (1 unless failure injection retried).
    attempts: int = 1
    #: Final disposition: ``"ok"`` or ``"gave-up"`` (retry budget
    #: exhausted under failure injection — see docs/FAILURES.md).
    outcome: str = "ok"

    @property
    def response_time(self) -> float:
        """``R(i) = c(i) - r(i)``."""
        return self.completed_at - self.release_time

    @property
    def stretch(self) -> float:
        """``S(i) = R(i) / p̃(f(i))`` with the Table-I median as p̃;
        like the paper's, this can fall below 1."""
        return self.response_time / self.reference_response_time

    @property
    def wait_time(self) -> float:
        """Queueing delay at the invoker."""
        return self.dispatched_at - self.received_at

    @property
    def processing_time(self) -> float:
        """Node-measured execution duration."""
        return self.exec_end - self.exec_start

    @property
    def failed(self) -> bool:
        return self.outcome != "ok"

    @classmethod
    def from_node_info(
        cls,
        info: "NodeCallInfo",
        completed_at: float,
        attempts: int = 1,
        outcome: str = "ok",
    ) -> "CallRecord":
        """Assemble a client record from node-level info plus the moment
        the response reached the client (built with ``tuple.__new__``,
        which skips the generated keyword ``__new__``)."""
        request = info.request
        function = request.function
        return tuple.__new__(
            cls,
            (
                request.rid,
                function.name,
                info.invoker,
                request.release_time,
                info.received_at,
                info.dispatched_at,
                info.exec_start,
                info.exec_end,
                completed_at,
                request.service_time,
                function.median_response_time,
                info.cold_start,
                info.start_kind,
                attempts,
                outcome,
            ),
        )
