"""The FaaS platform façade: clients → controller → invokers → responses.

Mirrors the paper's Fig. 1 request flow: Gatling (the client generator)
sends blocking HTTP requests through NGINX/controller/Kafka to an
invoker's action containers; the connection stays open until the result
returns.  :class:`FaaSPlatform` drives a workload through that pipeline
and produces client-side :class:`~repro.metrics.records.CallRecord`\\ s.

One arrival injector feeds every workload.  A materialised
:class:`~repro.workload.generator.BurstScenario` and a lazy
:class:`~repro.workload.generator.RequestStream` both yield their
requests through ``arrivals()``; the injector pulls them one at a time
and keeps a single release entry in the calendar, so the calendar holds
the calls in flight, never the whole workload (the million-invocation
streaming path relies on this).

The client is a chain of calendar callbacks — release time, request leg,
the invoker's ``done`` event, response leg, then
:meth:`FaaSPlatform._finish` — with no process of its own.  Each leg is
a bare calendar entry that calls the next step with the request or the
node's timeline.  Under failure injection the same chain draws each
attempt's fault, races the attempt against an optional timeout, and
retries with backoff.

Record retention is orthogonal: ``retain_records=False`` skips the
O(invocations) record list, and a ``collector``
(:class:`~repro.metrics.streaming.MetricsAccumulator`) folds each record
into constant-size state the moment its response reaches the client.
"""

from __future__ import annotations

from operator import attrgetter
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Union

from repro.cluster.controller import LoadBalancer, LeastLoadedBalancer
from repro.cluster.network import NetworkModel
from repro.metrics.records import CallRecord
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.failures.rng import FailureRng
    from repro.failures.spec import FailureSpec
    from repro.sim.core import Environment
    from repro.metrics.streaming import MetricsAccumulator
    from repro.node.invoker import NodeCallInfo, _Node
    from repro.workload.generator import BurstScenario, Request, RequestStream

__all__ = ["FaaSPlatform"]

AnyWorkload = Union["BurstScenario", "RequestStream"]


class FaaSPlatform:
    """One controller, one or more invokers, and a client generator."""

    #: Grace period (seconds) granted after the last response for trailing
    #: background activity (container pauses, removals) to settle.
    DRAIN_GRACE_S = 30.0

    def __init__(
        self,
        env: "Environment",
        invokers: Sequence["_Node"],
        balancer: Optional[LoadBalancer] = None,
        network: Optional[NetworkModel] = None,
        failures: Optional["FailureSpec"] = None,
        failure_rng: Optional["FailureRng"] = None,
    ) -> None:
        if not invokers:
            raise ValueError("need at least one invoker")
        self.env = env
        # Keep the caller's (possibly live) list: an autoscaler may append
        # invokers while a scenario is in flight.
        self.invokers = invokers if isinstance(invokers, list) else list(invokers)
        self.balancer = balancer if balancer is not None else LeastLoadedBalancer(self.invokers)
        self.network = network if network is not None else NetworkModel()
        if failures is not None and not failures.is_none and failure_rng is None:
            raise ValueError("failure injection requires a FailureRng")
        self.failures = None if failures is not None and failures.is_none else failures
        self._failure_rng = failure_rng
        self.records: List[CallRecord] = []
        #: Client-visible calls completed so far (exact, even when records
        #: are not retained).
        self.completed_count = 0
        self._retain_records = True
        self._collector: Optional["MetricsAccumulator"] = None
        self._arrivals: Iterator["Request"] = iter(())
        self._label = ""
        self._last_release = float("-inf")
        self._pending = 0
        self._injecting = False
        self._all_done: Optional[Event] = None
        #: Attempts so far of each call in flight (failure injection only).
        self._attempts: Dict[int, int] = {}

    # ------------------------------------------------------------------
    def run_scenario(
        self,
        scenario: AnyWorkload,
        *,
        retain_records: bool = True,
        collector: Optional["MetricsAccumulator"] = None,
    ) -> List[CallRecord]:
        """Drive *scenario* to completion.

        The injector pulls ``scenario.arrivals()`` one request at a time
        and sends each at its release time, whatever the workload's shape.

        ``collector.add(record)`` is invoked for every completed call the
        moment its response reaches the client (completion order);
        ``retain_records=False`` additionally skips the O(invocations)
        ``self.records`` list, and the returned list is then empty —
        read the collector instead.
        """
        self._retain_records = retain_records
        self._collector = collector
        self._arrivals = iter(scenario.arrivals())
        self._label = getattr(scenario, "label", "")
        self._last_release = float("-inf")
        self._pending = 0
        self._injecting = True
        self._all_done = Event(self.env)
        self._inject()
        self.env.run(until=self._all_done)
        # Drain trailing background activity (container pauses etc.) so
        # back-to-back scenarios start from a quiet node.  Bounded, because
        # long-lived control loops (e.g. an autoscaler) keep the calendar
        # populated forever.
        self.env.run(until=self.env.now + self.DRAIN_GRACE_S)
        self.records.sort(key=attrgetter("rid"))
        return self.records

    # -- the arrival injector ---------------------------------------------
    def _inject(self) -> None:
        """Send every request released by now, then schedule the release
        of the next.  Once the arrivals run dry, injection is done."""
        env = self.env
        for request in self._arrivals:
            release = request.release_time
            if release < self._last_release:
                raise ValueError(
                    f"workload {self._label!r} yielded request "
                    f"rid={request.rid} at release time {release!r} after "
                    f"{self._last_release!r}; arrivals must come in "
                    f"non-decreasing release-time order (see "
                    f"RequestStream.arrivals)"
                )
            self._last_release = release
            self._pending += 1
            if release > env.now:
                env.call_later(release - env.now, self._on_release, request)
                return
            self._send(request)
        self._injecting = False
        if self._pending == 0:
            self._all_done.succeed()

    def _on_release(self, request: "Request") -> None:
        self._send(request)
        self._inject()

    # -- the client: one callback per calendar entry ----------------------
    def _send(self, request: "Request") -> None:
        # Request leg: client -> controller/Kafka -> invoker.
        self.env.call_later(self.network.request_delay(), self._on_received, request)

    def _on_received(self, request: "Request") -> None:
        spec = self.failures
        fault = None
        if spec is not None:
            # Count the attempt; its fault is drawn before routing.
            attempt = self._attempts.get(request.rid, 0) + 1
            self._attempts[request.rid] = attempt
            fault = self._failure_rng.attempt_fault(spec, request.rid, attempt)
        index = self.balancer.pick(request)
        stats = getattr(self.balancer, "stats", None)
        if stats is not None:  # duck-typed custom balancers may omit it
            stats.picks += 1
        done = self.invokers[index].submit(request, fault)
        done.callbacks.append(self._on_done)
        if spec is not None and spec.timeout_s > 0.0:
            self.env.call_later(spec.timeout_s, self._on_timeout, (request, done))

    def _on_done(self, done: Event) -> None:
        info = done.value
        if self.failures is not None and info.outcome != "ok":
            self._retry(info.request, info)
            return
        # Response leg: invoker -> client.
        self.env.call_later(self.network.response_delay(), self._on_response, info)

    def _on_response(self, info: "NodeCallInfo") -> None:
        attempts = 1 if self.failures is None else self._attempts.pop(info.request.rid)
        self._finish(CallRecord.from_node_info(info, self.env.now, attempts=attempts))

    def _finish(self, record: CallRecord) -> None:
        if self._collector is not None:
            self._collector.add(record)
        if self._retain_records:
            self.records.append(record)
        self.completed_count += 1
        self._pending -= 1
        if self._pending == 0 and not self._injecting:
            self._all_done.succeed()

    # -- retries (failure injection only; docs/FAILURES.md) ----------------
    def _on_timeout(self, race: "tuple[Request, Event]") -> None:
        request, done = race
        if done.triggered:
            # Answered in time, or at this very moment: _on_done takes it.
            return
        # Abandon the attempt: the node finishes (or crashes) the orphan
        # later, and its late response never reaches the client.
        done.callbacks.remove(self._on_done)
        self._retry(request, None)

    def _retry(self, request: "Request", info: Optional["NodeCallInfo"]) -> None:
        """An attempt failed (*info* is its node timeline) or timed out
        (*info* is ``None``).  Give up once the attempt budget is spent;
        otherwise send the call again, at once when a crashed node's call
        migrates, after an exponential backoff in every other case."""
        spec = self.failures
        attempt = self._attempts[request.rid]
        if attempt >= spec.max_attempts:
            del self._attempts[request.rid]
            self._finish(self._gave_up(request, info, attempt))
            return
        if info is not None and info.outcome == "node-crash" and spec.crash_inflight == "migrate":
            self._send(request)
            return
        delay = spec.backoff_base_s * spec.backoff_factor ** (attempt - 1)
        if delay > 0:
            self.env.call_later(delay, self._send, request)
        else:
            self._send(request)

    def _gave_up(
        self, request: "Request", info: Optional["NodeCallInfo"], attempts: int
    ) -> CallRecord:
        now = self.env.now
        if info is not None:
            # The final attempt failed (not timed out): the node timeline
            # of that attempt is real; keep it.
            return CallRecord.from_node_info(info, now, attempts=attempts, outcome="gave-up")
        # The final attempt timed out: no node timeline came back.
        return CallRecord(
            rid=request.rid,
            function_name=request.function.name,
            invoker="",
            release_time=request.release_time,
            received_at=now,
            dispatched_at=now,
            exec_start=now,
            exec_end=now,
            completed_at=now,
            service_time=request.service_time,
            reference_response_time=request.function.median_response_time,
            cold_start=False,
            start_kind="none",
            attempts=attempts,
            outcome="gave-up",
        )
