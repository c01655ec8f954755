"""The FaaS platform façade: clients → controller → invokers → responses.

Mirrors the paper's Fig. 1 request flow: Gatling (the client generator)
sends blocking HTTP requests through NGINX/controller/Kafka to an
invoker's action containers; the connection stays open until the result
returns.  :class:`FaaSPlatform` drives a workload through that pipeline
and produces client-side :class:`~repro.metrics.records.CallRecord`\\ s.

Two workload shapes are supported:

* a materialised :class:`~repro.workload.generator.BurstScenario` — every
  client is started up front (the code path the golden fingerprints pin);
* a lazy :class:`~repro.workload.generator.RequestStream` — a single
  injector process walks the arrival stream and starts each client at its
  release time, so peak memory tracks the *concurrency* of the workload,
  not its length (the million-invocation streaming path).

A failure-free client is a chain of calendar callbacks — release time,
request leg, the invoker's ``done`` event, response leg, then
:meth:`FaaSPlatform._finish` — with no process of its own.  Under failure
injection each client is a generator process (timeout races, backoff).

Record retention is orthogonal: ``retain_records=False`` skips the
O(invocations) record list, and a ``collector``
(:class:`~repro.metrics.streaming.MetricsAccumulator`) folds each record
into constant-size state the moment its response reaches the client.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Union

from repro.cluster.controller import LoadBalancer, LeastLoadedBalancer
from repro.cluster.network import NetworkModel
from repro.metrics.records import CallRecord
from repro.sim.events import AnyOf, Event, Timeout

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.failures.rng import FailureRng
    from repro.failures.spec import FailureSpec
    from repro.sim.core import Environment
    from repro.metrics.streaming import MetricsAccumulator
    from repro.node.baseline import BaselineInvoker
    from repro.node.invoker import Invoker, NodeCallInfo
    from repro.workload.generator import BurstScenario, Request, RequestStream

__all__ = ["FaaSPlatform"]

AnyInvoker = Union["Invoker", "BaselineInvoker"]
AnyWorkload = Union["BurstScenario", "RequestStream"]


class FaaSPlatform:
    """One controller, one or more invokers, and a client generator."""

    #: Grace period (seconds) granted after the last response for trailing
    #: background activity (container pauses, removals) to settle.
    DRAIN_GRACE_S = 30.0

    def __init__(
        self,
        env: "Environment",
        invokers: Sequence[AnyInvoker],
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
        self._pending = 0
        self._injecting = False
        self._all_done: Optional[Event] = None

    # ------------------------------------------------------------------
    def run_scenario(
        self,
        scenario: AnyWorkload,
        *,
        retain_records: bool = True,
        collector: Optional["MetricsAccumulator"] = None,
    ) -> List[CallRecord]:
        """Drive *scenario* to completion.

        A sized workload (:class:`BurstScenario`) takes the eager path:
        every client is started up front.  A workload without ``__len__``
        (:class:`RequestStream`) takes the lazy path: one injector process
        starts each client at its release time.

        ``collector.add(record)`` is invoked for every completed call the
        moment its response reaches the client (completion order);
        ``retain_records=False`` additionally skips the O(invocations)
        ``self.records`` list, and the returned list is then empty —
        read the collector instead.
        """
        self._retain_records = retain_records
        self._collector = collector
        if hasattr(scenario, "__len__"):
            if not len(scenario):
                return []
            self._pending = len(scenario)
            self._injecting = False
            self._all_done = Event(self.env)
            for request in scenario:
                self._start_client(request)
        else:
            self._pending = 0
            self._injecting = True
            self._all_done = Event(self.env)
            self.env.process(self._inject(scenario))
        self.env.run(until=self._all_done)
        # Drain trailing background activity (container pauses etc.) so
        # back-to-back scenarios start from a quiet node.  Bounded, because
        # long-lived control loops (e.g. an autoscaler) keep the calendar
        # populated forever.
        self.env.run(until=self.env.now + self.DRAIN_GRACE_S)
        self.records.sort(key=lambda r: r.rid)
        return self.records

    # ------------------------------------------------------------------
    def _inject(self, scenario: "RequestStream"):
        """Lazy injection: walk the arrival stream on simulation time,
        starting one client per request at its release moment.
        Peak memory is the in-flight call count, never the stream length."""
        env = self.env
        last_release = float("-inf")
        for request in scenario.arrivals():
            release = request.release_time
            if release < last_release:
                raise ValueError(
                    f"RequestStream {getattr(scenario, 'label', '')!r} "
                    f"yielded request rid={request.rid} at release time "
                    f"{release!r} after {last_release!r}; streams must "
                    f"yield in non-decreasing release-time order (see "
                    f"RequestStream.arrivals)"
                )
            last_release = release
            if release > env.now:
                yield env.timeout(release - env.now)
            self._pending += 1
            self._start_client(request)
        self._injecting = False
        if self._pending == 0 and self._all_done is not None:
            self._all_done.succeed()

    # ------------------------------------------------------------------
    def _start_client(self, request: "Request") -> None:
        if self.failures is not None:
            self.env.process(self._client_call_failures(request))
            return
        env = self.env
        if request.release_time > env.now:
            release = Timeout(env, request.release_time - env.now, request)
            release.callbacks.append(self._on_release)
        else:
            self._send(request)

    # -- the failure-free client: one callback per calendar event --------
    def _on_release(self, release: Timeout) -> None:
        self._send(release.value)

    def _send(self, request: "Request") -> None:
        # Request leg: client -> controller/Kafka -> invoker.
        leg = Timeout(self.env, self.network.request_delay(), request)
        leg.callbacks.append(self._on_received)

    def _on_received(self, leg: Timeout) -> None:
        request = leg.value
        index = self.balancer.pick(request)
        stats = getattr(self.balancer, "stats", None)
        if stats is not None:  # duck-typed custom balancers may omit it
            stats.picks += 1
        self.invokers[index].submit(request).callbacks.append(self._on_done)

    def _on_done(self, done: Event) -> None:
        # Response leg: invoker -> client.
        leg = Timeout(self.env, self.network.response_delay(), done.value)
        leg.callbacks.append(self._on_response)

    def _on_response(self, leg: Timeout) -> None:
        self._finish(CallRecord.from_node_info(leg.value, self.env.now))

    def _finish(self, record: CallRecord) -> None:
        if self._collector is not None:
            self._collector.add(record)
        if self._retain_records:
            self.records.append(record)
        self.completed_count += 1
        self._pending -= 1
        if self._pending == 0 and not self._injecting and self._all_done is not None:
            self._all_done.succeed()

    # ------------------------------------------------------------------
    def _client_call_failures(self, request: "Request"):
        """The retrying client (failure injection only): per-attempt
        faults, an optional client-side timeout, and exponential-backoff
        retries up to the spec's attempt budget (docs/FAILURES.md)."""
        env = self.env
        spec = self.failures
        assert spec is not None and self._failure_rng is not None
        if request.release_time > env.now:
            yield env.timeout(request.release_time - env.now)
        attempt = 0
        info: Optional["NodeCallInfo"] = None
        outcome = "ok"
        while True:
            attempt += 1
            # Request leg: client -> controller/Kafka -> invoker.
            yield env.timeout(self.network.request_delay())
            fault = self._failure_rng.attempt_fault(spec, request.rid, attempt)
            index = self.balancer.pick(request)
            stats = getattr(self.balancer, "stats", None)
            if stats is not None:  # duck-typed custom balancers may omit it
                stats.picks += 1
            done = self.invokers[index].submit(request, fault)
            if spec.timeout_s > 0.0:
                yield AnyOf(env, [done, env.timeout(spec.timeout_s)])
                if done.triggered:
                    info = done.value
                    attempt_outcome = info.outcome
                else:
                    # Abandon the attempt: the node finishes (or crashes)
                    # the orphan later; its late response is discarded.
                    info = None
                    attempt_outcome = "timeout"
            else:
                info = yield done
                attempt_outcome = info.outcome
            if attempt_outcome == "ok":
                break
            if attempt >= spec.max_attempts:
                outcome = "gave-up"
                break
            # Migrated calls (node crash under crash_inflight="migrate")
            # re-route immediately; every other retry backs off.
            if not (
                attempt_outcome == "node-crash" and spec.crash_inflight == "migrate"
            ):
                delay = spec.backoff_base_s * spec.backoff_factor ** (attempt - 1)
                if delay > 0:
                    yield env.timeout(delay)
        if outcome == "ok":
            # Response leg: invoker -> client.
            yield env.timeout(self.network.response_delay())
            record = CallRecord.from_node_info(
                info, env.now, attempts=attempt, outcome=outcome
            )
        elif info is not None:
            # Gave up on a failed (not timed-out) final attempt: the node
            # timeline of that attempt is real; keep it.
            record = CallRecord.from_node_info(
                info, env.now, attempts=attempt, outcome=outcome
            )
        else:
            # Every attempt timed out: no node timeline ever came back.
            now = env.now
            record = CallRecord(
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
                attempts=attempt,
                outcome=outcome,
            )
        self._finish(record)
