"""The node lifecycle both node models share, and the paper's invoker.

The paper's invoker is the stock OpenWhisk invoker with two changes
(paper Sect. IV):

1. queued calls are ordered by a :class:`~repro.scheduling.policies.
   SchedulingPolicy` priority computed from node-local history, not FIFO;
2. at most ``cores`` containers are busy at any time, each assigned
   exactly one CPU core — the CPU is never oversubscribed, so the OS never
   preempts a running call (a near non-preemptive model).

So both models are one :class:`_Node` (the daemon, memory and container
pool, the counters, receipt, crash and recovery) whose calls each run as
an :class:`_Attempt` (the steps from a placed container onwards).  A node
supplies only what the paper changes: its queue, its dispatch, the first
step of an attempt, its CPU bank and weight, and what it learns from a
finished call.  :class:`Invoker` is ours;
:class:`~repro.node.baseline.BaselineInvoker` is the stock one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.node.container import Container, ContainerState
from repro.node.docker import DockerDaemon
from repro.node.memory import MemoryPool
from repro.node.pool import ContainerPool
from repro.scheduling.policies import SchedulingPolicy
from repro.scheduling.queue import StablePriorityQueue
from repro.scheduling.registry import build_policy
from repro.sim.core import URGENT
from repro.sim.cpu import DedicatedCPU, SharedCPU, linear_overhead_efficiency
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.failures.rng import AttemptFault
    from repro.sim.core import Environment
    from repro.node.config import NodeConfig
    from repro.workload.functions import FunctionSpec
    from repro.workload.generator import Request

__all__ = ["Invoker", "NodeCallInfo"]


@dataclass(slots=True)
class NodeCallInfo:
    """Node-level timeline of one executed call."""

    request: "Request"
    invoker: str
    received_at: float
    dispatched_at: float = 0.0
    exec_start: float = 0.0
    exec_end: float = 0.0
    finished_at: float = 0.0
    #: Placement kind: hot / paused / prewarm / cold.
    start_kind: str = ""
    #: Attempt disposition: ``"ok"``, or a failure kind
    #: (``"node-crash"`` / ``"container-kill"`` — see docs/FAILURES.md).
    outcome: str = "ok"

    @property
    def cold_start(self) -> bool:
        return self.start_kind in ("cold", "prewarm")

    @property
    def processing_time(self) -> float:
        """Node-measured execution duration (what the estimator sees)."""
        return self.exec_end - self.exec_start

    @property
    def wait_time(self) -> float:
        """Queueing delay at the invoker."""
        return self.dispatched_at - self.received_at


#: A received call waiting in a node's queue.
_Queued = Tuple["Request", NodeCallInfo, Event, "Optional[AttemptFault]"]


class _Node:
    """A worker node as both node models run it.

    A subclass sets ``cpu`` and ``queue`` (the calls received and not yet
    dispatched) and defines ``_pop`` (the next :data:`_Queued` call in its
    service order), ``_dispatch`` and the first step of an attempt; it may
    define ``_learn``.
    """

    #: ``True`` on the stock OpenWhisk model (reported in node stats).
    is_baseline: bool
    #: Whether an attempt looks for a crash once its container is placed,
    #: besides at its first step and at finish (docs/FAILURES.md).
    crash_check_at_placement: bool
    cpu: "DedicatedCPU | SharedCPU"

    def __init__(self, env: "Environment", config: "NodeConfig", name: str) -> None:
        self.env = env
        self.config = config
        self.name = name
        self.daemon = DockerDaemon(env, config)
        self.memory = MemoryPool(config.memory_mb)
        self.pool = ContainerPool(env, config, self.daemon, self.memory)
        self._busy = 0
        self.completed_count = 0
        self.submitted = 0
        #: False while crashed (no dispatching; out of the balancer list).
        self.live = True
        #: In-flight attempts, so a crash can fail them (see crash()).
        self._inflight: Dict[Event, NodeCallInfo] = {}
        self.node_crashes = 0
        self.container_kills = 0
        self.crash_dropped = 0

    # ------------------------------------------------------------------
    @property
    def busy_count(self) -> int:
        """Containers currently executing (or being arranged for) calls."""
        return self._busy

    @property
    def queue_length(self) -> int:
        return len(self.queue)

    @property
    def outstanding(self) -> int:
        """Calls received but not yet finished."""
        return self.submitted - self.completed_count

    def _receive(self, request: "Request") -> Tuple[Event, NodeCallInfo]:
        """Count a received call (``r'(i)`` = now) and return its
        ``done`` handle, which fires with the call's
        :class:`NodeCallInfo` when the response leaves the node, and that
        info."""
        self.submitted += 1
        info = NodeCallInfo(request=request, invoker=self.name, received_at=self.env.now)
        return Event(self.env), info

    def crash(self) -> None:
        """Fail this node: every queued and in-flight call completes with
        outcome ``"node-crash"`` (the client retries or migrates it per
        the failure spec) and dispatching stops until :meth:`recover`.
        An attempt already dispatched notices the triggered ``done`` event
        at its next crash check, frees its container and busy slot, and
        ends there."""
        self.live = False
        self.node_crashes += 1
        while self.queue:
            _request, info, done, _fault = self._pop()
            self._fail_attempt(info, done)
        for done, info in list(self._inflight.items()):
            if not done.triggered:
                self._fail_attempt(info, done)
        self._inflight.clear()

    def recover(self) -> None:
        """Rejoin after a crash (the injector re-inserts this node into
        the balancer live-list)."""
        self.live = True
        self._dispatch()

    def _fail_attempt(self, info: NodeCallInfo, done: Event) -> None:
        info.outcome = "node-crash"
        info.finished_at = self.env.now
        self.completed_count += 1
        self.crash_dropped += 1
        done.succeed(info)

    def _launch(self, attempt: "_Attempt", first_step: Callable[["_Attempt"], None]) -> None:
        """Count *attempt* busy and in flight, stamp its dispatch, and run
        the node's *first_step* after the invoker overhead."""
        self._busy += 1
        self._inflight[attempt.done] = attempt.info
        env = self.env
        attempt.info.dispatched_at = env.now
        overhead = self.config.invoker_overhead_s
        if overhead:
            env.call_later(overhead, first_step, attempt)
        else:
            # The pool and the system work must see every dispatch of the
            # caller's loop: run the first step from an URGENT entry,
            # after the loop.
            env.call_later(0.0, first_step, attempt, URGENT)

    def _learn(self, attempt: "_Attempt") -> None:
        """What the node keeps from a finished attempt: nothing, unless a
        subclass keeps runtime history."""


class _Attempt:
    """One attempt of one call on a node, run as calendar callbacks.

    Each step is a method; it arms the next one by putting it (a bound
    method) in the calendar entry it waits for — a delay, a daemon
    operation or a CPU task — or calls it at once when there is nothing
    to wait for.  The steps of the call lifecycle, in order:

    1. *dispatch* (the node's ``_dispatch``, then :meth:`_Node._launch`):
       pop the call (the stock invoker acquires its container first),
       ``_busy += 1``, stamp ``dispatched_at``; wait the invoker overhead.
    2. the node's first step: crash check; :meth:`Invoker._arrange`
       acquires a container, ``BaselineInvoker._start`` has one; then the
       daemon operation or latency of the start kind.
    3. :meth:`initialise` (cold and prewarm): wait the init latency;
       :meth:`init_cpu`: run the init CPU work.
    4. :meth:`placed`: mark the container ``HOT``; crash check where the
       node has one; run the system work.
    5. :meth:`execute`: stamp ``exec_start``; wait the call's I/O time.
    6. :meth:`compute`: run the call's CPU work.
    7. :meth:`finish`: stamp ``exec_end``; crash check; let the node learn
       from the call; release the container, respond, and dispatch what
       the queue holds.

    CPU work runs at the attempt's ``weight``, capped at one core, and its
    daemon operations are served in the order of its ``priority``.
    """

    __slots__ = ("node", "request", "info", "done", "fault", "priority", "weight", "container")

    def __init__(
        self,
        node: _Node,
        request: "Request",
        info: NodeCallInfo,
        done: Event,
        fault: "Optional[AttemptFault]",
        priority: float,
        weight: float,
        container: Optional[Container] = None,
    ) -> None:
        self.node = node
        self.request = request
        self.info = info
        self.done = done
        self.fault = fault
        self.priority = priority
        self.weight = weight
        self.container = container

    def abandon(self) -> None:
        """End after a crash (``crash()`` settled the call): free the
        container, if one was acquired, and the busy slot."""
        node = self.node
        if self.container is not None:
            node.pool.release(self.container)
        node._busy -= 1

    def initialise(self, _arg: None = None) -> None:
        config = self.node.config
        if self.info.start_kind == "cold":
            latency = config.cold_init_latency_s
        else:
            latency = config.prewarm_init_latency_s
        self.node.env.call_later(latency, self.init_cpu)

    def init_cpu(self, _arg: None) -> None:
        node = self.node
        if self.info.start_kind == "cold":
            work, label = node.config.cold_init_cpu_s, "cold-init"
        else:
            work, label = node.config.prewarm_init_cpu_s, "prewarm-init"
        if work:
            node.cpu.execute(work, weight=self.weight, label=label, then=self.placed)
        else:
            self.placed()

    def placed(self, _task: object = None) -> None:
        node = self.node
        self.container.state = ContainerState.HOT
        if node.crash_check_at_placement and self.done.triggered:  # crashed meanwhile
            self.abandon()
            return
        config = node.config
        system_work = config.system_cpu_coeff_s * max(0, min(node._busy, config.cores) - 1)
        if system_work > 0:
            # Contention-induced management work (docker exec, cgroup and
            # logging interference with the other busy containers), billed
            # to the call's CPU share.  Happens before the in-container
            # execution window the invoker measures, so the estimator sees
            # the function's own duration (paper Sect. IV).
            node.cpu.execute(system_work, weight=self.weight, label="system", then=self.execute)
        else:
            self.execute()

    def execute(self, _task: object = None) -> None:
        # The call's I/O leaves its CPU share idle.
        env = self.node.env
        self.info.exec_start = env.now
        request, fault = self.request, self.fault
        io_time = request.io_time if fault is None else fault.scale(request.io_time)
        if io_time > 0:
            env.call_later(io_time, self.compute)
        else:
            self.compute()

    def compute(self, _arg: None = None) -> None:
        request, fault = self.request, self.fault
        cpu_work = request.cpu_work if fault is None else fault.scale(request.cpu_work)
        if cpu_work > 0:
            self.node.cpu.execute(
                cpu_work, weight=self.weight, label=request.function.name, then=self.finish
            )
        else:
            self.finish()

    def finish(self, _task: object = None) -> None:
        node = self.node
        info, done = self.info, self.done
        info.exec_end = node.env.now
        if done.triggered:  # crashed mid-execution; crash() settled the call
            self.abandon()
            return
        fault = self.fault
        if fault is not None and fault.kills:
            info.outcome = "container-kill"
            node.container_kills += 1
        node._learn(self)
        node.pool.release(self.container)
        info.finished_at = node.env.now
        node.completed_count += 1
        node._busy -= 1
        node._inflight.pop(done, None)
        done.succeed(info)
        node._dispatch()


class Invoker(_Node):
    """Our worker-node resource manager (paper Sect. IV).

    Parameters
    ----------
    env, config:
        Simulation environment and node configuration.
    policy:
        A registered policy name (``FIFO``/``SEPT``/.../``SEPT-EMA`` —
        see ``faas-sched policies``) or a ready :class:`SchedulingPolicy`
        instance.
    name:
        Diagnostic identifier (used in multi-node runs).
    policy_params:
        Declared parameters for a named policy (validated against the
        registry); rejected when *policy* is already an instance.

    Each dispatched call runs as an :class:`_Attempt` at weight 1.0 whose
    daemon operations carry the call's priority.  This node stocks no
    prewarm shells (only :class:`~repro.node.baseline.BaselineInvoker`
    calls ``bootstrap_prewarm``), so it acquires with
    ``allow_prewarm=False`` and places every call hot, warm or cold.
    """

    is_baseline = False
    crash_check_at_placement = True

    def __init__(
        self,
        env: "Environment",
        config: "NodeConfig",
        policy: "str | SchedulingPolicy" = "FIFO",
        name: str = "invoker-0",
        policy_params: "Mapping[str, Any] | None" = None,
    ) -> None:
        super().__init__(env, config, name)
        #: Busy-container cap (``busy_limit or cores``), read per dispatch.
        self._busy_limit = config.effective_busy_limit
        # At most ``cores`` busy containers means one core per call: the
        # dedicated bank.  The busy-limit ablation oversubscribes, so it
        # needs processor sharing and the overhead model.
        if self._busy_limit <= config.cores:
            self.cpu = DedicatedCPU(env, config.cores)
        else:
            self.cpu = SharedCPU(
                env, config.cores, efficiency=linear_overhead_efficiency(config.kappa)
            )
        if isinstance(policy, SchedulingPolicy):
            if policy_params:
                raise ValueError(
                    "policy_params only apply when the policy is given by "
                    "name; configure the instance directly instead"
                )
            self.policy = policy
        else:
            self.policy = build_policy(
                policy,
                policy_params,
                window=config.estimator_window,
                frequency_horizon=config.fc_horizon_s,
            )
        self.queue: StablePriorityQueue = StablePriorityQueue()

    def warm_up(self, specs: "List[FunctionSpec]", per_function: Optional[int] = None) -> None:
        """Materialise the paper's warm-up (Sect. V-A): up to ``cores``
        warm containers per function, and seed the estimator with idle
        processing-time observations so ``E(p(i))`` is meaningful from the
        first measured call."""
        count = self.config.cores if per_function is None else per_function
        # Seed up to the *policy's* estimator window — a policy may have
        # reconfigured it away from the node default (e.g. SEPT-EMA's
        # window parameter), and a partially seeded window would make the
        # configured and default windows warm up identically.
        window = self.policy.estimator.window
        for spec in specs:
            self.pool.seed_warm(spec, count)
            # What the node measured for each warm-up call: the function's
            # idle execution time (its distribution median as the
            # single-point summary).  Routed through the policy so
            # EMA-keeping policies seed their own state too.
            for _ in range(min(count, window)):
                self.policy.record_warmup(
                    spec.name, spec.service_distribution.median
                )

    def submit(self, request: "Request", fault: "Optional[AttemptFault]" = None) -> Event:
        """Receive a call and queue it at its policy priority; returns
        the call's ``done`` handle.  *fault* (failure injection only)
        degrades or kills this attempt's container — see
        docs/FAILURES.md."""
        done, info = self._receive(request)
        priority = self.policy.on_received(request, info.received_at)
        self.queue.push(priority, (request, info, done, fault))
        self._dispatch()
        return done

    def _pop(self) -> _Queued:
        return self.queue.pop()[1]

    def _dispatch(self) -> None:
        """Dispatch queued calls while the busy limit allows; each
        acquires its container in :meth:`_arrange`, after the invoker
        overhead."""
        if not self.live:
            return
        queue = self.queue
        # The queue's heap is tested directly: ``queue.__bool__`` would
        # add a call per dispatch attempt.
        heap = queue._heap
        limit = self._busy_limit
        while self._busy < limit and heap:
            priority, (request, info, done, fault) = queue.pop()
            self._launch(_Attempt(self, request, info, done, fault, priority, 1.0), self._arrange)

    def _arrange(self, attempt: _Attempt) -> None:
        """First step: crash check; ``acquire`` a container, or wait
        ``pause_grace_s`` and retry.  Then the daemon operation of the
        plan's kind: none for a hot container, ``dispatch`` for a warm
        one, ``create`` for a cold start."""
        if attempt.done.triggered:  # the node crashed meanwhile
            attempt.abandon()
            return
        plan = self.pool.acquire(attempt.request.function, allow_prewarm=False)
        if plan is None:
            # Memory exhausted and nothing evictable (all containers busy):
            # wait briefly for a release.  With busy <= cores and bounded
            # per-container memory this is rare by construction.
            self.env.call_later(self.config.pause_grace_s, self._arrange, attempt)
            return
        attempt.container = plan.container
        kind = attempt.info.start_kind = plan.kind
        if kind == "hot":
            attempt.placed()
        elif kind == "warm":
            # Placing a call on a paused container costs a serialized docker
            # cycle (cpu-limit update + unpause) that enforces the
            # exactly-one-core guarantee.  A *hot* container (released
            # within the pause grace, its limit already set) is free —
            # which is how SEPT/FC same-function trains stay cheap.  The
            # pipeline serves its operations in call-priority order (it is
            # the same modified invoker that ordered the queue).
            self.daemon.op("dispatch", attempt.priority, attempt.placed)
        else:  # "cold"; without prewarm shells there is no "prewarm"
            self.daemon.op("create", attempt.priority, attempt.initialise)

    def _learn(self, attempt: _Attempt) -> None:
        # Failed attempts teach the estimator nothing: the node never saw
        # the function's own duration.
        if attempt.info.outcome == "ok":
            self.policy.on_completed(attempt.request, attempt.info.processing_time)
