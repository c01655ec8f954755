"""The stock OpenWhisk invoker (the paper's baseline).

Behaviour per paper Sect. III:

* requests are handled in receipt (FIFO) order; a request is queued only
  when it cannot be placed immediately;
* placement is *greedy*: free (warm) pool container → prewarm pool
  container → new container, evicting idle free-pool containers when
  memory is needed; if nothing works, the request waits at the head of
  the queue until a container or memory frees up;
* concurrency is bounded by **memory only** — there may be far more busy
  containers than CPU cores; the OS then time-shares the cores
  (preemption), with each container's CPU weight proportional to its
  memory (the OpenWhisk default), modelled by the processor-sharing CPU
  bank with a context-switch efficiency penalty.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Tuple

from repro.node.container import ContainerState
from repro.node.docker import DockerDaemon
from repro.node.invoker import NodeCallInfo
from repro.node.memory import MemoryPool
from repro.node.pool import ContainerPool
from repro.sim.core import URGENT
from repro.sim.cpu import SharedCPU, linear_overhead_efficiency
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.failures.rng import AttemptFault
    from repro.node.container import Container
    from repro.sim.core import Environment
    from repro.node.config import NodeConfig
    from repro.workload.functions import FunctionSpec
    from repro.workload.generator import Request

__all__ = ["BaselineInvoker"]

#: Memory size whose container gets CPU weight 1.0 (OpenWhisk's
#: ``memory / stdMemory`` share rule).
_STD_MEMORY_MB = 256.0


class BaselineInvoker:
    """Stock OpenWhisk worker-node resource manager."""

    is_baseline = True

    def __init__(
        self,
        env: "Environment",
        config: "NodeConfig",
        name: str = "baseline-0",
    ) -> None:
        self.env = env
        self.config = config
        self.name = name
        self.cpu = SharedCPU(
            env, config.cores, efficiency=linear_overhead_efficiency(config.kappa)
        )
        self.daemon = DockerDaemon(env, config)
        self.memory = MemoryPool(config.memory_mb)
        self.pool = ContainerPool(env, config, self.daemon, self.memory)
        self.pool.bootstrap_prewarm()
        self._queue: Deque[
            Tuple["Request", NodeCallInfo, Event, "Optional[AttemptFault]"]
        ] = deque()
        self._running = 0
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
        return self._running

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    @property
    def outstanding(self) -> int:
        return self.submitted - self.completed_count

    def warm_up(self, specs: "List[FunctionSpec]", per_function: Optional[int] = None) -> None:
        """Same warm-up protocol as our invoker: up to ``cores`` warm
        containers per function (the baseline keeps no runtime history, so
        only containers are seeded)."""
        count = self.config.cores if per_function is None else per_function
        for spec in specs:
            self.pool.seed_warm(spec, count)

    def submit(self, request: "Request", fault: "Optional[AttemptFault]" = None) -> Event:
        """Receive a call; greedy immediate placement, else FIFO queue.
        *fault* (failure injection only) degrades or kills this attempt's
        container — see docs/FAILURES.md."""
        self.submitted += 1
        done = Event(self.env)
        info = NodeCallInfo(
            request=request,
            invoker=self.name,
            received_at=self.env.now,
            queue_length_at_receipt=len(self._queue),
        )
        self._queue.append((request, info, done, fault))
        self._drain()
        return done

    def crash(self) -> None:
        """Fail this node: every queued and in-flight call completes with
        outcome ``"node-crash"`` (the client retries or migrates it per
        the failure spec) and placement stops until :meth:`recover`."""
        self.live = False
        self.node_crashes += 1
        while self._queue:
            request, info, done, _fault = self._queue.popleft()
            self._fail_attempt(info, done)
        for done, info in list(self._inflight.items()):
            if not done.triggered:
                self._fail_attempt(info, done)
        self._inflight.clear()

    def recover(self) -> None:
        """Rejoin after a crash (the injector re-inserts this node into
        the balancer live-list)."""
        self.live = True
        self._drain()

    def _fail_attempt(self, info: NodeCallInfo, done: Event) -> None:
        info.outcome = "node-crash"
        info.finished_at = self.env.now
        self.completed_count += 1
        self.crash_dropped += 1
        done.succeed(info)

    # ------------------------------------------------------------------
    def _drain(self) -> None:
        """Place queued requests head-first while the greedy algorithm
        succeeds; the head blocks the queue when it cannot be placed
        (it waits for a freed container or freed memory).  Each placed
        call starts a :class:`_BaselineAttempt`."""
        if not self.live:
            return
        env = self.env
        overhead = self.config.invoker_overhead_s
        while self._queue:
            request, info, done, fault = self._queue[0]
            plan = self.pool.acquire(request.function, allow_prewarm=True)
            if plan is None:
                break
            self._queue.popleft()
            self._running += 1
            self._inflight[done] = info
            info.dispatched_at = env.now
            info.start_kind = plan.kind
            attempt = _BaselineAttempt(self, request, info, done, plan.container, fault)
            if overhead:
                env.call_later(overhead, attempt.start)
            else:
                # The daemon operations and the system work must follow
                # every placement of this loop: start from an URGENT
                # entry, after the loop.
                env.call_later(0.0, attempt.start, None, URGENT)

    # The baseline replenishes its prewarm stock in the background; we
    # model a fixed initial stock only — under the paper's workloads the
    # stock is consumed in the first seconds of a burst either way.


class _BaselineAttempt:
    """One attempt of one call on the stock invoker, run as calendar
    callbacks, step by step as :class:`~repro.node.invoker._Attempt`:

    1. *dispatch* (:meth:`BaselineInvoker._drain`): ``acquire`` a
       container, pop the call, ``_running += 1``, stamp
       ``dispatched_at``; wait the invoker overhead.
    2. :meth:`start`: crash check, then by the plan's kind: nothing for a
       hot container; daemon ``dispatch`` then :meth:`unpause` for a warm
       one; daemon ``create`` for a cold start; the unpause latency for a
       prewarm shell.
    3. :meth:`initialise` (cold and prewarm): wait the init latency;
       :meth:`init_cpu`: run the init CPU work.
    4. :meth:`placed`: mark the container ``HOT``; run the system work.
    5. :meth:`execute`: stamp ``exec_start``; wait the call's I/O time.
    6. :meth:`compute`: run the call's CPU work.
    7. :meth:`finish`: stamp ``exec_end``; crash check; release the
       container, respond, and place what the queue holds.

    CPU work runs at a share proportional to the container's memory,
    capped at one core.
    """

    __slots__ = ("node", "request", "info", "done", "container", "fault", "weight")

    def __init__(
        self,
        node: BaselineInvoker,
        request: "Request",
        info: NodeCallInfo,
        done: Event,
        container: "Container",
        fault: "Optional[AttemptFault]",
    ) -> None:
        self.node = node
        self.request = request
        self.info = info
        self.done = done
        self.container = container
        self.fault = fault
        self.weight = container.memory_mb / _STD_MEMORY_MB

    def start(self, _arg: None) -> None:
        node = self.node
        if self.done.triggered:  # the node crashed meanwhile
            node.pool.release(self.container)
            node._running -= 1
            return
        kind = self.info.start_kind
        if kind == "hot":
            self.placed()
        elif kind == "warm":
            # Reviving a paused container needs a (cheap) serialized daemon
            # cycle plus the unpause latency; only *hot* reuse is free.
            node.daemon.op("dispatch", self.info.received_at, self.unpause)
        elif kind == "cold":
            node.daemon.op("create", self.info.received_at, self.initialise)
        else:  # "prewarm": shells sit paused
            node.env.call_later(node.config.unpause_latency_s, self.initialise)

    def unpause(self) -> None:
        node = self.node
        node.env.call_later(node.config.unpause_latency_s, self.placed)

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
        config = node.config
        system_work = config.system_cpu_coeff_s * max(0, min(node._running, config.cores) - 1)
        if system_work > 0:
            node.cpu.execute(system_work, weight=self.weight, label="system", then=self.execute)
        else:
            self.execute()

    def execute(self, _task: object = None) -> None:
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
                cpu_work,
                weight=self.weight,
                max_rate=1.0,
                label=request.function.name,
                then=self.finish,
            )
        else:
            self.finish()

    def finish(self, _task: object = None) -> None:
        node = self.node
        info, done, container = self.info, self.done, self.container
        info.exec_end = node.env.now
        if done.triggered:  # crashed mid-execution; crash() settled the call
            node.pool.release(container)
            node._running -= 1
            return
        fault = self.fault
        if fault is not None and fault.kills:
            info.outcome = "container-kill"
            node.container_kills += 1
        node.pool.release(container)
        info.finished_at = node.env.now
        node.completed_count += 1
        node._running -= 1
        node._inflight.pop(done, None)
        done.succeed(info)
        # A container and possibly memory freed: retry the queue head.
        node._drain()
