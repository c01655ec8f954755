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
from repro.sim.cpu import SharedCPU, linear_overhead_efficiency
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.failures.rng import AttemptFault
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
        (it waits for a freed container or freed memory)."""
        if not self.live:
            return
        while self._queue:
            request, info, done, fault = self._queue[0]
            plan = self.pool.acquire(request.function, allow_prewarm=True)
            if plan is None:
                break
            self._queue.popleft()
            self._running += 1
            self._inflight[done] = info
            self.env.process(self._run(request, info, done, plan, fault))

    def _run(
        self,
        request: "Request",
        info: NodeCallInfo,
        done: Event,
        plan,
        fault: "Optional[AttemptFault]" = None,
    ):
        env = self.env
        container = plan.container
        if done.triggered:  # node crashed before this process first ran
            self.pool.release(container)
            self._running -= 1
            return
        info.dispatched_at = env.now
        info.start_kind = plan.kind
        weight = container.memory_mb / _STD_MEMORY_MB

        if self.config.invoker_overhead_s:
            yield env.timeout(self.config.invoker_overhead_s)
        if done.triggered:  # node crashed while we slept
            self.pool.release(container)
            self._running -= 1
            return

        if plan.kind == "warm":
            # Reviving a paused container needs a (cheap) serialized daemon
            # cycle plus the unpause latency; only *hot* reuse is free.
            yield from self.daemon.op("dispatch", priority=info.received_at)
            yield env.timeout(self.config.unpause_latency_s)
        elif plan.kind == "cold":
            yield from self.daemon.op("create", priority=info.received_at)
            yield env.timeout(self.config.cold_init_latency_s)
            if self.config.cold_init_cpu_s:
                task = self.cpu.execute(
                    self.config.cold_init_cpu_s, weight=weight, label="cold-init"
                )
                yield task.event
        elif plan.kind == "prewarm":
            yield env.timeout(self.config.unpause_latency_s)  # shells sit paused
            yield env.timeout(self.config.prewarm_init_latency_s)
            if self.config.prewarm_init_cpu_s:
                task = self.cpu.execute(
                    self.config.prewarm_init_cpu_s, weight=weight, label="prewarm-init"
                )
                yield task.event
        container.state = ContainerState.HOT

        # -- execute: CPU share proportional to memory, capped at 1 core --
        system_work = self.config.system_cpu_coeff_s * max(
            0, min(self._running, self.config.cores) - 1
        )
        if system_work > 0:
            task = self.cpu.execute(system_work, weight=weight, label="system")
            yield task.event
        info.exec_start = env.now
        io_time = request.io_time if fault is None else fault.scale(request.io_time)
        cpu_work = request.cpu_work if fault is None else fault.scale(request.cpu_work)
        if io_time > 0:
            yield env.timeout(io_time)
        if cpu_work > 0:
            task = self.cpu.execute(
                cpu_work,
                weight=weight,
                max_rate=1.0,
                label=request.function.name,
            )
            yield task.event
        info.exec_end = env.now
        if done.triggered:  # crashed mid-execution; crash() settled the call
            self.pool.release(container)
            self._running -= 1
            return
        if fault is not None and fault.kills:
            info.outcome = "container-kill"
            self.container_kills += 1

        self.pool.release(container)
        info.finished_at = env.now
        self.completed_count += 1
        self._running -= 1
        self._inflight.pop(done, None)
        done.succeed(info)
        # A container and possibly memory freed: retry the queue head.
        self._drain()

    # The baseline replenishes its prewarm stock in the background; we
    # model a fixed initial stock only — under the paper's workloads the
    # stock is consumed in the first seconds of a burst either way.
