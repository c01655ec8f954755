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

Everything else — receipt, crash and recovery, and every step of an
attempt from a placed container onwards — is the
:class:`~repro.node.invoker._Node` lifecycle our invoker runs too.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import TYPE_CHECKING, Deque, List, Optional

from repro.node.invoker import _Attempt, _Node, _Queued
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


class BaselineInvoker(_Node):
    """Stock OpenWhisk worker-node resource manager.

    Each placed call runs as an :class:`~repro.node.invoker._Attempt`
    whose CPU weight is its container's memory over 256 MB and whose
    daemon operations are served in receipt order.  An attempt checks for
    a crash at :meth:`_start` and at finish only.
    """

    is_baseline = True
    crash_check_at_placement = False

    def __init__(
        self,
        env: "Environment",
        config: "NodeConfig",
        name: str = "baseline-0",
    ) -> None:
        super().__init__(env, config, name)
        self.cpu = SharedCPU(
            env, config.cores, efficiency=linear_overhead_efficiency(config.kappa)
        )
        self.pool.bootstrap_prewarm()
        self.queue: Deque[_Queued] = deque()

    def warm_up(self, specs: "List[FunctionSpec]", per_function: Optional[int] = None) -> None:
        """Same warm-up protocol as our invoker: up to ``cores`` warm
        containers per function (the baseline keeps no runtime history, so
        only containers are seeded)."""
        count = self.config.cores if per_function is None else per_function
        for spec in specs:
            self.pool.seed_warm(spec, count)

    def submit(self, request: "Request", fault: "Optional[AttemptFault]" = None) -> Event:
        """Receive a call; greedy immediate placement, else FIFO queue.
        Returns the call's ``done`` handle.  *fault* (failure injection
        only) degrades or kills this attempt's container — see
        docs/FAILURES.md."""
        done, info = self._receive(request)
        self.queue.append((request, info, done, fault))
        self._dispatch()
        return done

    def _pop(self) -> _Queued:
        return self.queue.popleft()

    def _dispatch(self) -> None:
        """Place queued requests head-first while the greedy algorithm
        succeeds; the head blocks the queue when it cannot be placed
        (it waits for a freed container or freed memory)."""
        if not self.live:
            return
        queue = self.queue
        while queue:
            request, info, done, fault = queue[0]
            plan = self.pool.acquire(request.function, allow_prewarm=True)
            if plan is None:
                break
            queue.popleft()
            info.start_kind = plan.kind
            container = plan.container
            weight = container.memory_mb / _STD_MEMORY_MB
            self._launch(
                _Attempt(self, request, info, done, fault, info.received_at, weight, container),
                self._start,
            )

    def _start(self, attempt: _Attempt) -> None:
        """First step: crash check, then by the plan's kind: nothing for a
        hot container; daemon ``dispatch`` then :meth:`_unpause` for a
        warm one; daemon ``create`` for a cold start; the unpause latency
        for a prewarm shell."""
        if attempt.done.triggered:  # the node crashed meanwhile
            attempt.abandon()
            return
        kind = attempt.info.start_kind
        if kind == "hot":
            attempt.placed()
        elif kind == "warm":
            # Reviving a paused container needs a (cheap) serialized daemon
            # cycle plus the unpause latency; only *hot* reuse is free.
            self.daemon.op("dispatch", attempt.priority, partial(self._unpause, attempt))
        elif kind == "cold":
            self.daemon.op("create", attempt.priority, attempt.initialise)
        else:  # "prewarm": shells sit paused
            self.env.call_later(self.config.unpause_latency_s, attempt.initialise)

    def _unpause(self, attempt: _Attempt) -> None:
        self.env.call_later(self.config.unpause_latency_s, attempt.placed)

    # The baseline replenishes its prewarm stock in the background; we
    # model a fixed initial stock only — under the paper's workloads the
    # stock is consumed in the first seconds of a burst either way.
