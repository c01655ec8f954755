"""Warm/prewarm container pools with LRU eviction.

The pool makes synchronous placement decisions (which container serves a
call; which idle containers to evict to free memory) and owns the
hot→paused lifecycle timers.  Docker operations for placement (create,
our invoker's dispatch cycle) are executed by the caller via the
:class:`~repro.node.docker.DockerDaemon`; the pool itself fires the
background pause and remove operations.

Both invokers share one reuse discipline: a released container stays
*hot* for ``pause_grace_s`` and can be reused for free; it is then paused
by a background daemon ``pause`` and must be revived on reuse (the
baseline's cheap unpause, or our invoker's serialized dispatch cycle).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import count
from typing import TYPE_CHECKING, List, Literal, Optional

from repro.node.container import Container, ContainerState
from repro.sim.core import URGENT

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.core import Environment
    from repro.node.config import NodeConfig
    from repro.node.docker import DockerDaemon
    from repro.node.memory import MemoryPool
    from repro.workload.functions import FunctionSpec

__all__ = ["AcquirePlan", "ContainerPool"]

AcquireKind = Literal["hot", "warm", "prewarm", "cold"]

_HOT = ContainerState.HOT
_PAUSING = ContainerState.PAUSING
_PAUSED = ContainerState.PAUSED


@dataclass
class AcquirePlan:
    """Placement decision for one call.

    ``kind`` tells the invoker which docker/init steps it still has to
    perform before the container can run the call:

    * ``hot`` — none (container still unpaused from its previous call);
    * ``warm`` — revive a paused, initialized container;
    * ``prewarm`` — function initialisation in a prewarmed runtime shell;
    * ``cold`` — daemon ``create`` plus full in-container initialisation.
    """

    kind: AcquireKind
    container: Container


class ContainerPool:
    """All containers of one worker node."""

    def __init__(
        self,
        env: "Environment",
        config: "NodeConfig",
        daemon: "DockerDaemon",
        memory: "MemoryPool",
    ) -> None:
        self.env = env
        self.config = config
        self.daemon = daemon
        self.memory = memory
        #: All live containers (busy or warm), insertion order.
        self.containers: List[Container] = []
        #: Stamps containers as they join :attr:`containers`, so stamp
        #: order is their order there.
        self._joins = count()
        #: Idle warm containers, each mapped to its stamp: the eviction
        #: candidates, kept so that eviction never scans the whole node.
        self._idle: dict = {}
        #: Live containers grouped by function name, each group in the
        #: same relative (insertion) order as :attr:`containers` — the
        #: placement scan for a call touches only its own function's
        #: containers instead of the whole node.
        self._by_function: dict = {}
        #: Unspecialised prewarm shells.
        self.prewarm_shells: List[Container] = []
        # -- statistics ---------------------------------------------------
        self.cold_starts = 0
        self.prewarm_starts = 0
        self.warm_hits = 0
        self.hot_hits = 0
        self.evictions = 0
        self.creations = 0

    # ------------------------------------------------------------------
    # Bootstrap
    # ------------------------------------------------------------------
    def bootstrap_prewarm(self, count: Optional[int] = None) -> None:
        """Stock prewarmed runtime shells at node start (no daemon time)."""
        n = self.config.prewarm_stock if count is None else count
        for _ in range(n):
            if not self.memory.can_reserve(self.config.prewarm_memory_mb):
                break
            self.memory.reserve(self.config.prewarm_memory_mb)
            shell = Container(None, self.config.prewarm_memory_mb, self.env.now)
            shell.state = ContainerState.PAUSED
            self.prewarm_shells.append(shell)

    def seed_warm(self, spec: "FunctionSpec", count: int) -> int:
        """Warm-up: directly materialise *count* paused, initialized
        containers for *spec* (evicting LRU idle ones if memory requires).

        Models the paper's unmeasured warm-up calls (Sect. V-A).  Returns
        the number actually created.
        """
        created = 0
        for _ in range(count):
            if not self._ensure_memory(spec.memory_mb):
                break
            self.memory.reserve(spec.memory_mb)
            container = Container(spec, spec.memory_mb, self.env.now)
            container.state = ContainerState.PAUSED
            self.containers.append(container)
            self._index_add(container)
            self._idle[container] = container.stamp
            created += 1
        return created

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def _index_add(self, container: Container) -> None:
        """Stamp a (specialised) container that just joined
        :attr:`containers` and register it in the per-function index."""
        container.stamp = next(self._joins)
        self._by_function.setdefault(container.function.name, []).append(container)

    def warm_count(self, spec: "FunctionSpec") -> int:
        """Idle warm containers currently available for *spec*."""
        return sum(1 for c in self._by_function.get(spec.name, ()) if c.is_warm)

    def acquire(self, spec: "FunctionSpec", allow_prewarm: bool = True) -> Optional[AcquirePlan]:
        """Claim a container for a call of *spec*, or None if impossible.

        Preference order (paper Sect. III): hot container → paused warm
        container → prewarm shell → new container.  The returned container
        is already marked busy and its memory reserved.
        """
        # 1) warm container for this function: prefer HOT (free reuse),
        #    then the most-recently-used paused one.  The per-function
        #    index preserves insertion order, so ties on last_used resolve
        #    exactly as the historical whole-node scan did.  The scan
        #    spells out ``Container.is_warm`` (idle and HOT, PAUSING or
        #    PAUSED): it runs on every placement.
        best_hot: Optional[Container] = None
        best_paused: Optional[Container] = None
        for c in self._by_function.get(spec.name, ()):
            if c.busy:
                continue
            state = c.state
            if state is _HOT:
                if best_hot is None or c.last_used > best_hot.last_used:
                    best_hot = c
            elif state is _PAUSED or state is _PAUSING:
                if best_paused is None or c.last_used > best_paused.last_used:
                    best_paused = c
        if best_hot is not None:
            self._claim(best_hot)
            self.hot_hits += 1
            return AcquirePlan("hot", best_hot)
        if best_paused is not None:
            self._claim(best_paused)
            self.warm_hits += 1
            return AcquirePlan("warm", best_paused)

        # 2) prewarm shell (runtime present, function not initialized).
        if allow_prewarm and self.prewarm_shells:
            delta = spec.memory_mb - self.config.prewarm_memory_mb
            if delta <= 0 or self._ensure_memory(delta):
                shell = self.prewarm_shells.pop()
                if delta > 0:
                    self.memory.reserve(delta)
                elif delta < 0:
                    self.memory.release(-delta)
                shell.function = spec
                shell.memory_mb = spec.memory_mb
                shell.state = ContainerState.CREATING
                shell.busy = True
                shell.last_used = self.env.now
                self.containers.append(shell)
                self._index_add(shell)
                self.prewarm_starts += 1
                return AcquirePlan("prewarm", shell)

        # 3) new container (full cold start), evicting idle LRU if needed.
        if self._ensure_memory(spec.memory_mb):
            self.memory.reserve(spec.memory_mb)
            container = Container(spec, spec.memory_mb, self.env.now)
            container.busy = True
            self.containers.append(container)
            self._index_add(container)
            self.cold_starts += 1
            self.creations += 1
            return AcquirePlan("cold", container)
        return None

    def release(self, container: Container) -> None:
        """Return a container after a call: it stays HOT for the pause
        grace, then a background daemon ``pause`` moves it to PAUSED."""
        container.busy = False
        container.last_used = self.env.now
        container.calls_served += 1
        container.pause_version += 1
        container.state = _HOT
        self._idle[container] = container.stamp
        self.env.call_later(
            self.config.pause_grace_s, self._grace_expired, (container, container.pause_version)
        )

    # ------------------------------------------------------------------
    # Eviction
    # ------------------------------------------------------------------
    def idle_warm_containers(self) -> List[Container]:
        """Evictable containers, least-recently-used first.

        Ordered by ``(last_used, position in containers)``: ties on
        ``last_used`` (several releases at one instant) come out in
        :attr:`containers` order, as a stable sort of that list would
        give them, whatever order they were released in.
        """
        idle = self._idle
        if not idle:
            return []
        return sorted(idle, key=lambda c: (c.last_used, idle[c]))

    def evict(self, container: Container) -> None:
        """Remove *container*: memory freed now, daemon ``remove`` queued."""
        if container.busy:
            raise ValueError(f"cannot evict busy container {container!r}")
        container.state = ContainerState.DEAD
        container.pause_version += 1
        self.containers.remove(container)
        del self._idle[container]
        self._by_function[container.function.name].remove(container)
        self.memory.release(container.memory_mb)
        self.evictions += 1
        # The remove asks for the daemon from a zero-delay URGENT entry,
        # not here: the caller of acquire() issues its own create first.
        self.env.call_later(0.0, self._remove, None, URGENT)

    def _ensure_memory(self, amount_mb: int) -> bool:
        """Evict idle LRU containers until *amount_mb* fits; False if the
        pool cannot free enough (all remaining containers busy).

        When every idle container together cannot free enough, they are
        all evicted anyway (each costing a daemon ``remove``) before the
        call returns False.  As we read stock OpenWhisk's
        ``ContainerPool.remove``, it picks no victim unless the free
        containers' memory covers the request; this model keeps its
        historical behaviour, which the golden fingerprints pin.
        """
        if self.memory.can_reserve(amount_mb):
            return True
        for candidate in self.idle_warm_containers():
            self.evict(candidate)
            if self.memory.can_reserve(amount_mb):
                return True
        return self.memory.can_reserve(amount_mb)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _claim(self, container: Container) -> None:
        del self._idle[container]
        container.busy = True
        container.last_used = self.env.now
        container.pause_version += 1  # invalidate pending pause timers

    def _remove(self, _arg: None) -> None:
        self.daemon.op("remove")

    def _grace_expired(self, grace: tuple[Container, int]) -> None:
        container, version = grace
        if container.pause_version != version or container.busy:
            return  # reused (or evicted) in the meantime
        if container.state is not _HOT:
            return
        container.state = _PAUSING
        self.daemon.op("pause", None, partial(self._paused, container, version))

    @staticmethod
    def _paused(container: Container, version: int) -> None:
        if container.pause_version == version and not container.busy:
            if container.state is ContainerState.PAUSING:
                container.state = ContainerState.PAUSED
        # else: claimed mid-pause; the claimant's unpause happens after this
        # op anyway (docker serializes per-container state changes).
