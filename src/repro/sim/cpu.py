"""CPU banks: a malleable processor-sharing bank and a dedicated-core bank.

:class:`SharedCPU` models a multi-core worker node on which an arbitrary
number of tasks (container workloads) execute concurrently.  Each task
carries

* ``work`` — demand in core-seconds,
* ``weight`` — its fair-share weight (Linux CFS ``cpu.shares`` analogue;
  OpenWhisk sets this proportional to container memory),
* ``max_rate`` — an upper bound on the number of cores the task can use at
  once (1.0 for a single-threaded function container).

At every membership change the bank redistributes capacity by *capped
water-filling*: capacity proportional to weight, truncated at ``max_rate``,
with the surplus recursively redistributed.  An optional *efficiency*
function models context-switching/management overhead: with ``n`` active
tasks the bank delivers ``cores * efficiency(n, cores)`` core-seconds per
second in total.  This is the mechanism by which CPU oversubscription (the
OpenWhisk baseline) degrades, while the paper's 1-container-per-core policy
(``n <= cores``, each at rate 1) is overhead-free.

Implementation notes (details and measurements in docs/PERFORMANCE.md)
----------------------------------------------------------------------
``SharedCPU`` keeps its live tasks in parallel Python lists (task, remaining
work, rate, weight, cap) in insertion order, and every membership change
re-runs the reference water-filler
(:func:`repro.sim.waterfill.waterfill_rates`) over the weight and cap lists.
That order fixes every floating-point result: each task's
``work -= rate * elapsed`` chain, the delivered and idle core-seconds from
the left-fold of the rates, the completion order, and the wake-up at the
minimum ``work / rate``.  The wake-up is a
:class:`~repro.sim.core.ReusableTimer`: re-arming tombstones the superseded
calendar entry instead of leaving a stale one to fire inertly.  A task
submitted with ``then`` completes through a calendar entry that calls
``then(task)``, pushed at the moment the task finishes.

:class:`DedicatedCPU` serves the paper's invoker, which never runs more
than ``cores`` tasks and gives each exactly one core.  That is
``SharedCPU`` while every task runs at its cap of 1.0, and the dedicated
bank reproduces it step for step: the same ``work -= 1.0 * elapsed``
chain, the same delivered/idle sums, the same completion order, and the
same wake-up arm/cancel calls at the same simulated moments, so results
and calendar sequence numbers are identical.  It keeps only a list of
remaining works; water-filling, the efficiency model and the
rate/weight/cap columns are gone.  A task that would share a core raises.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, List, Optional

from repro.sim.waterfill import waterfill_rates

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.core import Environment

__all__ = ["CpuTask", "DedicatedCPU", "DedicatedTask", "SharedCPU", "linear_overhead_efficiency"]

#: Remaining work below this threshold counts as finished (core-seconds).
_EPS = 1e-9

#: What a finished task calls back: ``then(task)``.
Then = Optional[Callable[[Any], None]]


def linear_overhead_efficiency(kappa: float) -> Callable[[int, int], float]:
    """Efficiency model ``1 / (1 + kappa * max(0, n - cores) / cores)``.

    With ``kappa = 0`` the bank is perfectly work-conserving.  Positive
    ``kappa`` charges a throughput tax that grows with oversubscription,
    modelling OS context switches and docker management overhead
    (paper Sect. IV-A).
    """

    if kappa < 0:
        raise ValueError("kappa must be non-negative")

    def efficiency(n_tasks: int, cores: int) -> float:
        over = max(0, n_tasks - cores)
        return 1.0 / (1.0 + kappa * over / cores)

    return efficiency


class CpuTask:
    """A unit of CPU demand executing on a :class:`SharedCPU`.

    The calendar calls ``then(task)`` when the work completes.
    """

    __slots__ = ("weight", "max_rate", "then", "label", "_work", "_rate", "_bank")

    def __init__(
        self, work: float, weight: float, max_rate: float, then: Then = None, label: str = ""
    ) -> None:
        self._work = float(work)
        self.weight = float(weight)
        self.max_rate = float(max_rate)
        self.then = then
        self.label = label
        self._rate = 0.0
        #: The bank while the task is live; its columns then hold the
        #: task's work and rate.
        self._bank: Optional["SharedCPU"] = None

    @property
    def work(self) -> float:
        """Remaining demand in core-seconds (as of the bank's last
        accounting update)."""
        bank = self._bank
        if bank is None:
            return self._work
        return bank._works[bank._tasks.index(self)]

    @property
    def rate(self) -> float:
        """Cores currently allocated; maintained by the bank."""
        bank = self._bank
        if bank is None:
            return self._rate
        return bank._rates[bank._tasks.index(self)]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<CpuTask {self.label or id(self):#x} work={self.work:.4f} "
            f"rate={self.rate:.3f}>"
        )


class SharedCPU:
    """A bank of ``cores`` CPU cores shared by malleable tasks."""

    def __init__(
        self,
        env: "Environment",
        cores: int,
        efficiency: Optional[Callable[[int, int], float]] = None,
    ) -> None:
        if cores < 1:
            raise ValueError(f"cores must be >= 1, got {cores!r}")
        self.env = env
        self.cores = int(cores)
        self._efficiency = efficiency
        #: Live tasks and their columns: parallel lists in insertion order.
        self._tasks: List[CpuTask] = []
        self._works: List[float] = []
        self._rates: List[float] = []
        self._weights: List[float] = []
        self._caps: List[float] = []
        self._last_update = env.now
        #: Simulation time the bank came into existence (utilization basis).
        self.created_at = env.now
        self._wake_timer = env.timer(self._on_wake)
        #: Indices of the tasks the last accounting update found at or
        #: below the finish threshold (consumed by ``_finish_done``).
        self._finish_pending: List[int] = []
        #: core-seconds of useful work delivered so far.
        self.delivered_work = 0.0
        #: integral of (cores - delivered rate) over time, i.e. idle core-seconds.
        self.idle_core_seconds = 0.0
        #: peak number of concurrently active tasks.
        self.peak_tasks = 0

    @property
    def active_tasks(self) -> int:
        return len(self._tasks)

    def utilization(self) -> float:
        """Average fraction of the bank's cores kept busy since the bank
        was created."""
        horizon = self.env.now - self.created_at
        if horizon <= 0:
            return 0.0
        return self.delivered_work / (self.cores * horizon)

    def execute(
        self,
        work: float,
        weight: float = 1.0,
        max_rate: float = 1.0,
        label: str = "",
        then: Then = None,
    ) -> CpuTask:
        """Submit *work* core-seconds; returns the task.  On completion a
        calendar entry calls ``then(task)`` (none without *then*)."""
        if work < 0:
            raise ValueError(f"work must be non-negative, got {work!r}")
        if weight <= 0:
            raise ValueError(f"weight must be positive, got {weight!r}")
        if max_rate <= 0:
            raise ValueError(f"max_rate must be positive, got {max_rate!r}")
        task = CpuTask(work, weight, min(max_rate, self.cores), then, label)
        self._advance()
        if task._work <= _EPS:
            _complete(self.env, task)
        else:
            task._bank = self
            tasks = self._tasks
            tasks.append(task)
            self._works.append(task._work)
            self._rates.append(0.0)
            self._weights.append(task.weight)
            self._caps.append(task.max_rate)
            if len(tasks) > self.peak_tasks:
                self.peak_tasks = len(tasks)
        self._rebalance_and_arm()
        return task

    def _advance(self) -> None:
        """Account for work done since the last update.

        Applies ``work -= rate * elapsed`` to every task with a non-zero
        rate, adds the insertion-order left-fold of the rates to the
        delivered and idle core-seconds, and flags the tasks at or below
        the finish threshold in ``_finish_pending``.
        """
        now = self.env.now
        elapsed = now - self._last_update
        if elapsed > 0.0:
            total = 0.0
            works = self._works
            pending = self._finish_pending
            for i, r in enumerate(self._rates):
                if r != 0.0:
                    w = works[i] - r * elapsed
                    works[i] = w
                    total += r
                    if w <= _EPS:
                        pending.append(i)
            self.delivered_work += total * elapsed
            self.idle_core_seconds += max(0.0, self.cores - total) * elapsed
        self._last_update = now

    def _finish_done(self) -> None:
        """Complete the tasks flagged by the last :meth:`_advance`, in
        insertion order, and drop them from the columns."""
        done = self._finish_pending
        if done:
            self._finish_pending = []
            tasks, works, rates = self._tasks, self._works, self._rates
            weights, caps = self._weights, self._caps
            env = self.env
            for i in done:
                task = tasks[i]
                task._work = 0.0
                task._rate = rates[i]
                task._bank = None
                _complete(env, task)
            for i in reversed(done):
                del tasks[i], works[i], rates[i], weights[i], caps[i]

    def _rebalance(self) -> None:
        """Capped water-filling of ``cores * efficiency`` across the live
        tasks."""
        n = len(self._tasks)
        if n:
            eff = self._efficiency(n, self.cores) if self._efficiency else 1.0
            self._rates = waterfill_rates(self._weights, self._caps, self.cores * eff)

    def _rebalance_and_arm(self) -> None:
        self._finish_done()
        self._rebalance()
        self._arm_wake()

    def _arm_wake(self) -> None:
        """(Re)arm the wake-up at the earliest projected completion, or
        cancel it when no task is progressing."""
        horizon: Optional[float] = None
        works = self._works
        for i, r in enumerate(self._rates):
            if r > 0.0:
                eta = works[i] / r
                if horizon is None or eta < horizon:
                    horizon = eta
        if horizon is None:
            self._wake_timer.cancel()
        else:
            self._wake_timer.arm(horizon if horizon > 0.0 else 0.0)

    def _on_wake(self) -> None:
        self._advance()
        self._rebalance_and_arm()


class DedicatedTask:
    """A unit of CPU demand holding one core of a :class:`DedicatedCPU`.

    The calendar calls ``then(task)`` when the work completes.
    """

    __slots__ = ("then", "label")

    def __init__(self, then: Then, label: str) -> None:
        self.then = then
        self.label = label


class DedicatedCPU:
    """A bank of ``cores`` CPU cores, each running at most one task.

    Every task runs at rate 1.0 from submission to completion, so the bank
    is :class:`SharedCPU` restricted to its all-at-cap regime, with the
    same results (see the module docstring).  The restriction is checked:
    a task beyond ``cores`` live ones, or asking for ``max_rate != 1.0``,
    raises.
    """

    def __init__(self, env: "Environment", cores: int) -> None:
        if cores < 1:
            raise ValueError(f"cores must be >= 1, got {cores!r}")
        self.env = env
        self.cores = int(cores)
        #: Remaining work of each live task, and the task, in insertion order.
        self._works: List[float] = []
        self._tasks: List[DedicatedTask] = []
        self._last_update = env.now
        #: Simulation time the bank came into existence (utilization basis).
        self.created_at = env.now
        self._wake_timer = env.timer(self._on_wake)
        #: core-seconds of useful work delivered so far.
        self.delivered_work = 0.0
        #: integral of idle cores over time, in core-seconds.
        self.idle_core_seconds = 0.0
        #: peak number of concurrently active tasks.
        self.peak_tasks = 0

    @property
    def active_tasks(self) -> int:
        return len(self._tasks)

    def utilization(self) -> float:
        """Average fraction of the bank's cores kept busy since the bank
        was created."""
        horizon = self.env.now - self.created_at
        if horizon <= 0:
            return 0.0
        return self.delivered_work / (self.cores * horizon)

    def execute(
        self,
        work: float,
        weight: float = 1.0,
        max_rate: float = 1.0,
        label: str = "",
        then: Then = None,
    ) -> DedicatedTask:
        """Submit *work* core-seconds on a core of its own; returns the
        task.  On completion a calendar entry calls ``then(task)`` (none
        without *then*).  *weight* is accepted for :class:`SharedCPU`
        compatibility and has no effect."""
        if work < 0:
            raise ValueError(f"work must be non-negative, got {work!r}")
        if weight <= 0:
            raise ValueError(f"weight must be positive, got {weight!r}")
        if max_rate <= 0:
            raise ValueError(f"max_rate must be positive, got {max_rate!r}")
        if max_rate != 1.0:
            raise ValueError(
                f"a dedicated core runs tasks at rate 1.0, got max_rate={max_rate!r}"
            )
        work = float(work)
        tasks = self._tasks
        if work > _EPS and len(tasks) >= self.cores:
            raise RuntimeError(
                f"task {label!r} would be live task {len(tasks) + 1} "
                f"on {self.cores} dedicated cores"
            )
        task = DedicatedTask(then, label)
        self._advance()
        if work <= _EPS:
            _complete(self.env, task)
        else:
            self._works.append(work)
            tasks.append(task)
            n = len(tasks)
            if n > self.peak_tasks:
                self.peak_tasks = n
        self._settle()
        return task

    def _advance(self) -> None:
        """Account for work done since the last update: every live task
        ran on one core (``1.0 * elapsed`` is exactly ``elapsed``)."""
        now = self.env._now
        elapsed = now - self._last_update
        if elapsed > 0.0:
            works = self._works
            n = len(works)
            if n:
                self._works = [w - elapsed for w in works]
            self.delivered_work += n * elapsed
            self.idle_core_seconds += (self.cores - n) * elapsed
        self._last_update = now

    def _settle(self) -> None:
        """Complete tasks at or below the finish threshold (insertion
        order), then re-arm the wake-up at the earliest completion."""
        works = self._works
        if not works:
            self._wake_timer.cancel()
            return
        soonest = min(works)
        if soonest <= _EPS:
            tasks, env = self._tasks, self.env
            done = [i for i, w in enumerate(works) if w <= _EPS]
            for i in done:
                _complete(env, tasks[i])
            for i in reversed(done):
                del works[i]
                del tasks[i]
            if not works:
                self._wake_timer.cancel()
                return
            soonest = min(works)
        self._wake_timer.arm(soonest)

    def _on_wake(self) -> None:
        self._advance()
        self._settle()


def _complete(env: "Environment", task: "CpuTask | DedicatedTask") -> None:
    """Call ``task.then(task)`` from a zero-delay calendar entry."""
    if task.then is not None:
        env.call_later(0.0, task.then, task)
