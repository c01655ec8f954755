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
second in total (computed once per ``n``, so the function must be pure).
This is the mechanism by which CPU oversubscription (the OpenWhisk
baseline) degrades, while the paper's 1-container-per-core policy
(``n <= cores``, each at rate 1) is overhead-free.

Implementation notes (details and measurements in docs/PERFORMANCE.md)
----------------------------------------------------------------------
``SharedCPU`` keeps its live tasks in parallel Python lists (task, remaining
work, rate, weight, cap) in insertion order.  Each membership change (a
submission or the wake-up) is one ``_step``, which re-runs the reference
water-filler (:func:`repro.sim.waterfill.waterfill_rates`) over the weight
and cap lists.  That order fixes every floating-point result: each task's
``work -= rate * elapsed`` chain, the delivered and idle core-seconds from
the left-fold of the rates, the completion order, and the wake-up at the
minimum ``work / rate``.  The wake-up is a
:class:`~repro.sim.core.ReusableTimer`: re-arming tombstones the superseded
calendar entry instead of leaving a stale one to fire inertly.  A task
submitted with ``then`` completes through a calendar entry that calls
``then(task)``, put in the calendar's zero-delay lane
(:meth:`~repro.sim.core.Environment.call_soon`) at the moment the task
finishes.

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

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

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
        #: ``cores * efficiency(n, cores)`` by live-task count *n*
        #: (``efficiency`` must be pure).
        self._capacity: Dict[int, float] = {}
        self._wake_timer = env.timer(self._step)
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
        self._step(task)
        return task

    def _step(self, task: Optional[CpuTask] = None) -> None:
        """One membership change, the submission of *task* or the wake-up:
        advance every live task, complete *task* if it has no work left and
        then the finished tasks, water-fill, and arm or cancel the wake-up
        at the earliest projected completion."""
        env = self.env
        now = env.now
        elapsed = now - self._last_update
        self._last_update = now
        tasks, works, rates = self._tasks, self._works, self._rates
        done = []
        if elapsed > 0.0:
            total = 0.0
            for i, r in enumerate(rates):
                w = works[i] - r * elapsed
                works[i] = w
                total += r
                if w <= _EPS:
                    done.append(i)
            self.delivered_work += total * elapsed
            idle = self.cores - total
            if idle > 0.0:
                self.idle_core_seconds += idle * elapsed
        if task is not None:
            if task._work <= _EPS:
                if task.then is not None:
                    env.call_soon(task.then, task)
            else:
                task._bank = self
                tasks.append(task)
                works.append(task._work)
                self._weights.append(task.weight)
                self._caps.append(task.max_rate)
                if len(tasks) > self.peak_tasks:
                    self.peak_tasks = len(tasks)
        if done:
            weights, caps = self._weights, self._caps
            for i in done:
                finished = tasks[i]
                finished._work = 0.0
                finished._rate = rates[i]
                finished._bank = None
                if finished.then is not None:
                    env.call_soon(finished.then, finished)
            for i in reversed(done):
                del tasks[i], works[i], rates[i], weights[i], caps[i]
        n = len(tasks)
        horizon: Optional[float] = None
        if n:
            capacity = self._capacity.get(n)
            if capacity is None:
                eff = self._efficiency(n, self.cores) if self._efficiency else 1.0
                capacity = self._capacity[n] = self.cores * eff
            rates = self._rates = waterfill_rates(self._weights, self._caps, capacity)
            for w, r in zip(works, rates):
                if r > 0.0:
                    eta = w / r
                    if horizon is None or eta < horizon:
                        horizon = eta
        if horizon is None:
            self._wake_timer.cancel()
        else:
            self._wake_timer.arm(horizon if horizon > 0.0 else 0.0)


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
        self._wake_timer = env.timer(self._step)
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
        self._step(task, work)
        return task

    def _step(self, task: Optional[DedicatedTask] = None, work: float = 0.0) -> None:
        """One membership change, the submission of *task* with *work* or
        the wake-up, as in :meth:`SharedCPU._step` with every rate 1.0
        (``1.0 * elapsed`` is exactly ``elapsed``)."""
        env = self.env
        now = env.now
        elapsed = now - self._last_update
        self._last_update = now
        works, tasks = self._works, self._tasks
        if elapsed > 0.0:
            n = len(works)
            if n:
                works = self._works = [w - elapsed for w in works]
            self.delivered_work += n * elapsed
            self.idle_core_seconds += (self.cores - n) * elapsed
        if task is not None:
            if work <= _EPS:
                if task.then is not None:
                    env.call_soon(task.then, task)
            else:
                works.append(work)
                tasks.append(task)
                if len(tasks) > self.peak_tasks:
                    self.peak_tasks = len(tasks)
        if not works:
            self._wake_timer.cancel()
            return
        soonest = min(works)
        if soonest <= _EPS:
            done = [i for i, w in enumerate(works) if w <= _EPS]
            for i in done:
                finished = tasks[i]
                if finished.then is not None:
                    env.call_soon(finished.then, finished)
            for i in reversed(done):
                del works[i], tasks[i]
            if not works:
                self._wake_timer.cancel()
                return
            soonest = min(works)
        self._wake_timer.arm(soonest)
