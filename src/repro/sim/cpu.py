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
The bank is the hottest object in every experiment, so its bookkeeping is
engineered around two representations with identical floating-point
semantics:

* **scalar mode** (small populations) — parallel Python lists in insertion
  order, plain loops, and the reference water-filler
  (:func:`repro.sim.waterfill.waterfill_rates`);
* **vector mode** (large populations) — structure-of-arrays NumPy columns
  with tombstoned slots, elementwise kernels for work accounting, and
  vectorized water-filling rounds.

Every per-task floating-point chain (``work -= rate * elapsed``, shares,
ETAs) is op-for-op identical in both modes, and every reduction is a
sequential left-fold in slot order, so results do not depend on which mode
a population happens to be in.  Additional structures keep the common
regimes cheap:

* cached *exact* weight/cap sums — maintained as scaled integers while all
  live weights/caps are dyadic (the ``memory/256`` weights always are), so
  the uncontended fast path (everyone at cap) decides in O(1) with zero
  float error;
* an **ETA heap** keyed on projected completion times — while the bank
  stays in the all-at-cap regime, task rates are constant, so the earliest
  completion is found from a lazy heap instead of an O(n) scan;
* a :class:`~repro.sim.core.ReusableTimer` wake-up — re-arming tombstones
  the superseded calendar entry instead of leaving a stale ``Timeout`` to
  fire inertly.

:class:`DedicatedCPU` serves the paper's invoker, which never runs more
than ``cores`` tasks and gives each exactly one core.  That is
``SharedCPU``'s all-at-cap scalar path, and the dedicated bank reproduces
it step for step: the same ``work -= 1.0 * elapsed`` chain, the same
delivered/idle sums, the same completion order, and the same wake-up
arm/cancel calls at the same simulated moments, so results and calendar
sequence numbers are identical.  It keeps only a list of remaining works;
water-filling, the efficiency model, the exact-sum caches and the
rate/weight/cap columns are gone.  A task that would share a core raises.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import TYPE_CHECKING, Callable, List, Optional

import numpy as np

from repro.sim.events import Event
from repro.sim.waterfill import waterfill_rates

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.core import Environment

__all__ = ["CpuTask", "DedicatedCPU", "DedicatedTask", "SharedCPU", "linear_overhead_efficiency"]

#: Remaining work below this threshold counts as finished (core-seconds).
_EPS = 1e-9

#: Slack when testing a share against a cap (see repro.sim.waterfill).
_CAP_SLACK = 1e-12

#: Population size at which the bank switches lists -> NumPy columns, and
#: the (lower) size at which it switches back.  The hysteresis gap keeps a
#: population oscillating around the boundary from thrashing conversions.
_VECTOR_ENTER = 40
_SCALAR_EXIT = 16

#: Scale for exact dyadic bookkeeping of weight/cap sums: a value is
#: tracked as an integer multiple of 2**-20 when exactly representable.
_SCALE = float(1 << 20)
_INV_SCALE = 1.0 / _SCALE
_MAX_EXACT = float(1 << 52)

#: ETA-heap activation: build the heap once the all-at-cap regime has
#: persisted this many rebalances with at least this many tasks.
_HEAP_STREAK = 8
_HEAP_MIN_N = 64

#: Candidate window for the ETA heap's exact-minimum extraction: heap keys
#: are projected completion *estimates* whose drift from the exact chained
#: value is bounded by accumulated rounding (~1e-10 s for any realistic
#: event count); every entry within this much of the heap top is
#: re-evaluated exactly, so the returned horizon equals the exact scan's.
_ETA_MARGIN = 1e-6


def _exact_scaled(value: float) -> Optional[int]:
    """``value`` as an exact integer multiple of 2**-20, else ``None``."""
    scaled = value * _SCALE
    if -_MAX_EXACT < scaled < _MAX_EXACT and scaled == int(scaled):
        return int(scaled)
    return None


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

    Attributes
    ----------
    event:
        Triggers (with the task) when the work completes.
    rate:
        Cores currently allocated; maintained by the bank.
    """

    __slots__ = (
        "weight",
        "max_rate",
        "event",
        "started_at",
        "label",
        "_work",
        "_rate",
        "_bank",
        "_slot",
        "_wi",
        "_ci",
    )

    def __init__(
        self,
        work: float,
        weight: float,
        max_rate: float,
        event: Event,
        started_at: float,
        label: str = "",
    ) -> None:
        self._work = float(work)
        self.weight = float(weight)
        self.max_rate = float(max_rate)
        self.event = event
        self._rate = 0.0
        self.started_at = started_at
        self.label = label
        self._bank: Optional["SharedCPU"] = None
        self._slot = -1
        #: Weight and cap as exact scaled integers, cached by the bank's
        #: ``_add`` for its ``_remove`` while its sums are exact.
        self._wi: Optional[int] = None
        self._ci: Optional[int] = None

    @property
    def work(self) -> float:
        """Remaining demand in core-seconds (as of the bank's last
        accounting update)."""
        bank = self._bank
        if bank is None:
            return self._work
        return float(bank._works[self._slot])

    @work.setter
    def work(self, value: float) -> None:
        bank = self._bank
        if bank is None:
            self._work = float(value)
        else:
            bank._works[self._slot] = float(value)

    @property
    def rate(self) -> float:
        """Cores currently allocated; maintained by the bank."""
        bank = self._bank
        if bank is None:
            return self._rate
        return float(bank._rates[self._slot])

    @rate.setter
    def rate(self, value: float) -> None:
        bank = self._bank
        if bank is None:
            self._rate = float(value)
        else:
            bank._rates[self._slot] = float(value)

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
        #: Live tasks (membership view; columns below are authoritative).
        self._tasks: set = set()
        self._last_update = env.now
        #: Simulation time the bank came into existence (utilization basis).
        self.created_at = env.now
        # -- columns (scalar mode: Python lists, no holes) ----------------
        self._vector = False
        self._works: "List[float] | np.ndarray" = []
        self._rates: "List[float] | np.ndarray" = []
        self._weights: "List[float] | np.ndarray" = []
        self._caps: "List[float] | np.ndarray" = []
        self._slot_tasks: List[Optional[CpuTask]] = []
        self._alive: Optional[np.ndarray] = None  # vector mode only
        self._size = 0  # slots in use (== live count in scalar mode)
        self._n = 0  # live tasks
        # -- exact dyadic sum caches --------------------------------------
        self._w_exact = True
        self._cap_exact = True
        self._wsum_i = 0
        self._capsum_i = 0
        # -- regime tracking ----------------------------------------------
        self._all_at_cap = False
        self._cap_streak = 0
        self._eta_heap: Optional[list] = None
        self._heap_new: List[CpuTask] = []
        self._heap_seq = 0
        # -- wake-up ------------------------------------------------------
        self._wake_timer = env.timer(self._on_wake)
        #: Tasks discovered at/below the finish threshold by the last
        #: accounting update (consumed by ``_finish_done``).
        self._finish_pending: List[CpuTask] = []
        # -- statistics ---------------------------------------------------
        #: core-seconds of useful work delivered so far.
        self.delivered_work = 0.0
        #: integral of (cores - delivered rate) over time, i.e. idle core-seconds.
        self.idle_core_seconds = 0.0
        #: peak number of concurrently active tasks.
        self.peak_tasks = 0

    # ------------------------------------------------------------------
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
    ) -> CpuTask:
        """Submit *work* core-seconds; returns the task (``task.event`` fires
        on completion)."""
        if work < 0:
            raise ValueError(f"work must be non-negative, got {work!r}")
        if weight <= 0:
            raise ValueError(f"weight must be positive, got {weight!r}")
        if max_rate <= 0:
            raise ValueError(f"max_rate must be positive, got {max_rate!r}")
        task = CpuTask(work, weight, min(max_rate, self.cores), Event(self.env),
                       self.env.now, label)
        self._advance()
        if task._work <= _EPS:
            task.event.succeed(task)
            self._rebalance_and_arm()
            return task
        self._add(task)
        if self._n > self.peak_tasks:
            self.peak_tasks = self._n
        self._rebalance_and_arm()
        return task

    def cancel(self, task: CpuTask) -> None:
        """Abort an unfinished task; its event fails with ``RuntimeError``."""
        self._advance()
        if task in self._tasks:
            self._remove(task, finished=False)
            exc = RuntimeError("cpu task cancelled")
            task.event.fail(exc)
            task.event.defused = True
            self._rebalance_and_arm()

    # ------------------------------------------------------------------
    # Membership bookkeeping
    # ------------------------------------------------------------------
    def _add(self, task: CpuTask) -> None:
        self._tasks.add(task)
        if self._w_exact:
            wi = task._wi = _exact_scaled(task.weight)
            if wi is None:
                self._w_exact = False
            else:
                self._wsum_i += wi
        if self._cap_exact:
            ci = task._ci = _exact_scaled(task.max_rate)
            if ci is None:
                self._cap_exact = False
            else:
                self._capsum_i += ci
        if not self._vector and self._n >= _VECTOR_ENTER:
            self._to_vector()
        if self._vector:
            slot = self._size
            if slot == len(self._slot_tasks):
                self._grow()
            self._works[slot] = task._work
            self._rates[slot] = 0.0
            self._weights[slot] = task.weight
            self._caps[slot] = task.max_rate
            self._alive[slot] = True
            self._slot_tasks[slot] = task
            self._size = slot + 1
        else:
            slot = self._size
            self._works.append(task._work)
            self._rates.append(0.0)
            self._weights.append(task.weight)
            self._caps.append(task.max_rate)
            self._slot_tasks.append(task)
            self._size += 1
        task._bank = self
        task._slot = slot
        self._n += 1
        if self._eta_heap is not None:
            self._heap_new.append(task)

    def _remove(self, task: CpuTask, finished: bool) -> None:
        """Detach *task*, preserving its final work/rate on the object."""
        self._tasks.discard(task)
        slot = task._slot
        if self._vector:
            task._work = 0.0 if finished else float(self._works[slot])
            task._rate = float(self._rates[slot])
            # Dead-slot encoding chosen so full-slice kernels need no mask:
            # rate 0 makes the work update and rate left-fold no-ops, +inf
            # work keeps the slot out of finish detection and ETA minima,
            # zero weight/cap keeps it out of the water-filling sums.
            self._works[slot] = np.inf
            self._rates[slot] = 0.0
            self._weights[slot] = 0.0
            self._caps[slot] = 0.0
            self._alive[slot] = False
            self._slot_tasks[slot] = None
        else:
            task._work = 0.0 if finished else self._works[slot]
            task._rate = self._rates[slot]
            del self._works[slot]
            del self._rates[slot]
            del self._weights[slot]
            del self._caps[slot]
            del self._slot_tasks[slot]
            for t in self._slot_tasks[slot:]:
                t._slot -= 1
            self._size -= 1
        task._bank = None
        task._slot = -1
        self._n -= 1
        # A sum still exact now was exact when the task joined, so the
        # task's scaled values were cached then.
        if self._w_exact:
            self._wsum_i -= task._wi
        if self._cap_exact:
            self._capsum_i -= task._ci
        if self._n == 0:
            self._reset_columns()
        elif self._vector:
            if self._n <= _SCALAR_EXIT:
                self._to_scalar()
            elif self._size > 64 and (self._size - self._n) > self._n:
                self._compact()

    def _reset_columns(self) -> None:
        """Return the empty bank to pristine scalar mode."""
        self._vector = False
        self._works = []
        self._rates = []
        self._weights = []
        self._caps = []
        self._slot_tasks = []
        self._alive = None
        self._size = 0
        self._w_exact = True
        self._cap_exact = True
        self._wsum_i = 0
        self._capsum_i = 0
        self._all_at_cap = False
        self._cap_streak = 0
        self._eta_heap = None
        self._heap_new = []

    def _to_vector(self) -> None:
        """Lists -> NumPy columns (exact value copies, order preserved)."""
        n = self._size
        capacity = max(64, 1 << (n + 1).bit_length())
        works = np.zeros(capacity)
        rates = np.zeros(capacity)
        weights = np.zeros(capacity)
        caps = np.zeros(capacity)
        alive = np.zeros(capacity, dtype=bool)
        works[:n] = self._works
        rates[:n] = self._rates
        weights[:n] = self._weights
        caps[:n] = self._caps
        alive[:n] = True
        self._works, self._rates = works, rates
        self._weights, self._caps = weights, caps
        self._alive = alive
        self._slot_tasks = self._slot_tasks + [None] * (capacity - n)
        self._vector = True

    def _grow(self) -> None:
        capacity = max(64, 2 * len(self._slot_tasks))
        for name in ("_works", "_rates", "_weights", "_caps"):
            column = getattr(self, name)
            grown = np.zeros(capacity)
            grown[: self._size] = column[: self._size]
            setattr(self, name, grown)
        alive = np.zeros(capacity, dtype=bool)
        alive[: self._size] = self._alive[: self._size]
        self._alive = alive
        self._slot_tasks.extend([None] * (capacity - len(self._slot_tasks)))

    def _live_slots(self) -> np.ndarray:
        return np.nonzero(self._alive[: self._size])[0]

    def _compact(self) -> None:
        """Squeeze out dead slots, preserving insertion order."""
        live = self._live_slots()
        n = live.size
        for name in ("_works", "_rates", "_weights", "_caps"):
            column = getattr(self, name)
            column[:n] = column[live]
            column[n : self._size] = 0.0
        self._alive[:n] = True
        self._alive[n : self._size] = False
        tasks = [self._slot_tasks[s] for s in live]
        for slot, task in enumerate(tasks):
            task._slot = slot
        self._slot_tasks[:n] = tasks
        self._slot_tasks[n : self._size] = [None] * (self._size - n)
        self._size = n

    def _to_scalar(self) -> None:
        """NumPy columns -> lists (exact value copies, order preserved)."""
        live = self._live_slots()
        works = self._works[live].tolist()
        rates = self._rates[live].tolist()
        weights = self._weights[live].tolist()
        caps = self._caps[live].tolist()
        tasks = [self._slot_tasks[s] for s in live]
        for slot, task in enumerate(tasks):
            task._slot = slot
        self._works, self._rates = works, rates
        self._weights, self._caps = weights, caps
        self._slot_tasks = tasks
        self._alive = None
        self._size = len(tasks)
        self._vector = False

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def _advance(self) -> None:
        """Account for work done since the last update.

        Applies ``work -= rate * elapsed`` per task — op-for-op the same
        chain in either mode — accumulates delivered/idle core-seconds
        from the slot-order left-fold of rates, and records tasks that
        crossed the finish threshold in ``_finish_pending``.
        """
        now = self.env.now
        elapsed = now - self._last_update
        if elapsed > 0.0:
            total = 0.0
            if self._n:
                if self._vector:
                    size = self._size
                    works = self._works[:size]
                    rates = self._rates[:size]
                    works -= rates * elapsed
                    if self._all_at_cap and self._cap_exact:
                        # All rates sit at their (dyadic) caps: the cached
                        # integer sum equals the left-fold exactly.
                        total = self._capsum_i * _INV_SCALE
                    else:
                        total = float(np.add.accumulate(rates)[-1])
                    # Dead slots hold +inf work, so a plain minimum gates
                    # finish detection without a liveness mask.
                    if works.min() <= _EPS:
                        slot_tasks = self._slot_tasks
                        self._finish_pending = [
                            slot_tasks[s] for s in np.nonzero(works <= _EPS)[0]
                        ]
                else:
                    works = self._works
                    pending = self._finish_pending
                    for i, r in enumerate(self._rates):
                        if r != 0.0:
                            w = works[i] - r * elapsed
                            works[i] = w
                            total += r
                            if w <= _EPS:
                                pending.append(self._slot_tasks[i])
            self.delivered_work += total * elapsed
            self.idle_core_seconds += max(0.0, self.cores - total) * elapsed
        self._last_update = now

    def _finish_done(self) -> None:
        """Complete tasks flagged by the last :meth:`_advance` (insertion
        order)."""
        pending = self._finish_pending
        if pending:
            self._finish_pending = []
            for task in pending:
                if task._bank is self:
                    self._remove(task, finished=True)
                    task.event.succeed(task)

    # ------------------------------------------------------------------
    # Capacity allocation
    # ------------------------------------------------------------------
    def _rebalance(self) -> None:
        """Capped water-filling of capacity across active tasks."""
        n = self._n
        if n == 0:
            return
        eff = self._efficiency(n, self.cores) if self._efficiency else 1.0
        capacity = self.cores * eff
        if self._cap_exact:
            caps_sum = self._capsum_i * _INV_SCALE
        elif self._vector:
            # Dead slots hold cap 0.0 — identity elements of the left-fold.
            caps_sum = float(np.add.accumulate(self._caps[: self._size])[-1])
        else:
            caps_sum = 0.0
            for cap in self._caps:
                caps_sum += cap
        if caps_sum <= capacity:
            # Fast path: everyone runs at its cap (dead slots copy 0.0).
            if self._vector:
                self._rates[: self._size] = self._caps[: self._size]
            else:
                self._rates[:] = self._caps
            if self._all_at_cap:
                self._cap_streak += 1
            else:
                self._all_at_cap = True
                self._cap_streak = 1
            return
        self._all_at_cap = False
        self._cap_streak = 0
        self._eta_heap = None
        self._heap_new = []
        if not self._vector:
            self._rates[:] = waterfill_rates(self._weights, self._caps, capacity)
            return
        self._rebalance_vector(capacity)

    def _rebalance_vector(self, capacity: float) -> None:
        """Vectorized water-filling rounds (one NumPy pass per cap-frontier
        round instead of one Python pass per task per round).

        Floating-point semantics match :func:`waterfill_rates` on the live
        population in slot order: shares are computed elementwise with the
        same expression shape, the per-round weight sum is the same
        left-fold (or the exact cached value when all weights are dyadic),
        and capped tasks leave ``remaining`` by sequential subtraction.
        """
        size = self._size
        rates = self._rates[:size]
        weights = self._weights[:size]
        caps = self._caps[:size]
        remaining = capacity
        # First round on full slices: dead slots (weight 0 -> share 0,
        # cap 0) must be excluded from the capped test but cost nothing in
        # the sums, and in the common no-frontier case the whole allocation
        # is a single fused pass with no index gathers.
        if self._w_exact:
            weight_sum = self._wsum_i * _INV_SCALE
        else:
            weight_sum = float(np.add.accumulate(weights)[-1])
        shares = remaining * weights / weight_sum
        capped = shares >= caps - _CAP_SLACK
        capped &= self._alive[:size]
        if not capped.any():
            rates[:] = shares
            return
        idx = self._live_slots()
        exact = self._w_exact
        wsum_i = self._wsum_i
        capped = capped[idx]
        shares = shares[idx]
        while True:
            capped_idx = idx[capped]
            rates[capped_idx] = caps[capped_idx]
            for cap in caps[capped_idx].tolist():
                remaining -= cap
            if exact:
                for weight in weights[capped_idx].tolist():
                    wsum_i -= _exact_scaled(weight)
            idx = idx[~capped]
            if remaining <= 0:
                rates[idx] = 0.0
                return
            if not idx.size:
                return
            if exact:
                weight_sum = wsum_i * _INV_SCALE
            else:
                weight_sum = float(np.add.accumulate(weights[idx])[-1])
            shares = remaining * weights[idx] / weight_sum
            capped = shares >= caps[idx] - _CAP_SLACK
            if not capped.any():
                rates[idx] = shares
                return

    def _rebalance_and_arm(self) -> None:
        self._finish_done()
        self._rebalance()
        self._arm_wake()

    # ------------------------------------------------------------------
    # Wake-up scheduling
    # ------------------------------------------------------------------
    def _arm_wake(self) -> None:
        """(Re)schedule the wake-up at the earliest projected completion.

        Re-arming cancels the superseded calendar entry (a tombstone that
        never fires), replacing the historical allocate-and-version-check
        pattern.
        """
        if self._n == 0:
            self._wake_timer.cancel()
            return
        horizon: Optional[float] = None
        if self._all_at_cap:
            if (
                self._eta_heap is None
                and self._cap_streak >= _HEAP_STREAK
                and self._n >= _HEAP_MIN_N
            ):
                self._build_eta_heap()
            if self._eta_heap is not None:
                horizon = self._heap_horizon()
        if horizon is None:
            horizon = self._scan_horizon()
        if horizon is None:
            self._wake_timer.cancel()
            return
        self._wake_timer.arm(horizon if horizon > 0.0 else 0.0)

    def _scan_horizon(self) -> Optional[float]:
        """Exact earliest ETA by direct scan (any regime)."""
        if self._vector:
            # Full-slice division: zero-rate and dead slots produce +inf
            # (dead work is +inf anyway), which the minimum ignores.
            with np.errstate(divide="ignore", invalid="ignore"):
                etas = self._works[: self._size] / self._rates[: self._size]
                horizon = float(etas.min())
            return horizon if horizon != np.inf else None
        horizon = None
        works = self._works
        for i, r in enumerate(self._rates):
            if r > 0.0:
                eta = works[i] / r
                if horizon is None or eta < horizon:
                    horizon = eta
        return horizon

    def _build_eta_heap(self) -> None:
        """Index all live tasks by projected completion time.

        Valid only while the all-at-cap regime holds: rates are then
        constant across membership changes, so projected completions stay
        fixed (up to rounding drift, absorbed by ``_ETA_MARGIN``).
        """
        now = self.env.now
        works = self._works
        rates = self._rates
        seq = self._heap_seq
        heap = []
        for task in self._iter_live():
            slot = task._slot
            heap.append((now + float(works[slot]) / float(rates[slot]), seq, task))
            seq += 1
        heapify(heap)
        self._heap_seq = seq
        self._eta_heap = heap
        self._heap_new = []

    def _iter_live(self):
        if self._vector:
            slot_tasks = self._slot_tasks
            for slot in self._live_slots():
                yield slot_tasks[slot]
        else:
            yield from self._slot_tasks

    def _heap_horizon(self) -> Optional[float]:
        """Exact earliest ETA via the heap: every entry whose *estimated*
        completion lies within ``_ETA_MARGIN`` of the heap top is
        re-evaluated from the exact chained work, so the result equals
        :meth:`_scan_horizon` while touching O(candidates · log n) entries.
        """
        heap = self._eta_heap
        works = self._works
        rates = self._rates
        now = self.env.now
        for task in self._heap_new:
            if task._bank is self:
                slot = task._slot
                heappush(
                    heap,
                    (now + float(works[slot]) / float(rates[slot]), self._heap_seq, task),
                )
                self._heap_seq += 1
        self._heap_new = []
        while heap and heap[0][2]._bank is not self:
            heappop(heap)
        if not heap:
            return None
        limit = heap[0][0] + _ETA_MARGIN
        candidates = []
        while heap and heap[0][0] <= limit:
            entry = heappop(heap)
            if entry[2]._bank is self:
                candidates.append(entry)
        best: Optional[float] = None
        for _, seq, task in candidates:
            slot = task._slot
            eta = float(works[slot]) / float(rates[slot])
            heappush(heap, (now + eta, seq, task))
            if best is None or eta < best:
                best = eta
        return best

    def _on_wake(self) -> None:
        self._advance()
        self._rebalance_and_arm()


class DedicatedTask:
    """A unit of CPU demand holding one core of a :class:`DedicatedCPU`.

    ``event`` triggers (with the task) when the work completes.
    """

    __slots__ = ("event", "label")

    def __init__(self, event: Event, label: str) -> None:
        self.event = event
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
    ) -> DedicatedTask:
        """Submit *work* core-seconds on a core of its own; returns the
        task (``task.event`` fires on completion).  *weight* is accepted
        for :class:`SharedCPU` compatibility and has no effect."""
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
        task = DedicatedTask(Event(self.env), label)
        self._advance()
        if work <= _EPS:
            task.event.succeed(task)
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
            tasks = self._tasks
            done = [i for i, w in enumerate(works) if w <= _EPS]
            for i in done:
                task = tasks[i]
                task.event.succeed(task)
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
