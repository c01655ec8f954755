"""Machine-speed calibration, so timings compare across host load.

The benchmark shares its host with other work, and the host's speed for
Python code moves by tens of percent within minutes (measured on a 2-vCPU
VM: the same cell took 78 ms in one minute and 113 ms in the next).  A
fixed pure-Python workload, timed between the measured pieces of work,
tells how fast the machine was at that moment.  It uses none of the
package's code, so a change to the program never changes it.  Its mix
resembles the program's: a heap-ordered event calendar driving generator
coroutines over slotted objects, float arithmetic, dict bookkeeping, and a
JSON round trip of record dicts.

Each timed piece of work is scaled by ``REFERENCE_S / c``, where ``c`` is
the mean of the calibrations taken just before and just after it: the
result is the time the work would have taken on a machine where the
calibration takes ``REFERENCE_S``.
"""

from __future__ import annotations

import gc
import heapq
import json
import statistics
import time
from typing import List

#: Calibration time of the reference machine (a quiet 2-vCPU VM), seconds.
REFERENCE_S = 0.006


class _Task:
    __slots__ = ("name", "work", "done")

    def __init__(self, name: str, work: float) -> None:
        self.name = name
        self.work = work
        self.done = 0.0


def _client(task: _Task, stats: dict):
    while task.done < task.work:
        step = min(0.25, task.work - task.done)
        task.done += step
        yield step
    stats[task.name] = stats.get(task.name, 0) + 1


def _simulate(tasks: int) -> int:
    calendar: list = []
    stats: dict = {}
    seq = 0
    for i in range(tasks):
        task = _Task(f"f{i % 11}", 0.5 + (i * 7919 % 13) / 4.0)
        heapq.heappush(calendar, (i * 0.01, seq, _client(task, stats)))
        seq += 1
    steps = 0
    while calendar:
        now, _, process = heapq.heappop(calendar)
        try:
            delay = next(process)
        except StopIteration:
            continue
        seq += 1
        steps += 1
        heapq.heappush(calendar, (now + delay, seq, process))
    records = [{"name": name, "count": count, "share": count / tasks} for name, count in stats.items()]
    return steps + len(json.loads(json.dumps(records * 40)))


def calibration_seconds() -> float:
    """Wall seconds of one fixed calibration workload (about 6 ms).

    The cyclic collector is off meanwhile: its cost depends on whatever
    the caller holds at that moment, not on the machine."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _simulate(600)
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


class SpeedMeter:
    """Calibrations taken between measured pieces of work, in this
    process: the host slows each vCPU on its own, and the work just timed
    most likely ran on the same one."""

    def __init__(self, repeats: int = 1) -> None:
        self.repeats = repeats
        self.samples: List[float] = []
        self._last = self._measure()

    def _measure(self) -> float:
        value = statistics.median(calibration_seconds() for _ in range(self.repeats))
        self.samples.append(value)
        return value

    def mark(self) -> None:
        """Calibrate now, as the start of the next timed piece of work."""
        self._last = self._measure()

    def factor(self) -> float:
        """Calibrate now; the scale factor for the work timed since the
        previous calibration."""
        now = self._measure()
        factor = 2 * REFERENCE_S / (self._last + now)
        self._last = now
        return factor

    def speed(self) -> float:
        """Median machine speed over the run, relative to the reference."""
        return REFERENCE_S / statistics.median(self.samples)

