"""Discrete-event simulation (DES) kernel.

This subpackage is a self-contained simulation kernel in the style of
SimPy, written from scratch because the reproduction must not depend on
packages outside the allowed set.  The per-call path (the platform's client
and each call's lifecycle on a node) is chains of calendar entries that
hold their callback, ``[time, priority, sequence, fn, arg]`` processed as
``fn(arg)``; events are left where something waits on an outcome, and
generator coroutines drive the cold path only (failure injector,
autoscaler, Table I's sequential client).  It holds what the simulator
runs:

* :class:`~repro.sim.core.Environment` — the calendar and clock, whose
  :meth:`~repro.sim.core.Environment.call_later` pushes a bare entry and
  :meth:`~repro.sim.core.Environment.call_soon` appends a zero-delay one
  to the lane beside the heap, and
  :class:`~repro.sim.core.ReusableTimer` — a re-armable calendar callback;
* :class:`~repro.sim.events.Event`, :class:`~repro.sim.events.Timeout` —
  one-shot events, whose entry runs their callback list;
* :class:`~repro.sim.process.Process` — coroutine processes driven by the
  calendar;
* :class:`~repro.sim.cpu.SharedCPU` — a malleable processor-sharing CPU bank
  used to model OS-level scheduling of containers on a worker node, and
  :class:`~repro.sim.cpu.DedicatedCPU` — the same bank restricted to one
  task per core, for the paper's invoker; ``execute(..., then=fn)`` has
  the calendar call ``fn(task)`` when the task completes;
* :class:`~repro.sim.rng.RngRegistry` — named, independently seeded random
  streams for reproducible experiments.

The one queued resource of the node model, the serialized Docker daemon,
keeps its own queue (:class:`repro.node.docker.DockerDaemon`).
"""

from repro.sim.core import Environment, ReusableTimer, SimulationError, StopSimulation
from repro.sim.events import Event, Timeout
from repro.sim.process import Process
from repro.sim.cpu import CpuTask, DedicatedCPU, SharedCPU, linear_overhead_efficiency
from repro.sim.rng import RngRegistry
from repro.sim.waterfill import waterfill_rates

__all__ = [
    "CpuTask",
    "DedicatedCPU",
    "Environment",
    "Event",
    "Process",
    "ReusableTimer",
    "RngRegistry",
    "SharedCPU",
    "SimulationError",
    "StopSimulation",
    "Timeout",
    "linear_overhead_efficiency",
    "waterfill_rates",
]
