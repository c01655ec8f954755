"""Discrete-event simulation (DES) kernel.

This subpackage is a self-contained, generator-coroutine based simulation
kernel in the style of SimPy, written from scratch because the reproduction
must not depend on packages outside the allowed set.  It provides:

* :class:`~repro.sim.core.Environment` — the event calendar and clock;
* :class:`~repro.sim.events.Event`, :class:`~repro.sim.events.Timeout`,
  :class:`~repro.sim.events.AnyOf`, :class:`~repro.sim.events.AllOf` —
  one-shot events and combinators;
* :class:`~repro.sim.process.Process` / :class:`~repro.sim.process.Interrupt`
  — coroutine processes driven by the calendar;
* :class:`~repro.sim.resources.Resource`,
  :class:`~repro.sim.resources.PriorityResource`,
  :class:`~repro.sim.resources.Store`,
  :class:`~repro.sim.resources.PriorityStore` — queued resources;
* :class:`~repro.sim.cpu.SharedCPU` — a malleable processor-sharing CPU bank
  used to model OS-level scheduling of containers on a worker node, and
  :class:`~repro.sim.cpu.DedicatedCPU` — the same bank restricted to one
  task per core, for the paper's invoker;
* :class:`~repro.sim.rng.RngRegistry` — named, independently seeded random
  streams for reproducible experiments.
"""

from repro.sim.core import Environment, ReusableTimer, SimulationError, StopSimulation
from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.process import Interrupt, Process
from repro.sim.resources import (
    PriorityResource,
    PriorityStore,
    Resource,
    Store,
    StorePutEvent,
    StoreGetEvent,
)
from repro.sim.cpu import CpuTask, DedicatedCPU, SharedCPU, linear_overhead_efficiency
from repro.sim.rng import RngRegistry
from repro.sim.waterfill import waterfill_rates

__all__ = [
    "AllOf",
    "AnyOf",
    "CpuTask",
    "DedicatedCPU",
    "Environment",
    "Event",
    "Interrupt",
    "PriorityResource",
    "PriorityStore",
    "Process",
    "Resource",
    "ReusableTimer",
    "RngRegistry",
    "SharedCPU",
    "SimulationError",
    "StopSimulation",
    "Store",
    "StoreGetEvent",
    "StorePutEvent",
    "Timeout",
    "linear_overhead_efficiency",
    "waterfill_rates",
]
