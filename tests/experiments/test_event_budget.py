"""Per-call event budget and calendar peak of the paper's headline cells.

Counts the calendar entries processed (``Environment.step``) and the
processes started (``Environment.process``) per simulated call, the same
counters perfbench's tracer reports as ``sim.core.events_per_call`` and
``sim.process.processes_per_call``, and the events allocated
(``Event.__init__`` and ``Timeout.__init__``) per call.  The budgets pin the per-call
lifecycle described in docs/PERFORMANCE.md ("Per-call event path"): a
change that brings back calendar entries or processes which simulate
nothing fails here.  A call starts no process: each runs as a chain of
calendar callbacks (docs/PERFORMANCE.md, "Per-call path without
coroutines").  The process counter stays while the cold-path processes
(failure injector, autoscaler, Table I's sequential client) still start
through ``Environment.process``.  Every per-call wait is a bare calendar
entry that holds its callback (docs/PERFORMANCE.md, "Calendar entries as
callbacks"): the one event a call allocates is the invoker's ``done``
handle, and a cell adds one for the end of its workload.

The same patched ``step`` tracks the peak of
``Environment.scheduled_count``.  The arrival injector keeps one release
timeout armed at a time, so the calendar holds what is in flight, not
the whole workload, whether records are retained or streamed
(docs/PERFORMANCE.md, "One client path").

Beside the events, the Python frames entered per call (``sys.setprofile``
``"call"`` events) pin the interpreter work of the same cells: a property,
wrapper or helper call brought back between a calendar step and its data
fails here (docs/PERFORMANCE.md, "Fewer frames per call").
"""

import sys

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.sim.core import Environment
from repro.sim.events import Event, Timeout

#: policy -> (events per call, processes per call), on the 10-core v=60
#: seed-1 cell.
BUDGETS = {"FC": (12.7, 0.0), "baseline": (16.6, 0.0)}

#: ``Event`` and ``Timeout`` allocations per call on the same cells, either
#: policy: 1.002 (the ``done`` handle, plus the end of the workload).
MAX_EVENT_ALLOCATIONS = 1.05

#: Live calendar entries at any step of the same cell, in either mode.
#: The cell has 660 calls; pushing every release timeout up front held
#: 661 entries.
MAX_SCHEDULED = 40


@pytest.mark.parametrize("policy", sorted(BUDGETS))
def test_per_call_event_budget(policy, monkeypatch):
    counts = {}
    step, process = Environment.step, Environment.process
    event_init, timeout_init = Event.__init__, Timeout.__init__

    def counted_step(self):
        counts["step"] += 1
        counts["peak"] = max(counts["peak"], self.scheduled_count)
        return step(self)

    def counted_process(self, generator):
        counts["process"] += 1
        return process(self, generator)

    def counted_event_init(self, *args, **kwargs):
        counts["allocated"] += 1
        return event_init(self, *args, **kwargs)

    def counted_timeout_init(self, *args, **kwargs):
        counts["allocated"] += 1
        return timeout_init(self, *args, **kwargs)

    monkeypatch.setattr(Environment, "step", counted_step)
    monkeypatch.setattr(Environment, "process", counted_process)
    monkeypatch.setattr(Event, "__init__", counted_event_init)
    monkeypatch.setattr(Timeout, "__init__", counted_timeout_init)
    max_events, max_processes = BUDGETS[policy]
    for retain in (True, False):
        counts.update(step=0, process=0, peak=0, allocated=0)
        result = run_experiment(
            ExperimentConfig(cores=10, intensity=60, policy=policy, seed=1, retain_records=retain)
        )
        calls = result.accumulator.n_calls
        mode = "retained" if retain else "streaming"
        assert counts["step"] / calls <= max_events, mode
        assert counts["process"] / calls <= max_processes, mode
        assert counts["allocated"] / calls <= MAX_EVENT_ALLOCATIONS, mode
        assert counts["peak"] <= MAX_SCHEDULED, mode


#: policy -> Python frames entered per call on the same cells, either
#: mode: 102.3 (FC) and 128.2 (baseline).
FRAME_BUDGETS = {"FC": 106, "baseline": 135}

#: Comprehension frames, left out of the count: Python 3.12 inlines them
#: (PEP 709), so with them left out one bound holds on every version.
INLINED = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>"})


@pytest.mark.parametrize("policy", sorted(FRAME_BUDGETS))
def test_per_call_frame_budget(policy):
    frames = 0

    def profile(frame, event, _arg):
        nonlocal frames
        if event == "call" and frame.f_code.co_name not in INLINED:
            frames += 1

    # A first run imports what the cell loads lazily; those frames are
    # not the cell's.
    run_experiment(ExperimentConfig(cores=10, intensity=60, policy=policy, seed=1))
    for retain in (True, False):
        config = ExperimentConfig(
            cores=10, intensity=60, policy=policy, seed=1, retain_records=retain
        )
        frames = 0
        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            result = run_experiment(config)
        finally:
            sys.setprofile(previous)
        mode = "retained" if retain else "streaming"
        assert frames / result.accumulator.n_calls <= FRAME_BUDGETS[policy], mode
