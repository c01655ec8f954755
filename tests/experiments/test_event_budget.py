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
"""

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
