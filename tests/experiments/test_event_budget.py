"""Per-call event budget of the paper's headline cells.

Counts the calendar entries processed (``Environment.step``) and the
processes started (``Environment.process``) per simulated call, the same
counters perfbench's tracer reports as ``sim.core.events_per_call`` and
``sim.process.processes_per_call``.  The budgets pin the per-call
lifecycle described in docs/PERFORMANCE.md ("Per-call event path"): a
change that brings back calendar entries or processes which simulate
nothing fails here.
"""

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.sim.core import Environment

#: policy -> (events per call, processes per call), on the 10-core v=60
#: seed-1 cell.
BUDGETS = {"FC": (14.5, 1.5), "baseline": (18.0, 1.9)}


@pytest.mark.parametrize("policy", sorted(BUDGETS))
def test_per_call_event_budget(policy, monkeypatch):
    counts = {"step": 0, "process": 0}
    step, process = Environment.step, Environment.process

    def counted_step(self):
        counts["step"] += 1
        return step(self)

    def counted_process(self, generator):
        counts["process"] += 1
        return process(self, generator)

    monkeypatch.setattr(Environment, "step", counted_step)
    monkeypatch.setattr(Environment, "process", counted_process)
    result = run_experiment(ExperimentConfig(cores=10, intensity=60, policy=policy, seed=1))
    calls = len(result.records)
    max_events, max_processes = BUDGETS[policy]
    assert counts["step"] / calls <= max_events
    assert counts["process"] / calls <= max_processes
