"""Bit-for-bit goldens of the two CPU banks.

The cell goldens compare ``cpu_utilization`` only within a tolerance, so
they leave the banks' ``delivered_work`` and ``idle_core_seconds`` folds
unpinned.  These goldens pin them exactly.  Seeded churn runs of
:class:`~repro.sim.cpu.SharedCPU` (kappa 0 and 0.7, mixed caps, dyadic and
non-dyadic weights, up to about 80 live tasks, works at and below the
finish threshold, simultaneous arrivals) and the streams of
``test_dedicated_cpu.py`` on :class:`~repro.sim.cpu.DedicatedCPU` record
every completion's ``(time, label)``, both folds, ``peak_tasks`` and the
calendar's next sequence number, floats as ``float.hex``.  The fixture
``tests/data/bank_goldens.json`` was captured from the banks before their
per-change steps were fused into one.

Recapture only when the banks' model changes on purpose::

    PYTHONPATH=src python -m tests.sim.test_bank_goldens --write
"""

import json
import sys
from pathlib import Path

import pytest

from repro.sim import DedicatedCPU, Environment, SharedCPU, linear_overhead_efficiency
from repro.sim.rng import RngRegistry
from tests.sim.test_dedicated_cpu import drive, make_streams

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "data" / "bank_goldens.json"

#: Works at and below the finish threshold (1e-9 core-seconds).
TINY_WORKS = [0.0, 1e-12, 5e-10, 1e-9]

DYADIC = [0.5, 1.0, 2.0]
NON_DYADIC = [0.3, 0.7, 1.1, 2.9]

#: name -> (seed, cores, kappa, weights, caps, open arrivals); kappa None
#: builds the bank without an efficiency model.
SHARED_CASES = {
    "dyadic-unit-caps-k0": (1, 8, 0.0, DYADIC, [1.0], 160),
    "dyadic-unit-caps-k0.7": (2, 8, 0.7, DYADIC, [1.0], 100),
    "mixed-weights-mixed-caps-k0": (3, 6, 0.0, DYADIC + NON_DYADIC, [0.5, 1.0, 2.0], 120),
    "non-dyadic-mixed-caps-k0.7": (4, 4, 0.7, NON_DYADIC, [0.5, 1.0, 1.7, 3.0], 80),
    "no-efficiency-model": (5, 3, None, DYADIC + NON_DYADIC, [0.25, 1.0, 2.5], 60),
}

#: name -> (seed, cores, tasks per worker), as in test_dedicated_cpu.py.
DEDICATED_CASES = {
    **{f"streams-{seed}": (seed, 1 + seed % 8, 30) for seed in range(12)},
    "wide-48": (99, 48, 10),
}


def _plan(rng, weights, caps, n_open, n_chains, chain_len, horizon):
    """Every task's submission, drawn before the run: open arrivals
    ``(at, work, weight, cap, label)`` (half on a coarse grid, so several
    share a timestamp) and closed chains, whose next task is submitted
    from the previous one's completion."""

    def task():
        if rng.random() < 0.08:
            work = float(rng.choice(TINY_WORKS))
        else:
            work = float(rng.uniform(0.01, 3.0))
        return work, float(rng.choice(weights)), float(rng.choice(caps))

    grid = [0.0, 0.5, 1.0, 2.5, 4.0, 7.5]
    arrivals = []
    for k in range(n_open):
        at = float(rng.choice(grid)) if rng.random() < 0.5 else float(rng.uniform(0.0, horizon))
        arrivals.append((at, *task(), f"o{k}"))
    chains = [[(*task(), f"c{c}.{k}") for k in range(chain_len)] for c in range(n_chains)]
    return arrivals, chains


def run_shared(seed, cores, kappa, weights, caps, n_open):
    """One churn run; returns (record, the task counts ``efficiency`` was
    called with)."""
    rng = RngRegistry(seed).get("bank-goldens")
    arrivals, chains = _plan(rng, weights, caps, n_open, 6, 25, 20.0)
    env = Environment()
    model = None if kappa is None else linear_overhead_efficiency(kappa)
    calls = []

    def efficiency(n_tasks, n_cores):
        calls.append(n_tasks)
        return model(n_tasks, n_cores)

    bank = SharedCPU(env, cores, efficiency=efficiency if model else None)
    completions = []

    def submit(spec, then):
        work, weight, cap, label = spec
        bank.execute(work, weight=weight, max_rate=cap, label=label, then=then)

    def finished(task):
        completions.append((env.now.hex(), task.label))

    def chain(plan):
        def next_task(k):
            if k < len(plan):
                submit(plan[k], lambda task: (finished(task), next_task(k + 1)))

        return next_task

    for at, *spec in arrivals:
        env.call_later(at, lambda spec: submit(spec, finished), spec)
    for plan in chains:
        env.call_later(0.0, chain(plan), 0)
    env.run()
    record = {
        "completions": completions,
        "delivered_work": bank.delivered_work.hex(),
        "idle_core_seconds": bank.idle_core_seconds.hex(),
        "peak_tasks": bank.peak_tasks,
        "next_sequence": env._next_eid(),
    }
    return record, calls


def run_dedicated(seed, cores, tasks_per_worker):
    out = drive(DedicatedCPU(Environment(), cores), make_streams(seed, cores, tasks_per_worker))
    return {
        "completions": [(at.hex(), label) for at, label in out["completions"]],
        "delivered_work": out["delivered_work"].hex(),
        "idle_core_seconds": out["idle_core_seconds"].hex(),
        "peak_tasks": out["peak_tasks"],
        "next_sequence": out["calendar_entries"],
    }


def capture():
    """The fixture's text: one line per case, so a diff names the case."""
    lines = ['{"comment": "Exact CPU-bank outcomes; see tests/sim/test_bank_goldens.py.",']
    for bank, run, cases in (
        ("shared", lambda *args: run_shared(*args)[0], SHARED_CASES),
        ("dedicated", run_dedicated, DEDICATED_CASES),
    ):
        records = (f"  {json.dumps(name)}: {json.dumps(run(*a))}" for name, a in cases.items())
        lines += [f' "{bank}": {{', ",\n".join(records), " },"]
    lines[-1] = " }"
    return "\n".join(lines + ["}\n"])


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def _jsonable(record):
    """*record* as the fixture holds it (JSON has no tuples)."""
    return json.loads(json.dumps(record))


@pytest.mark.parametrize("name", sorted(SHARED_CASES))
def test_shared_bank_matches_golden(name, golden):
    record, calls = run_shared(*SHARED_CASES[name])
    assert _jsonable(record) == golden["shared"][name]
    if SHARED_CASES[name][2] is not None:
        # The capacity is computed once per live-task count: every count
        # from 1 to the peak is reached one arrival at a time.
        assert sorted(calls) == list(range(1, record["peak_tasks"] + 1))


@pytest.mark.parametrize("name", sorted(DEDICATED_CASES))
def test_dedicated_bank_matches_golden(name, golden):
    assert _jsonable(run_dedicated(*DEDICATED_CASES[name])) == golden["dedicated"][name]


def test_cases_cover_the_regimes(golden):
    records = golden["shared"].values()
    assert 70 <= max(record["peak_tasks"] for record in records) <= 100
    for record in records:
        times = [at for at, _ in record["completions"]]
        assert len(set(times)) < len(times)  # simultaneous completions
    # A tiny work submitted at time 0 completes on arrival.
    assert any(at == (0.0).hex() for record in records for at, _ in record["completions"])


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python -m tests.sim.test_bank_goldens --write")
    GOLDEN_PATH.write_text(capture(), encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")
