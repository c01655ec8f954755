"""Tests for the dedicated-core CPU bank.

:class:`~repro.sim.cpu.DedicatedCPU` must behave exactly like
:class:`~repro.sim.cpu.SharedCPU` (configured as the paper's invoker used
to configure it) whenever no core is shared: the same completion times
compared with ``==``, the same completion order, the same accounting, and
the same calendar entries.  ``SharedCPU`` is the oracle; seeded streams
from :class:`~repro.sim.rng.RngRegistry` drive both banks on twin
environments.
"""

import pytest

from repro.sim import DedicatedCPU, Environment, SharedCPU, linear_overhead_efficiency
from repro.sim.rng import RngRegistry

#: Works at or below the finish threshold (1e-9 core-seconds).
TINY_WORKS = [0.0, 1e-12, 5e-10, 1e-9]

#: Bases for near-tie works: two tasks that start together with the same
#: base end within 1e-9 s of each other.
TIE_BASES = [0.25, 0.5, 1.0]


def make_streams(seed, cores, tasks_per_worker=30):
    """One task plan per core: ``[(gap, work), ...]``.

    Each worker waits ``gap`` and then runs ``work`` to completion, so no
    more than ``cores`` tasks are ever live.  Half the gaps lie on a coarse
    grid (several arrivals at one timestamp), the rest are arbitrary floats.
    """
    rng = RngRegistry(seed).get("dedicated-cpu")
    streams = []
    for _ in range(cores):
        plan = []
        for _ in range(tasks_per_worker):
            if rng.random() < 0.5:
                gap = float(rng.choice([0.0, 0.0, 0.25, 0.5]))
            else:
                gap = float(rng.uniform(0.0, 1.0))
            kind = rng.random()
            if kind < 0.1:
                work = float(rng.choice(TINY_WORKS))
            elif kind < 0.45:
                work = float(rng.choice(TIE_BASES)) + float(rng.uniform(-1e-9, 1e-9))
            else:
                work = float(rng.uniform(1e-6, 2.0))
            plan.append((gap, work))
        streams.append(plan)
    return streams


def drive(bank, streams):
    """Run *streams* on *bank*; return its observable outcome."""
    env = bank.env
    completions = []

    def worker(w, plan):
        def wait(k):
            if k < len(plan):
                gap = plan[k][0]
                if gap:
                    env.call_later(gap, run, k)
                else:
                    run(k)

        def run(k):
            bank.execute(plan[k][1], label=f"{w}.{k}", then=lambda task: finished(k, task))

        def finished(k, task):
            completions.append((env.now, task.label))
            wait(k + 1)

        wait(0)

    for w, plan in enumerate(streams):
        worker(w, plan)
    env.run()
    return {
        "completions": completions,
        "delivered_work": bank.delivered_work,
        "idle_core_seconds": bank.idle_core_seconds,
        "utilization": bank.utilization(),
        "peak_tasks": bank.peak_tasks,
        # Sequence numbers consumed so far: one per calendar entry created.
        "calendar_entries": env._next_eid(),
    }


def oracle(env, cores):
    """``SharedCPU`` as the paper's invoker built it (kappa 0.02)."""
    return SharedCPU(env, cores, efficiency=linear_overhead_efficiency(0.02))


class TestMatchesSharedCPU:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_streams_identical(self, seed):
        cores = 1 + seed % 8
        streams = make_streams(seed, cores)
        expected = drive(oracle(Environment(), cores), streams)
        actual = drive(DedicatedCPU(Environment(), cores), streams)
        assert actual == expected
        assert len(actual["completions"]) == cores * 30

    def test_wide_bank_identical(self):
        # 48 cores: 40 or more live tasks at once, each on a core of its own.
        streams = make_streams(99, 48, tasks_per_worker=10)
        expected = drive(oracle(Environment(), 48), streams)
        actual = drive(DedicatedCPU(Environment(), 48), streams)
        assert actual == expected
        assert actual["peak_tasks"] >= 40

    def test_simultaneous_near_ties_complete_together(self):
        # Three tasks start together and end within 1e-9 s: one wake-up
        # completes all three, in insertion order.
        works = [1.0 + 4e-10, 1.0, 1.0 + 9e-10]
        streams = [[(0.0, w)] for w in works]
        expected = drive(oracle(Environment(), 3), streams)
        actual = drive(DedicatedCPU(Environment(), 3), streams)
        assert actual == expected
        assert actual["completions"] == [(1.0, "0.0"), (1.0, "1.0"), (1.0, "2.0")]


class TestDedicatedInvariants:
    def test_task_beyond_cores_raises(self):
        env = Environment()
        cpu = DedicatedCPU(env, 2)
        cpu.execute(1.0)
        cpu.execute(2.0)
        with pytest.raises(RuntimeError, match="live task 3 on 2 dedicated cores"):
            cpu.execute(1.0)
        # Work at the finish threshold never becomes live, so it fits.
        cpu.execute(0.0)
        env.run()
        assert env.now == 2.0
        assert cpu.active_tasks == 0
        assert cpu.peak_tasks == 2
        assert cpu.delivered_work == 3.0

    @pytest.mark.parametrize("max_rate", [2.0, 0.5])
    def test_rate_other_than_one_raises(self, max_rate):
        cpu = DedicatedCPU(Environment(), 4)
        with pytest.raises(ValueError, match="rate 1.0"):
            cpu.execute(1.0, max_rate=max_rate)
        assert cpu.active_tasks == 0

    def test_invalid_args(self):
        env = Environment()
        cpu = DedicatedCPU(env, 2)
        with pytest.raises(ValueError):
            cpu.execute(-1.0)
        with pytest.raises(ValueError):
            cpu.execute(1.0, weight=0.0)
        with pytest.raises(ValueError):
            cpu.execute(1.0, max_rate=0.0)
        with pytest.raises(ValueError):
            DedicatedCPU(env, 0)

    def test_idle_bank_accounting(self):
        env = Environment()
        cpu = DedicatedCPU(env, 4)
        assert cpu.utilization() == 0.0
        env.run(until=10.0)
        cpu.execute(5.0)
        env.run()
        assert env.now == 15.0
        assert cpu.delivered_work == 5.0
        assert cpu.idle_core_seconds == 4 * 10.0 + 3 * 5.0
        assert cpu.utilization() == 5.0 / (4 * 15.0)
