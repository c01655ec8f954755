"""Unit tests for the processor-sharing SharedCPU bank."""

import pytest

from repro.sim import Environment, SharedCPU, linear_overhead_efficiency


def run_tasks(cores, specs, efficiency=None):
    """Run tasks on a bank; specs = [(start, work, weight, max_rate)].

    Returns dict task-index -> completion time.
    """
    env = Environment()
    cpu = SharedCPU(env, cores, efficiency=efficiency)
    done = {}

    def submit(idx):
        _, work, weight, max_rate = specs[idx]
        cpu.execute(work, weight=weight, max_rate=max_rate, label=str(idx), then=finished)

    def finished(task):
        done[int(task.label)] = env.now

    for idx, (start, *_) in enumerate(specs):
        env.call_later(start, submit, idx)
    env.run()
    return env, cpu, done


class TestSingleTask:
    def test_dedicated_core_runs_at_full_rate(self):
        _, _, done = run_tasks(4, [(0.0, 10.0, 1.0, 1.0)])
        assert done[0] == pytest.approx(10.0)

    def test_zero_work_completes_immediately(self):
        _, _, done = run_tasks(1, [(0.0, 0.0, 1.0, 1.0)])
        assert done[0] == pytest.approx(0.0)

    def test_max_rate_above_one_uses_multiple_cores(self):
        _, _, done = run_tasks(4, [(0.0, 8.0, 1.0, 2.0)])
        assert done[0] == pytest.approx(4.0)

    def test_invalid_args(self):
        env = Environment()
        cpu = SharedCPU(env, 2)
        with pytest.raises(ValueError):
            cpu.execute(-1.0)
        with pytest.raises(ValueError):
            cpu.execute(1.0, weight=0.0)
        with pytest.raises(ValueError):
            cpu.execute(1.0, max_rate=0.0)
        with pytest.raises(ValueError):
            SharedCPU(env, 0)


class TestSharing:
    def test_two_tasks_on_one_core_share_equally(self):
        # Each has 5 core-seconds; sharing a single core -> both end at 10.
        _, _, done = run_tasks(1, [(0.0, 5.0, 1.0, 1.0), (0.0, 5.0, 1.0, 1.0)])
        assert done[0] == pytest.approx(10.0)
        assert done[1] == pytest.approx(10.0)

    def test_two_tasks_on_two_cores_run_independently(self):
        _, _, done = run_tasks(2, [(0.0, 5.0, 1.0, 1.0), (0.0, 3.0, 1.0, 1.0)])
        assert done[0] == pytest.approx(5.0)
        assert done[1] == pytest.approx(3.0)

    def test_weighted_sharing(self):
        # weights 3:1 on one core; short task discovers more capacity after
        # heavy task leaves.  t in [0, T]: rates 0.75/0.25.
        # Task0: 3 core-s at 0.75 -> done at 4.0.  Task1 by then has 4-1=... :
        # work1 = 4 - 0.25*4 = 3 remaining at t=4, then full core -> done at 7.
        _, _, done = run_tasks(1, [(0.0, 3.0, 3.0, 1.0), (0.0, 4.0, 1.0, 1.0)])
        assert done[0] == pytest.approx(4.0)
        assert done[1] == pytest.approx(7.0)

    def test_late_arrival_slows_running_task(self):
        # Task0: 10 core-s alone on 1 core.  Task1 (10 core-s) arrives at t=5;
        # they then share: task0 has 5 left at rate .5 -> done t=15; task1
        # then runs alone: at t=15 it has 10-5=5 left -> done t=20.
        _, _, done = run_tasks(1, [(0.0, 10.0, 1.0, 1.0), (5.0, 10.0, 1.0, 1.0)])
        assert done[0] == pytest.approx(15.0)
        assert done[1] == pytest.approx(20.0)

    def test_caps_leave_cores_idle_when_undersubscribed(self):
        # 4 cores, 2 tasks capped at 1 core each -> both at rate 1.
        env, cpu, done = run_tasks(4, [(0.0, 6.0, 1.0, 1.0), (0.0, 6.0, 1.0, 1.0)])
        assert done[0] == pytest.approx(6.0)
        assert done[1] == pytest.approx(6.0)
        # 2 of 4 cores idle for 6s.
        assert cpu.idle_core_seconds == pytest.approx(12.0)

    def test_water_filling_with_mixed_caps(self):
        # 2 cores; tasks: cap 0.5 (w=1), cap 2.0 (w=1).  Proportional share =
        # 1.0 each; first is capped at 0.5, surplus goes to second, capped at
        # 1.5.  Work: t0 = 1 core-s at 0.5 -> 2.0s.  t1 = 6 core-s at 1.5 for
        # 2s (=3), then alone at cap 2.0 for remaining 3 -> 1.5s more -> 3.5s.
        _, _, done = run_tasks(2, [(0.0, 1.0, 1.0, 0.5), (0.0, 6.0, 1.0, 2.0)])
        assert done[0] == pytest.approx(2.0)
        assert done[1] == pytest.approx(3.5)


class TestEfficiencyPenalty:
    def test_no_penalty_when_not_oversubscribed(self):
        eff = linear_overhead_efficiency(kappa=1.0)
        assert eff(4, 4) == pytest.approx(1.0)
        assert eff(2, 4) == pytest.approx(1.0)

    def test_penalty_grows_with_oversubscription(self):
        eff = linear_overhead_efficiency(kappa=1.0)
        assert eff(8, 4) == pytest.approx(1.0 / 2.0)
        assert eff(12, 4) == pytest.approx(1.0 / 3.0)

    def test_negative_kappa_rejected(self):
        with pytest.raises(ValueError):
            linear_overhead_efficiency(-0.1)

    def test_oversubscribed_bank_delivers_less(self):
        # 1 core, 2 tasks, kappa=1 -> efficiency 1/2 -> capacity 0.5;
        # each task runs at 0.25: 1 core-second each -> both done at t=4...
        # after the first finishes the second runs alone at rate min(1, 1*1)=1.
        # Work each 1.0: shared phase ends when both hit 0 simultaneously at
        # t = 1.0/0.25 = 4.0.
        _, _, done = run_tasks(
            1,
            [(0.0, 1.0, 1.0, 1.0), (0.0, 1.0, 1.0, 1.0)],
            efficiency=linear_overhead_efficiency(1.0),
        )
        assert done[0] == pytest.approx(4.0)
        assert done[1] == pytest.approx(4.0)


class TestAccounting:
    def test_work_conservation_without_penalty(self):
        env, cpu, done = run_tasks(
            2, [(0.0, 3.0, 1.0, 1.0), (1.0, 4.0, 2.0, 1.0), (2.0, 2.0, 1.0, 1.0)]
        )
        assert cpu.delivered_work == pytest.approx(3.0 + 4.0 + 2.0)

    def test_utilization_bounded(self):
        env, cpu, done = run_tasks(2, [(0.0, 4.0, 1.0, 1.0)])
        assert 0.0 < cpu.utilization() <= 1.0

    def test_utilization_normalizes_by_bank_lifetime(self):
        # Regression: a bank created at t>0 must measure utilization over
        # its own lifetime, not since t=0 (which understated idle time —
        # here it would report 4/(2*8)=0.25 instead of 4/(2*4)=0.5).
        env = Environment()
        banks = []

        def late_bank(_arg):
            cpu = SharedCPU(env, 2)
            # One core busy for 4s on a 2-core bank.
            cpu.execute(4.0, then=lambda task: banks.append(cpu))

        env.call_later(4.0, late_bank)
        env.run()
        [cpu] = banks
        assert cpu.created_at == pytest.approx(4.0)
        assert env.now == pytest.approx(8.0)
        assert cpu.utilization() == pytest.approx(0.5)

    def test_utilization_zero_horizon(self):
        env = Environment()
        cpu = SharedCPU(env, 2)
        assert cpu.utilization() == 0.0

    def test_peak_tasks_tracked(self):
        env, cpu, _ = run_tasks(
            1, [(0.0, 5.0, 1.0, 1.0), (1.0, 5.0, 1.0, 1.0), (2.0, 5.0, 1.0, 1.0)]
        )
        assert cpu.peak_tasks == 3
