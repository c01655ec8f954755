"""Property tests for the water-filling allocation of the shared bank.

The contract under test: after every membership change, the rates of
:class:`~repro.sim.cpu.SharedCPU`'s live tasks equal what the oracle
:func:`repro.sim.waterfill.waterfill_rates` gives for the live population
in insertion order and the bank's capacity (``cores * efficiency``)
**exactly** — same IEEE-754 doubles, not approximately.
Seeds come from :class:`~repro.sim.rng.RngRegistry` streams, so every
"random" population here is reproducible from the printed seed.
"""

import pytest

from repro.sim import Environment, SharedCPU, linear_overhead_efficiency
from repro.sim.rng import RngRegistry
from repro.sim.waterfill import waterfill_rates

#: Dyadic weight grid matching the real workloads (memory/256 shares).
DYADIC_WEIGHTS = [0.25, 0.5, 1.0, 2.0, 4.0]


def _live_population(cpu):
    """(tasks, weights, caps) of the live population in insertion order."""
    tasks = list(cpu._tasks)
    return tasks, [t.weight for t in tasks], [t.max_rate for t in tasks]


def _capacity(cpu):
    n = cpu.active_tasks
    eff = cpu._efficiency(n, cpu.cores) if cpu._efficiency else 1.0
    return cpu.cores * eff


def _assert_matches_oracle(cpu):
    tasks, weights, caps = _live_population(cpu)
    expected = waterfill_rates(weights, caps, _capacity(cpu))
    actual = [t.rate for t in tasks]
    assert actual == expected, f"allocator diverged from oracle on n={len(tasks)}"


def _churn_bank(cpu, rng, n_tasks, weight_pool, cap_pool):
    """Drive a bank through arrivals and completions, asserting oracle
    equality after every membership change."""
    env = cpu.env
    checked = {"events": 0}

    def submit(task_args):
        work, weight, cap = task_args
        cpu.execute(work, weight=weight, max_rate=cap, then=finished)
        _assert_matches_oracle(cpu)
        checked["events"] += 1

    def finished(_task):
        _assert_matches_oracle(cpu)
        checked["events"] += 1

    starts = rng.uniform(0, 10, n_tasks)
    works = rng.uniform(0.05, 3.0, n_tasks)
    for i in range(n_tasks):
        weight = float(rng.choice(weight_pool))
        cap = float(rng.choice(cap_pool))
        env.call_later(float(starts[i]), submit, (float(works[i]), weight, cap))
    env.run()
    assert checked["events"] >= n_tasks


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("kappa", [0.0, 0.7])
def test_dyadic_weights_uniform_caps_match_oracle_exactly(seed, kappa):
    """The production regime: dyadic weights, unit caps, with and without
    an oversubscription penalty."""
    rng = RngRegistry(seed).get("waterfill-prop")
    env = Environment()
    cpu = SharedCPU(env, cores=4, efficiency=linear_overhead_efficiency(kappa))
    _churn_bank(cpu, rng, n_tasks=120, weight_pool=DYADIC_WEIGHTS, cap_pool=[1.0])
    # Wide populations (41 or more live tasks) are checked too.
    assert cpu.peak_tasks >= 41


@pytest.mark.parametrize("seed", [11, 12])
def test_arbitrary_weights_and_caps_match_oracle_exactly(seed):
    """Adversarial inputs: continuous random weights/caps (nothing dyadic,
    mixed cap frontier)."""
    rng = RngRegistry(seed).get("waterfill-prop-arb")
    env = Environment()
    cpu = SharedCPU(env, cores=8)
    weight_pool = [float(w) for w in rng.uniform(0.1, 5.0, 7)]
    cap_pool = [float(c) for c in rng.uniform(0.2, 3.0, 5)]
    _churn_bank(cpu, rng, n_tasks=150, weight_pool=weight_pool, cap_pool=cap_pool)


@pytest.mark.parametrize("seed", [21, 22])
def test_mixed_weights_caps_and_penalty_match_oracle_exactly(seed):
    """Dyadic weights plus three random ones, caps below and above one
    core, and a steep oversubscription penalty (kappa 1.0)."""
    rng = RngRegistry(seed).get("waterfill-prop-vec")
    env = Environment()
    cpu = SharedCPU(env, cores=4, efficiency=linear_overhead_efficiency(1.0))
    weight_pool = DYADIC_WEIGHTS + [float(w) for w in rng.uniform(0.3, 3.0, 3)]
    _churn_bank(cpu, rng, n_tasks=90, weight_pool=weight_pool, cap_pool=[0.5, 1.0, 2.0])


def test_waterfill_invariants_random():
    """Allocation sanity on raw random inputs: caps respected, capacity
    never exceeded (beyond representation slack), full usage when some
    task is uncapped."""
    rng = RngRegistry(99).get("waterfill-invariants")
    for _ in range(200):
        n = int(rng.integers(1, 40))
        weights = [float(w) for w in rng.uniform(0.05, 8.0, n)]
        caps = [float(c) for c in rng.uniform(0.05, 4.0, n)]
        capacity = float(rng.uniform(0.5, 64.0))
        rates = waterfill_rates(weights, caps, capacity)
        assert len(rates) == n
        for rate, cap in zip(rates, caps):
            assert 0.0 <= rate <= cap + 1e-9
        assert sum(rates) <= capacity + 1e-6
        if sum(caps) <= capacity:
            assert rates == caps
