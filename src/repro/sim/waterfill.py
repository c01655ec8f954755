"""Capped water-filling, the allocator of :class:`~repro.sim.cpu.SharedCPU`.

A pure function over parallel lists.  ``SharedCPU`` calls it on every
membership change with its live tasks' weights and caps in insertion order
and keeps the returned rates as they are, so this one function is the
allocator.  Most calls end early: when the caps sum to at most the
capacity every task gets its cap, and the first round, run over the lists
themselves, returns the proportional shares when none reaches its cap.
The property tests in
``tests/sim/test_waterfill_properties.py`` check, under randomized churn,
that the bank's rates equal its output for the live population and the
bank's capacity *exactly* (same IEEE-754 results, not just approximately).

Floating-point order contract: every reduction is a sequential left-fold
in *input order*.  Callers that need historical reproducibility must pass
tasks in a deterministic order (``SharedCPU`` uses insertion order).
"""

from __future__ import annotations

from typing import List, Sequence

__all__ = ["waterfill_rates"]

#: Slack used when testing a proportional share against a task's cap,
#: identical to the historical in-kernel constant: a share within 1e-12
#: of the cap counts as capped, which keeps the recursion from looping on
#: representation noise.
CAP_SLACK = 1e-12


def waterfill_rates(
    weights: Sequence[float], caps: Sequence[float], capacity: float
) -> List[float]:
    """Allocate *capacity* across tasks by capped water-filling.

    Capacity is split proportionally to ``weights``; any task whose
    proportional share reaches its cap is frozen at the cap, and the
    remainder is redistributed among the rest (recursively, until no new
    task caps out or capacity is exhausted).

    Parameters
    ----------
    weights:
        Positive fair-share weights, one per task.
    caps:
        Per-task maximum rates (``max_rate``), same length as *weights*.
    capacity:
        Total deliverable rate (cores × efficiency).

    Returns
    -------
    list[float]
        Allocated rate per task, aligned with the inputs.
    """
    n = len(weights)
    if len(caps) != n:
        raise ValueError(f"weights/caps length mismatch ({n} vs {len(caps)})")
    # Fast path: everyone fits under their cap.
    caps_sum = 0.0
    for cap in caps:
        caps_sum += cap
    if caps_sum <= capacity:
        return list(caps)
    # The first round runs over the lists themselves: proportional shares
    # of the whole capacity, final when no task reaches its cap.
    weight_sum = 0.0
    for weight in weights:
        weight_sum += weight
    shares = [capacity * weight / weight_sum for weight in weights]
    capped = [i for i, share in enumerate(shares) if share >= caps[i] - CAP_SLACK]
    if not capped:
        return shares
    # Later rounds: freeze the capped tasks at their cap and share the
    # remainder among the rest by weight, until none caps out or nothing
    # remains (the rest then stay at 0.0).
    rates = [0.0] * n
    remaining = capacity
    active = range(n)
    while True:
        for i in capped:
            rates[i] = caps[i]
            remaining -= caps[i]
        capped_set = set(capped)
        active = [i for i in active if i not in capped_set]
        if remaining <= 0 or not active:
            return rates
        weight_sum = 0.0
        for i in active:
            weight_sum += weights[i]
        capped = [i for i in active if remaining * weights[i] / weight_sum >= caps[i] - CAP_SLACK]
        if not capped:
            for i in active:
                rates[i] = remaining * weights[i] / weight_sum
            return rates
