#!/usr/bin/env python3
"""Extending the library: register a custom scheduling policy.

One ``@register_policy`` decorator makes a :class:`repro.SchedulingPolicy`
subclass a first-class citizen: runnable by name through
``ExperimentConfig`` (and therefore the grid, the parallel engine, the
result cache, and the CLI), with declared, validated parameters.  This
example implements *Aging SEPT* — shortest-first with linear aging that
bounds starvation — and benchmarks it, at two aging rates, against the
paper's policies on a loaded node.

Run:
    python examples/custom_policy.py
"""

from repro import ExperimentConfig, SchedulingPolicy, run_experiment
from repro.metrics.report import render_summary_table
from repro.scheduling.registry import Param, register_policy

CORES = 10
INTENSITY = 60
SEED = 1


@register_policy(
    "AGING-SEPT",
    description="SEPT with linear aging: E(p) - aging_rate * r'(i)",
    starvation_free=True,
    params=(
        Param(
            "aging_rate",
            0.02,
            "priority decay per second of receipt time; higher favours old calls",
        ),
    ),
)
class AgingSept(SchedulingPolicy):
    """SEPT with linear aging: priority = E(p) - aging_rate * r'(i).

    Older calls gradually outrank newer short ones, so no call starves,
    at a small cost in mean response time versus pure SEPT.
    """

    name = "AGING-SEPT"
    starvation_free = True  # priority decreases without bound over time

    def __init__(self, estimator, aging_rate: float = 0.02) -> None:
        super().__init__(estimator)
        self.aging_rate = aging_rate

    def priority(self, request, received_at: float) -> float:
        estimate = self.estimator.expected_processing_time(request.function.name)
        return estimate - self.aging_rate * received_at


def main() -> None:
    entries = []
    for policy in ("FIFO", "SEPT", "FC"):
        config = ExperimentConfig(
            cores=CORES, intensity=INTENSITY, policy=policy, seed=SEED
        )
        entries.append((policy, run_experiment(config).summary()))

    # The registered policy runs through the exact same path — by name,
    # with its declared parameter validated and cache-fingerprinted.
    for rate in (0.02, 0.2):
        config = ExperimentConfig(
            cores=CORES,
            intensity=INTENSITY,
            policy="AGING-SEPT",
            policy_params={"aging_rate": rate},
            seed=SEED,
        )
        label = f"AGING-SEPT r={rate}"
        entries.append((label, run_experiment(config).summary()))

    print(
        render_summary_table(
            entries,
            title=f"Custom policy vs. paper policies ({CORES} cores, intensity {INTENSITY})",
        )
    )
    print(
        "\nAGING-SEPT trades a little mean response time for a starvation "
        "bound — compare its p99 with SEPT's, and the two aging rates "
        "against each other."
    )


if __name__ == "__main__":
    main()
