#!/usr/bin/env python3
"""Capacity planning: how many worker VMs does a latency target need?

The paper's Sect. VIII scenario as a practitioner workflow: a fixed peak
load (2376 requests in 60 s) must be served within response-time
targets.  We sweep the fleet size from 4 down to 1 VM for the stock
OpenWhisk baseline and the Fair-Choice scheduler and report which
configurations meet the targets — reproducing the headline that FC needs
one VM fewer than the baseline.

Run:
    python examples/capacity_planning.py
"""

from repro import run_experiment
from repro.experiments.fig6_multinode import fig6_config
from repro.metrics.report import format_table

CORES_PER_VM = 18
TOTAL_REQUESTS = 2376
#: Service objective: average and tail response-time budgets (seconds).
TARGET_AVG_S = 60.0
TARGET_P95_S = 250.0


def main() -> None:
    print(
        f"Peak load: {TOTAL_REQUESTS} requests / 60 s on {CORES_PER_VM}-core VMs\n"
        f"Targets: avg <= {TARGET_AVG_S:.0f} s, p95 <= {TARGET_P95_S:.0f} s\n"
    )
    rows = []
    verdicts = {}
    for policy in ("baseline", "FC"):
        for vms in (4, 3, 2, 1):
            config = fig6_config(vms, CORES_PER_VM, TOTAL_REQUESTS, policy, seed=1)
            stats = run_experiment(config).summary()
            ok = (
                stats.mean_response_time <= TARGET_AVG_S
                and stats.response_time_percentiles[95] <= TARGET_P95_S
            )
            verdicts[(policy, vms)] = ok
            rows.append(
                [
                    policy,
                    vms,
                    stats.mean_response_time,
                    stats.response_time_percentiles[75],
                    stats.response_time_percentiles[95],
                    stats.response_time_percentiles[99],
                    "MEETS TARGET" if ok else "too slow",
                ]
            )
    print(
        format_table(
            ["policy", "VMs", "avg [s]", "p75 [s]", "p95 [s]", "p99 [s]", "verdict"],
            rows,
        )
    )

    smallest = {
        policy: min(
            (vms for (p, vms), ok in verdicts.items() if p == policy and ok),
            default=None,
        )
        for policy in ("baseline", "FC")
    }
    print(
        f"\nSmallest fleet meeting the targets: "
        f"baseline -> {smallest['baseline']} VMs, FC -> {smallest['FC']} VMs."
    )
    if (
        smallest["FC"] is not None
        and (smallest["baseline"] is None or smallest["FC"] < smallest["baseline"])
    ):
        print(
            "Fair-Choice serves the same peak with a smaller fleet — the "
            "paper's >=25% machine-reduction claim."
        )


if __name__ == "__main__":
    main()
