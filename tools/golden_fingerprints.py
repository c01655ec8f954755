"""Golden metric fingerprints for the simulation kernel.

The DES kernel is performance-critical and is rewritten from time to time
(see docs/PERFORMANCE.md).  Every rewrite must keep the *metrics output*
bit-identical: the same configs must produce the same call records, node
stats, and summary statistics down to the last IEEE-754 ulp.  This module
pins that property:

* :func:`fingerprint_cases` enumerates one representative config per
  registered workload scenario, crossed with both node models (the
  modified invoker and the stock-OpenWhisk baseline — the latter is the
  oversubscription stress for the processor-sharing CPU bank), plus the
  retrying client on both node models (its timeout race; container kills
  with stragglers), a 1 GiB node (evictions, and our invoker's wait for
  memory) and a node without the per-call invoker overhead on both node
  models, and the fleet topologies of :func:`cluster_cases` (node
  crashes under ``crash_inflight="fail"`` and ``"migrate"``, crashes
  combined with client timeouts, and crashes on 1 GiB nodes, where a
  crash can land while a call's container initialises).
* :func:`compute_fingerprints` runs each case and hashes the exact
  serialized output (floats serialize via ``repr``, which round-trips
  doubles exactly).
* Run as a script to (re)capture ``tests/data/golden_kernel_fingerprints
  .json``; ``tests/experiments/test_golden_fingerprints.py`` asserts the
  current kernel still matches, serially and through the parallel engine.

Usage::

    PYTHONPATH=src python tools/golden_fingerprints.py            # check
    PYTHONPATH=src python tools/golden_fingerprints.py --write    # capture

Recapture is only legitimate when the *simulated system* intentionally
changed (new scenario defaults, node-model changes) — never to paper over
an unintended kernel divergence.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN_PATH = REPO_ROOT / "tests" / "data" / "golden_kernel_fingerprints.json"

#: Fixed replay trace content (the ``replay`` scenario needs a CSV file;
#: the file lives in a temp dir but its content — and therefore the
#: workload — is pinned here).
REPLAY_ROWS: Tuple[Tuple[str, str, int, int], ...] = (
    ("app-a", "f1", 0, 14),
    ("app-a", "f2", 0, 9),
    ("app-b", "f1", 1, 11),
    ("app-b", "f3", 2, 17),
)

#: Policies crossed with every scenario: one modified-invoker policy
#: (bounded concurrency, tasks pinned at one core) and the baseline
#: (memory-bounded concurrency -> CPU oversubscription + water-filling).
POLICIES: Tuple[str, ...] = ("FC", "baseline")


def _replay_params(tmpdir: Path) -> Dict[str, object]:
    from repro.workload.replay import TraceRow, write_trace_csv

    csv_path = write_trace_csv(
        tmpdir / "golden_trace.csv", [TraceRow(*row) for row in REPLAY_ROWS]
    )
    return {"path": str(csv_path), "minute_s": 10.0}


def fingerprint_cases(tmpdir: Path) -> List[Tuple[str, "object"]]:
    """``(label, ExperimentConfig)`` pairs covering every registered
    scenario under both node models, two heavy stresses, the timeout
    race, container kills with stragglers, a 1 GiB node and a node
    without invoker overhead, then the cluster cases."""
    from repro.experiments.config import ExperimentConfig
    from repro.workload.registry import scenario_names

    cases = []
    for scenario in scenario_names():
        params = _replay_params(tmpdir) if scenario == "replay" else {}
        for policy in POLICIES:
            label = f"{scenario}:{policy}"
            cases.append(
                (
                    label,
                    ExperimentConfig(
                        cores=4,
                        intensity=10,
                        policy=policy,
                        seed=1,
                        scenario=scenario,
                        scenario_params=params,
                    ),
                )
            )
    # Heavy oversubscription stress: tens of concurrent mixed-weight tasks
    # water-filling one CPU bank for thousands of membership changes —
    # the regime the incremental kernel optimizes, pinned exactly.
    cases.append(
        (
            "uniform:baseline:heavy",
            ExperimentConfig(cores=8, intensity=200, policy="baseline", seed=1),
        )
    )
    cases.append(
        (
            "skewed:FC:heavy",
            ExperimentConfig(cores=8, intensity=200, policy="FC", seed=1, scenario="skewed"),
        )
    )
    # The retrying client's timeout race (an attempt's ``done`` event
    # against its timeout's callback): some first attempts time out, some
    # calls give up after their last one.
    timeouts = {"timeout_s": 2.0, "max_attempts": 2, "backoff_base_s": 0.1}
    # Per-attempt faults without a timeout: killed containers fail their
    # attempt and the client backs off and retries; stragglers stretch
    # an attempt's work.
    kill_straggler = {
        "container_kill_rate": 0.2,
        "straggler_prob": 0.2,
        "straggler_factor": 3.0,
        "backoff_base_s": 0.1,
    }
    for name, failures in (("timeout", timeouts), ("kill-straggler", kill_straggler)):
        for policy in POLICIES:
            cases.append(
                (
                    f"uniform:{policy}:{name}",
                    ExperimentConfig(
                        cores=4, intensity=10, policy=policy, seed=1, failures=failures
                    ),
                )
            )
    # A 1 GiB node: placements evict idle containers, and on our invoker
    # ``acquire`` sometimes frees too little, so the call waits a pause
    # grace and retries.  Without the per-call overhead, the first step
    # of each call runs at its dispatch instant.
    for policy in POLICIES:
        cases.append(
            (
                f"uniform:{policy}:tight-memory",
                ExperimentConfig(cores=4, intensity=10, policy=policy, seed=1, memory_mb=1024),
            )
        )
        cases.append(
            (
                f"uniform:{policy}:no-overhead",
                ExperimentConfig(
                    cores=4,
                    intensity=10,
                    policy=policy,
                    seed=1,
                    node_overrides=(("invoker_overhead_s", 0.0),),
                ),
            )
        )
    return cases + cluster_cases()


def cluster_cases() -> List[Tuple[str, "object"]]:
    """Fleet topologies beyond the single node: the paper's Sect. VIII
    cells, two concurrent scale-outs, a heterogeneous fleet, node crashes
    on three nodes and on one (where no crash is ever injected), crashed
    nodes' calls migrated at once, crashes combined with client
    timeouts, and crashes on three 1 GiB nodes on both node models."""
    from repro.cluster.spec import ClusterSpec
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.fig6_multinode import fig6_config

    crashes = {"node_crash_rate": 0.02, "node_recovery_s": 5.0}
    return [
        *(
            (f"cluster:fig6:{policy}", fig6_config(3, 4, 110, policy, 2))
            for policy in POLICIES
        ),
        (
            "cluster:autoscale:FC",
            ExperimentConfig(
                cores=4,
                intensity=60,
                policy="FC",
                cluster=ClusterSpec(
                    nodes=1,
                    balancer="power-of-d",
                    autoscaler={"max_nodes": 3, "provisioning_delay_s": 5.0},
                ),
            ),
        ),
        (
            "cluster:hetero:SEPT",
            ExperimentConfig(
                cores=4,
                intensity=30,
                policy="SEPT",
                cluster=ClusterSpec(
                    nodes=2, node_overrides=({"cores": 2}, {"cores": 6})
                ),
            ),
        ),
        (
            "cluster:crash:FC",
            ExperimentConfig(
                cores=4,
                intensity=30,
                policy="FC",
                cluster=ClusterSpec(nodes=3),
                failures=crashes,
            ),
        ),
        (
            "uniform:FC:crash-1node",
            ExperimentConfig(cores=4, intensity=30, policy="FC", failures=crashes),
        ),
        (
            "cluster:migrate:FC",
            ExperimentConfig(
                cores=4,
                intensity=30,
                policy="FC",
                seed=1,
                cluster=ClusterSpec(nodes=3),
                failures={**crashes, "crash_inflight": "migrate"},
            ),
        ),
        (
            "cluster:crash-timeout:baseline",
            ExperimentConfig(
                cores=4,
                intensity=30,
                policy="baseline",
                seed=1,
                cluster=ClusterSpec(nodes=3),
                failures={
                    **crashes,
                    "timeout_s": 2.0,
                    "max_attempts": 2,
                    "backoff_base_s": 0.1,
                },
            ),
        ),
        *(
            (
                f"cluster:crash-tight-memory:{policy}",
                ExperimentConfig(
                    cores=4,
                    intensity=30,
                    policy=policy,
                    seed=1,
                    memory_mb=1024,
                    cluster=ClusterSpec(nodes=3),
                    failures=crashes,
                ),
            )
            for policy in POLICIES
        ),
    ]


def result_digest(result) -> str:
    """SHA-256 over the exact serialized metrics output of one run.

    Covers the full call-record list (every timestamp field), per-node
    diagnostics, the summary statistics, and the cluster routing
    diagnostics when the run has them (``balancer_stats`` is ``None`` on
    a single node, so those digests keep their historical material).  ``json.dumps`` renders
    floats with ``repr`` — exact for IEEE-754 doubles — so two digests
    are equal iff the outputs are bit-identical.

    ``cpu_utilization`` is excluded from the digest and pinned separately
    (:func:`result_cpu_utilizations`, tolerance-compared): it integrates
    ``delivered_work``, whose floating-point sum order in the historical
    kernel followed Python *set* iteration — i.e. object memory addresses
    — so its last ulps were never a deterministic function of the
    simulated system in the first place.  Everything the paper reports
    (per-call timestamps, response times, stretches, percentiles) is
    digest-exact.
    """
    from repro.metrics.serialize import records_to_dicts

    summary = result.summary()
    payload = {
        "records": records_to_dicts(result.records),
        "node_stats": [
            {k: v for k, v in stats.items() if k != "cpu_utilization"}
            for stats in result.node_stats
        ],
        "summary": {
            "n_calls": summary.n_calls,
            "mean_response_time": summary.mean_response_time,
            "response_time_percentiles": {
                str(q): v for q, v in summary.response_time_percentiles.items()
            },
            "mean_stretch": summary.mean_stretch,
            "stretch_percentiles": {
                str(q): v for q, v in summary.stretch_percentiles.items()
            },
            "max_completion_time": summary.max_completion_time,
            "cold_starts": summary.cold_starts,
        },
    }
    if result.balancer_stats is not None:
        payload["balancer_stats"] = result.balancer_stats
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def result_cpu_utilizations(result) -> List[float]:
    """Per-node ``cpu_utilization`` values (tolerance-pinned, see
    :func:`result_digest`)."""
    return [stats["cpu_utilization"] for stats in result.node_stats]


#: Maximum relative deviation tolerated on ``cpu_utilization``.  Six
#: orders of magnitude tighter than any behavioural change, six orders
#: looser than address-dependent summation noise.
CPU_UTILIZATION_RTOL = 1e-9


def compute_fingerprints(tmpdir: Path, jobs: int = 1) -> Dict[str, Dict[str, object]]:
    """Run every fingerprint case; ``label -> {digest, cpu_utilization}``."""
    from repro.experiments.parallel import run_configs

    cases = fingerprint_cases(tmpdir)
    results = run_configs([cfg for _, cfg in cases], jobs=jobs)
    return {
        label: {
            "digest": result_digest(res),
            "cpu_utilization": result_cpu_utilizations(res),
        }
        for (label, _), res in zip(cases, results)
    }


def compare_fingerprints(
    golden: Dict[str, Dict[str, object]], current: Dict[str, Dict[str, object]]
) -> List[str]:
    """Human-readable mismatch descriptions (empty when everything is
    within contract)."""
    problems = []
    for label in sorted(set(golden) | set(current)):
        want, got = golden.get(label), current.get(label)
        if want is None or got is None:
            problems.append(f"{label}: present only in {'current' if want is None else 'golden'}")
            continue
        if want["digest"] != got["digest"]:
            problems.append(
                f"{label}: digest mismatch golden={want['digest'][:16]}… "
                f"current={got['digest'][:16]}…"
            )
        for i, (u_want, u_got) in enumerate(
            zip(want["cpu_utilization"], got["cpu_utilization"])
        ):
            scale = max(abs(u_want), abs(u_got), 1e-300)
            if abs(u_want - u_got) / scale > CPU_UTILIZATION_RTOL:
                problems.append(
                    f"{label}: cpu_utilization[{i}] golden={u_want!r} current={u_got!r}"
                )
    return problems


def load_golden(path: Path = GOLDEN_PATH) -> Dict[str, Dict[str, object]]:
    return json.loads(path.read_text())["fingerprints"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--write", action="store_true", help="(re)capture the golden file"
    )
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        fingerprints = compute_fingerprints(Path(tmp), jobs=args.jobs)

    if args.write:
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(
            json.dumps(
                {
                    "comment": "Exact-output fingerprints of the DES kernel; "
                    "see tools/golden_fingerprints.py.",
                    "fingerprints": fingerprints,
                },
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )
        print(f"wrote {len(fingerprints)} fingerprints to {GOLDEN_PATH}")
        return 0

    problems = compare_fingerprints(load_golden(), fingerprints)
    if problems:
        for line in problems:
            print(f"MISMATCH {line}")
        return 1
    print(f"all {len(fingerprints)} fingerprints match")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(REPO_ROOT / "src"))
    sys.exit(main())
