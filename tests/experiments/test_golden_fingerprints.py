"""Kernel bit-identity acceptance: golden metric fingerprints.

Every registered scenario (crossed with both node models, plus two heavy
oversubscription stresses, the retrying client's timeout race, container
kills with stragglers, a 1 GiB node and a node without invoker overhead
on both node models, and ten fleet topologies) must produce
*bit-identical* metrics output — call records, summaries, node and
balancer diagnostics — to the goldens captured in
``tests/data/golden_kernel_fingerprints.json``, both serially and through
the parallel execution engine.  The goldens were captured from the
pre-optimization kernel, so this suite is the proof that the kernel's
rewrites (the cancellable calendar, the CPU banks) changed *nothing*
about simulated behaviour.  See ``tools/golden_fingerprints.py`` for the
capture protocol and the (narrow, documented) ``cpu_utilization``
tolerance.
"""

import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

from golden_fingerprints import (  # noqa: E402
    GOLDEN_PATH,
    compare_fingerprints,
    compute_fingerprints,
    fingerprint_cases,
    load_golden,
)


@pytest.fixture(scope="module")
def golden():
    assert GOLDEN_PATH.exists(), (
        "golden fingerprints missing; capture them with "
        "`python tools/golden_fingerprints.py --write` (only legitimate "
        "when the simulated system intentionally changed)"
    )
    return load_golden()


def test_every_registered_scenario_is_covered(tmp_path, golden):
    from repro.workload.registry import scenario_names

    labels = {label for label, _ in fingerprint_cases(tmp_path)}
    assert set(golden) == labels
    for scenario in scenario_names():
        assert any(label.startswith(f"{scenario}:") for label in labels), scenario


def test_serial_output_matches_golden(tmp_path, golden):
    current = compute_fingerprints(tmp_path, jobs=1)
    problems = compare_fingerprints(golden, current)
    assert not problems, "\n".join(problems)


def test_parallel_output_matches_golden(tmp_path, golden):
    current = compute_fingerprints(tmp_path, jobs=2)
    problems = compare_fingerprints(golden, current)
    assert not problems, "\n".join(problems)
