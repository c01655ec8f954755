"""Pins of what ``run_registered`` hands the engine for every override.

Each probe calls :func:`~repro.experiments.registry.run_registered` with
one artifact, ``quick`` or full protocol, and one set of override
keywords from :data:`OVERRIDES`, with every runner the registry calls
(``run_grid``, ``run_fig6``, ``run_fig2``, ...) replaced by a stub that
records its arguments.  ``run_grid`` and the fixed-protocol runners then
stop the artifact; ``run_fig6``'s stub returns an empty report, so the
full protocol's two sweeps are both recorded.  What is pinned per probe
is the list of recorded calls (the ``repr`` of the ``GridSpec`` handed to
``run_grid``, or fig6's ``cores_per_node``/``seeds``/``balancer``, plus
the engine keywords) and the exception a refused probe raises, type and
message.  No simulation runs.

The grid-backed artifacts and fig6 are probed quick and full under every
override, in both the mapping and the pairs spelling of a parameter
set; the fixed-protocol artifacts are probed quick, where every override
is refused.  The expected text lives in ``tests/data/registry_pins.json``.
A change to how the registry maps overrides onto sweeps must leave it
untouched; recapture only when an artifact's sweep or a message changes
on purpose::

    PYTHONPATH=src python tests/experiments/test_registry_pins.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List

import pytest

from repro.experiments import registry
from repro.experiments.parallel import EngineStats

PINS_PATH = Path(__file__).resolve().parent.parent / "data" / "registry_pins.json"

#: Artifacts that sweep a grid or a topology and so honour some override.
SWEEPING = ("fig3", "fig4", "table2", "table3", "table4", "fig6")

#: Every runner the registry calls, by its name in the registry module.
#: ``run_fig6``'s stub returns an empty report; the others stop the run.
STUBBED = (
    "run_grid",
    "run_fig6",
    "run_table1",
    "run_fig2",
    "run_fig5",
    "ablate_estimator_window",
    "ablate_busy_limit",
    "ablate_fc_horizon",
    "ablate_cold_start_cost",
)

#: ``label -> run_registered keyword arguments``.
OVERRIDES: Dict[str, Dict[str, Any]] = {
    "none": {},
    # Workload.
    "scenario": {"scenario": "poisson"},
    "scenario+pairs": {
        "scenario": "poisson",
        "scenario_params": (("zipf_exponent", 0.5), ("rate", 3.0)),
    },
    "scenario+mapping": {
        "scenario": "poisson",
        "scenario_params": {"zipf_exponent": 0.5, "rate": 3.0},
    },
    "scenario_params-alone": {"scenario_params": {"rate": 3.0}},
    # Cluster.
    "nodes": {"nodes": [2]},
    "nodes-sweep": {"nodes": (1, 2)},
    "nodes-empty": {"nodes": ()},
    "balancer": {"balancers": ["power-of-d"]},
    "balancers-sweep": {"balancers": ("least-loaded", "power-of-d")},
    "balancers-empty": {"balancers": ()},
    "balancer_params+pairs": {
        "balancers": ("power-of-d",),
        "balancer_params": (("seed", 7), ("d", 3)),
    },
    "balancer_params+mapping": {
        "balancers": ("power-of-d",),
        "balancer_params": {"seed": 7, "d": 3},
    },
    "balancer_params-alone": {"balancer_params": {"d": 3}},
    "autoscale": {"autoscale": True},
    "cluster-all": {
        "nodes": (2, 3),
        "balancers": ("least-loaded", "power-of-d"),
        "balancer_params": {"d": 3},
        "autoscale": True,
    },
    # Policies.
    "policies": {"policies": ["FIFO", "SEPT-EMA"]},
    "policies-empty": {"policies": ()},
    "policy_params+pairs": {
        "policies": ("SEPT-EMA", "ETAS"),
        "policy_params": (("smoothing", 0.4), ("alpha", 0.5)),
    },
    "policy_params+mapping": {
        "policies": ("SEPT-EMA", "ETAS"),
        "policy_params": {"smoothing": 0.4, "alpha": 0.5},
    },
    "policy_params-alone": {"policy_params": {"window": 5}},
    # Failures.
    "failure_params+pairs": {"failure_params": (("timeout_s", 2.0), ("max_attempts", 3))},
    "failure_params+mapping": {"failure_params": {"timeout_s": 2.0, "max_attempts": 3}},
    "failure_params-empty": {"failure_params": {}},
    "failure_params-bogus": {"failure_params": {"bogus": 1}},
    "failure_params-invalid": {"failure_params": {"container_kill_rate": 2.0}},
    # Several at once: the first refusal wins.
    "everything": {
        "scenario": "poisson",
        "scenario_params": {"rate": 3.0},
        "nodes": (2,),
        "balancers": ("power-of-d",),
        "balancer_params": {"d": 3},
        "autoscale": True,
        "policies": ("FIFO", "SEPT-EMA"),
        "policy_params": {"window": 5},
        "failure_params": {"timeout_s": 2.0},
    },
    "nodes+policies": {"nodes": (2,), "policies": ("FIFO",)},
    "nodes+bogus-failure": {"nodes": (1, 2), "failure_params": {"bogus": 1}},
    "scenario+bogus-failure": {"scenario": "poisson", "failure_params": {"bogus": 1}},
    # Engine keywords alone, and beside an override.
    "engine": {
        "jobs": 2,
        "cache_dir": "cache",
        "cell_timeout": 5.0,
        "executor": "queue",
        "stats": EngineStats(),
    },
    "engine-stats": {"stats": EngineStats()},
    "engine+scenario": {"jobs": 2, "scenario": "poisson"},
}


class _Stop(Exception):
    """Raised by a stub once it has recorded its call."""


class _Report:
    def render(self) -> str:
        return ""


def _call_text(name: str, args: tuple, kwargs: Dict[str, Any]) -> str:
    words = [repr(arg) for arg in args]
    words += [f"{key}={kwargs[key]!r}" for key in sorted(kwargs)]
    return f"{name}({', '.join(words)})"


def probe(experiment_id: str, quick: bool, overrides: Dict[str, Any]) -> List[str]:
    """The calls ``run_registered`` makes for one probe, then how it ended."""
    calls: List[str] = []

    def stub(name: str):
        def record(*args: Any, **kwargs: Any) -> _Report:
            calls.append(_call_text(name, args, kwargs))
            if name != "run_fig6":
                raise _Stop
            return _Report()

        return record

    with pytest.MonkeyPatch.context() as patch:
        for name in STUBBED:
            patch.setattr(registry, name, stub(name))
        try:
            registry.run_registered(experiment_id, quick, **overrides)
        except _Stop:
            pass
        except Exception as exc:  # noqa: BLE001 - the refusal is the pin
            calls.append(f"raised {type(exc).__name__}: {exc}")
        else:
            calls.append("returned")
    return calls


def probes() -> Dict[str, tuple]:
    """``label -> (experiment_id, quick, overrides label)`` for every probe."""
    table = {}
    for experiment_id in registry.EXPERIMENTS:
        modes = (True, False) if experiment_id in SWEEPING else (True,)
        for quick in modes:
            for label in OVERRIDES:
                mode = "quick" if quick else "full"
                table[f"{experiment_id}:{mode}:{label}"] = (experiment_id, quick, label)
    table["unknown:quick:none"] = ("fig99", True, "none")
    return table


def capture() -> Dict[str, List[str]]:
    return {
        label: probe(experiment_id, quick, OVERRIDES[override])
        for label, (experiment_id, quick, override) in probes().items()
    }


@pytest.fixture(scope="module")
def pins() -> Dict[str, List[str]]:
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))


def test_every_probe_is_pinned(pins):
    assert sorted(pins) == sorted(probes())


@pytest.mark.parametrize("label", sorted(probes()))
def test_probe_is_unchanged(pins, label):
    experiment_id, quick, override = probes()[label]
    assert probe(experiment_id, quick, OVERRIDES[override]) == pins[label]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    captured = capture()
    PINS_PATH.write_text(json.dumps(captured, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(captured)} probes to {PINS_PATH}")
