"""Byte-for-byte pins of what the policy, scenario and balancer catalogs
show the outside world.

* the exact standard output of ``faas-sched policies`` and ``faas-sched
  scenarios``;
* ``config_to_dict`` of :data:`PROBES`: every scenario, every policy with
  and without parameters, every balancer with and without parameters, an
  autoscaler, a heterogeneous fleet, a failure regime, node overrides and
  streaming.  Each is pinned as the canonical JSON text a cache
  fingerprint hashes, so a config whose text moves would address a
  different cache entry.

The expected bytes live in ``tests/data/catalog_pins.json``.  A change to
how the catalogs are declared must leave them untouched; recapture only
when a listing or a config's canonical form changes on purpose::

    PYTHONPATH=src python tests/experiments/test_catalog_pins.py --write
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path
from typing import Any, Dict

import pytest

PINS_PATH = Path(__file__).resolve().parent.parent / "data" / "catalog_pins.json"

#: The listings pinned, by CLI command.
LISTINGS = ("policies", "scenarios")

_FLEET = {"nodes": 2}

#: ``label -> ExperimentConfig keyword arguments`` (``cores=4`` and
#: ``intensity=10`` unless given).  Pair-valued fields use the pair form.
PROBES: Dict[str, Dict[str, Any]] = {
    # Every scenario at its defaults, and some with parameters.
    "scenario:uniform": {},
    "scenario:skewed": {"scenario": "skewed"},
    "scenario:multi-node": {"scenario": "multi-node"},
    "scenario:azure": {"scenario": "azure"},
    "scenario:poisson": {"scenario": "poisson"},
    "scenario:diurnal": {"scenario": "diurnal"},
    "scenario:zipf-multitenant": {"scenario": "zipf-multitenant"},
    "scenario:trace": {"scenario": "trace"},
    "scenario:replay": {"scenario": "replay", "scenario_params": {"path": "trace.csv"}},
    "scenario:skewed+params": {
        "scenario": "skewed",
        "scenario_params": (("rare_count", 5), ("rare_function", "sleep")),
    },
    "scenario:diurnal+params": {
        "scenario": "diurnal",
        "scenario_params": {"period_s": 30.0, "amplitude": 0.5},
    },
    "scenario:replay+params": {
        "scenario": "replay",
        "scenario_params": {"path": "trace.csv", "max_minutes": 3, "minute_s": 1.0},
    },
    # Every policy at its defaults, and the parameterised ones with values.
    "policy:baseline": {"policy": "baseline"},
    "policy:FIFO": {"policy": "FIFO"},
    "policy:SEPT": {"policy": "SEPT"},
    "policy:sept": {"policy": "sept"},
    "policy:EECT": {"policy": "EECT"},
    "policy:RECT": {"policy": "RECT"},
    "policy:FC": {"policy": "FC"},
    "policy:ORACLE-SPT": {"policy": "ORACLE-SPT"},
    "policy:ETAS": {"policy": "ETAS"},
    "policy:RR-FN": {"policy": "RR-FN"},
    "policy:FC-HYBRID": {"policy": "FC-HYBRID"},
    "policy:SEPT-EMA": {"policy": "SEPT-EMA"},
    "policy:ETAS+params": {"policy": "ETAS", "policy_params": {"alpha": 0.9}},
    "policy:FC-HYBRID+params": {
        "policy": "FC-HYBRID",
        "policy_params": (("deadline_weight", 0.25),),
    },
    "policy:SEPT-EMA+window": {"policy": "SEPT-EMA", "policy_params": {"window": 3.0}},
    "policy:SEPT-EMA+smoothing": {
        "policy": "SEPT-EMA",
        "policy_params": {"smoothing": 0.4},
    },
    # Every balancer at its defaults, and the parameterised ones with values.
    "balancer:round-robin": {"cluster": {**_FLEET, "balancer": "round-robin"}},
    "balancer:least-loaded": {"cluster": {**_FLEET, "balancer": "least-loaded"}},
    "balancer:hash-overflow": {"cluster": {**_FLEET, "balancer": "hash-overflow"}},
    "balancer:power-of-d": {"cluster": {**_FLEET, "balancer": "power-of-d"}},
    "balancer:locality": {"cluster": {**_FLEET, "balancer": "locality"}},
    "balancer:hash-overflow+params": {
        "cluster": {
            **_FLEET,
            "balancer": "hash-overflow",
            "balancer_params": {"capacity_factor": 1.5},
        }
    },
    "balancer:locality+params": {
        "cluster": {**_FLEET, "balancer": "locality", "balancer_params": {"capacity_factor": 3}}
    },
    "balancer:power-of-d+d": {
        "cluster": {**_FLEET, "balancer": "power-of-d", "balancer_params": {"d": 3}}
    },
    "balancer:power-of-d+seed": {
        "cluster": {
            "nodes": 3,
            "balancer": "power-of-d",
            "balancer_params": (("seed", 7), ("d", 2)),
        }
    },
    # Autoscalers, a heterogeneous fleet, a failure regime.
    "autoscaler:defaults": {"cluster": {"autoscaler": ()}},
    "autoscaler:params": {
        "cluster": {
            **_FLEET,
            "balancer": "power-of-d",
            "autoscaler": {"max_nodes": 6, "provisioning_delay_s": 10.0},
        }
    },
    "fleet:heterogeneous": {
        "cluster": {
            **_FLEET,
            "node_overrides": ({"cores": 2}, {"memory_mb": 16384, "cores": 6}),
        }
    },
    "failures:regime": {
        "failures": {"node_crash_rate": 0.005, "timeout_s": 2.0, "crash_inflight": "migrate"},
        "cluster": _FLEET,
    },
    # Node overrides, streaming, and the remaining plain fields.
    "node:override": {"node_overrides": (("kappa", 0.1),)},
    "node:busy-limit": {"policy": "FC", "node_overrides": (("busy_limit", 3),)},
    "streaming": {"policy": "FC", "retain_records": False},
    "fields:plain": {
        "cores": 10,
        "intensity": 60,
        "seed": 5,
        "memory_mb": 1024,
        "warmup": False,
        "window_s": 30.0,
    },
}


def listing(command: str) -> str:
    """The exact standard output of ``faas-sched <command>``."""
    from repro.cli import main

    out = io.StringIO()
    with redirect_stdout(out):
        assert main([command]) == 0
    return out.getvalue()


def config_text(label: str) -> str:
    """``config_to_dict`` of probe *label* as the JSON text a cache
    fingerprint hashes (same dump settings)."""
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.parallel import config_to_dict

    config = ExperimentConfig(**{"cores": 4, "intensity": 10, **PROBES[label]})
    return json.dumps(config_to_dict(config), sort_keys=True, separators=(",", ":"))


def capture() -> Dict[str, Any]:
    return {
        "listings": {command: listing(command) for command in LISTINGS},
        "configs": {label: config_text(label) for label in PROBES},
    }


@pytest.fixture(scope="module")
def pins() -> Dict[str, Any]:
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))


def test_every_probe_is_pinned(pins):
    assert sorted(pins["configs"]) == sorted(PROBES)
    assert sorted(pins["listings"]) == sorted(LISTINGS)


@pytest.mark.parametrize("command", LISTINGS)
def test_listing_is_byte_identical(pins, command):
    assert listing(command) == pins["listings"][command]


@pytest.mark.parametrize("label", sorted(PROBES))
def test_config_dict_is_byte_identical(pins, label):
    assert config_text(label) == pins["configs"][label]


def test_probes_cover_every_catalog_entry():
    from repro.cluster.controller import balancer_names
    from repro.scheduling.registry import policy_names
    from repro.workload.registry import scenario_names

    probed = PROBES.values()
    scenarios = {kwargs.get("scenario", "uniform") for kwargs in probed}
    policies = {kwargs.get("policy", "FIFO") for kwargs in probed}
    balancers = {kwargs.get("cluster", {}).get("balancer", "least-loaded") for kwargs in probed}
    assert set(scenario_names()) <= scenarios
    assert set(policy_names()) | {"baseline"} <= policies
    assert set(balancer_names()) <= balancers


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    text = json.dumps(capture(), indent=1, sort_keys=True) + "\n"
    PINS_PATH.write_text(text, encoding="utf-8")
    print(f"wrote {len(PROBES)} configs and {len(LISTINGS)} listings to {PINS_PATH}")
