"""Workload model: SeBS function catalog, scenario registry, and generators.

The paper drives its OpenWhisk deployment with the SeBS benchmark functions
(Table I) called in 60-second uniform bursts of configurable *intensity*
``v`` (total requests = ``1.1 * cores * v``).  This package reproduces that
workload synthetically and generalises it into an open scenario platform:

* :mod:`repro.workload.distributions` — a split log-normal service-time
  model fitted exactly to the published 5th/50th/95th percentiles
  (seconds);
* :mod:`repro.workload.functions` — :class:`FunctionSpec` and the Table-I
  catalog (:func:`sebs_catalog`);
* :mod:`repro.workload.generator` — :class:`Request`/:class:`BurstScenario`
  materialisation, the paper's intensity arithmetic
  (:func:`requests_for_intensity`), and the shared arrival-process helpers
  (:func:`poisson_arrivals`, :func:`zipf_weights`);
* :mod:`repro.workload.registry` — the **scenario registry**: a decorator
  (:func:`register_scenario`) that makes any builder addressable by name +
  JSON-able parameters from ``ExperimentConfig``, the grid, the CLI
  (``faas-sched scenarios`` / ``--scenario``), and the result cache;
* :mod:`repro.workload.scenarios` — registered builders: the paper's
  ``uniform`` (Sect. V-B), ``skewed`` (Sect. VII-D) and ``multi-node``
  (Sect. VIII) workloads plus the ``azure``, ``poisson``, ``diurnal`` and
  ``zipf-multitenant`` extensions;
* :mod:`repro.workload.trace` — the ``trace`` scenario: synthetic
  Azure-shaped profiles (baseline rate + peak, Zipf popularity);
* :mod:`repro.workload.replay` — the ``replay`` scenario: streaming CSV
  trace replay for Azure-trace-shaped ``app,func,minute,count`` files.

Every registered scenario is catalogued in ``docs/SCENARIOS.md`` (CI fails
if one is missing) and must draw all randomness from the
``numpy.random.Generator`` it is handed, which is what keeps parallel and
cached experiment runs bit-identical to serial ones.
"""

from repro.workload.distributions import SplitLogNormal, fit_split_lognormal
from repro.workload.functions import FunctionSpec, sebs_catalog, catalog_by_name
from repro.workload.generator import (
    BurstScenario,
    Request,
    poisson_arrivals,
    requests_for_intensity,
    zipf_weights,
)
from repro.workload.registry import (
    SCENARIOS,
    Param,
    ScenarioSpec,
    build_scenario,
    get_scenario,
    register_scenario,
    scenario_names,
)
from repro.workload.replay import TraceRow, iter_trace_rows, replay_scenario, write_trace_csv
from repro.workload.scenarios import (
    azure_like_burst,
    diurnal_burst,
    multi_node_burst,
    poisson_burst,
    skewed_burst,
    uniform_burst,
    zipf_multitenant_burst,
)
from repro.workload.trace import TraceProfile, trace_scenario

__all__ = [
    "BurstScenario",
    "FunctionSpec",
    "Request",
    "Param",
    "SCENARIOS",
    "ScenarioSpec",
    "SplitLogNormal",
    "TraceProfile",
    "TraceRow",
    "azure_like_burst",
    "build_scenario",
    "catalog_by_name",
    "diurnal_burst",
    "fit_split_lognormal",
    "get_scenario",
    "iter_trace_rows",
    "multi_node_burst",
    "poisson_arrivals",
    "poisson_burst",
    "register_scenario",
    "replay_scenario",
    "requests_for_intensity",
    "scenario_names",
    "sebs_catalog",
    "skewed_burst",
    "trace_scenario",
    "uniform_burst",
    "write_trace_csv",
    "zipf_multitenant_burst",
    "zipf_weights",
]
