"""repro — reproduction of "Call Scheduling to Reduce Response Time of a FaaS
System" (Żuk, Przybylski, Rzadca; IEEE CLUSTER 2022).

The package simulates an OpenWhisk-like FaaS platform with a discrete-event
kernel and implements the paper's node-level scheduling policies (FIFO, SEPT,
EECT, RECT, Fair-Choice) together with its CPU-based container management,
plus the default OpenWhisk baseline the paper compares against.

Quickstart
----------
>>> from repro import ExperimentConfig, run_experiment
>>> cfg = ExperimentConfig(cores=10, intensity=30, policy="SEPT", seed=1)
>>> result = run_experiment(cfg)
>>> result.summary().mean_response_time  # doctest: +SKIP

Public names are re-exported lazily (PEP 562) so that subpackages — e.g. the
standalone DES kernel :mod:`repro.sim` — can be imported without pulling in
the whole platform model.
"""

from typing import TYPE_CHECKING

__version__ = "1.0.0"

#: Maps public name -> defining module, resolved lazily on attribute access.
_EXPORTS = {
    "FunctionSpec": "repro.workload.functions",
    "sebs_catalog": "repro.workload.functions",
    "BurstScenario": "repro.workload.generator",
    "requests_for_intensity": "repro.workload.generator",
    "ScenarioParam": "repro.workload.registry",
    "ScenarioRegistry": "repro.workload.registry",
    "ScenarioSpec": "repro.workload.registry",
    "register_scenario": "repro.workload.registry",
    "build_scenario": "repro.workload.registry",
    "get_scenario": "repro.workload.registry",
    "scenario_names": "repro.workload.registry",
    "replay_scenario": "repro.workload.replay",
    "POLICIES": "repro.scheduling.policies",
    "SchedulingPolicy": "repro.scheduling.policies",
    "FirstInFirstOut": "repro.scheduling.policies",
    "ShortestExpectedProcessingTime": "repro.scheduling.policies",
    "EarliestExpectedCompletionTime": "repro.scheduling.policies",
    "RecentExpectedCompletionTime": "repro.scheduling.policies",
    "FairChoice": "repro.scheduling.policies",
    "make_policy": "repro.scheduling.policies",
    "PolicyParam": "repro.scheduling.registry",
    "PolicyRegistry": "repro.scheduling.registry",
    "PolicySpec": "repro.scheduling.registry",
    "register_policy": "repro.scheduling.registry",
    "build_policy": "repro.scheduling.registry",
    "get_policy": "repro.scheduling.registry",
    "policy_names": "repro.scheduling.registry",
    "RuntimeEstimator": "repro.scheduling.estimator",
    "ClusterSpec": "repro.cluster.spec",
    "AutoscalerConfig": "repro.cluster.autoscaler",
    "balancer_names": "repro.cluster.controller",
    "make_balancer": "repro.cluster.controller",
    "ExperimentConfig": "repro.experiments.config",
    "run_experiment": "repro.experiments.runner",
    "run_repetitions": "repro.experiments.runner",
    "GridSpec": "repro.experiments.grid",
    "GridResults": "repro.experiments.grid",
    "run_grid": "repro.experiments.grid",
    "run_configs": "repro.experiments.parallel",
    "ResultCache": "repro.experiments.parallel",
    "EngineStats": "repro.experiments.parallel",
    "progress_printer": "repro.experiments.parallel",
    "CallRecord": "repro.metrics.records",
    "SummaryStats": "repro.metrics.stats",
    "summarize": "repro.metrics.stats",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(module_name)
    value = getattr(module, name)
    globals()[name] = value  # cache for next access
    return value


def __dir__():
    return __all__


if TYPE_CHECKING:  # pragma: no cover - static analysis only
    from repro.cluster.autoscaler import AutoscalerConfig
    from repro.cluster.controller import balancer_names, make_balancer
    from repro.cluster.spec import ClusterSpec
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.grid import GridResults, GridSpec, run_grid
    from repro.experiments.parallel import (
        EngineStats,
        ResultCache,
        progress_printer,
        run_configs,
    )
    from repro.experiments.runner import run_experiment, run_repetitions
    from repro.metrics.records import CallRecord
    from repro.metrics.stats import SummaryStats, summarize
    from repro.scheduling.estimator import RuntimeEstimator
    from repro.scheduling.policies import (
        POLICIES,
        EarliestExpectedCompletionTime,
        FairChoice,
        FirstInFirstOut,
        RecentExpectedCompletionTime,
        SchedulingPolicy,
        ShortestExpectedProcessingTime,
        make_policy,
    )
    from repro.scheduling.registry import (
        PolicyParam,
        PolicyRegistry,
        PolicySpec,
        build_policy,
        get_policy,
        policy_names,
        register_policy,
    )
    from repro.workload.functions import FunctionSpec, sebs_catalog
    from repro.workload.generator import BurstScenario, requests_for_intensity
    from repro.workload.registry import (
        ScenarioParam,
        ScenarioRegistry,
        ScenarioSpec,
        build_scenario,
        get_scenario,
        register_scenario,
        scenario_names,
    )
    from repro.workload.replay import replay_scenario
