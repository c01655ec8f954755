"""Node-level scheduling policies — the paper's primary contribution.

* :mod:`repro.scheduling.estimator` — the data-driven processing-time
  estimator ``E(p(i))``: mean of the last ≤10 node-measured processing
  times of the same function (0 for never-executed functions);
* :mod:`repro.scheduling.policies` — the five queueing policies of
  Sect. IV: FIFO, SEPT, EECT, RECT and Fair-Choice (FC);
* :mod:`repro.scheduling.extra` — extension policies bounding the paper's
  results (clairvoyant oracle, ETAS-like EMA rule, per-function RR);
* :mod:`repro.scheduling.parametric` — parameterized extension policies
  (FC/EECT hybrid, SEPT with a configurable estimator);
* :mod:`repro.scheduling.registry` — the policy registry: every policy
  above is a named, parameterized, first-class catalog entry consumed by
  the experiment grid, the cache, and the CLI;
* :mod:`repro.scheduling.queue` — a stable priority queue (ties broken by
  arrival order) used by the invoker.
"""

from repro.scheduling.estimator import RuntimeEstimator
from repro.scheduling.policies import (
    EarliestExpectedCompletionTime,
    FairChoice,
    FirstInFirstOut,
    RecentExpectedCompletionTime,
    SchedulingPolicy,
    ShortestExpectedProcessingTime,
)
from repro.scheduling.extra import ClairvoyantSPT, EtasLike, RoundRobinPerFunction
from repro.scheduling.parametric import HybridFairCompletion, SmoothedSEPT
from repro.scheduling.queue import StablePriorityQueue
from repro.scheduling.registry import (
    POLICY_REGISTRY,
    Param,
    PolicySpec,
    build_policy,
    get_policy,
    policy_names,
    register_policy,
)

__all__ = [
    "ClairvoyantSPT",
    "EarliestExpectedCompletionTime",
    "EtasLike",
    "FairChoice",
    "FirstInFirstOut",
    "HybridFairCompletion",
    "POLICY_REGISTRY",
    "Param",
    "PolicySpec",
    "RecentExpectedCompletionTime",
    "RoundRobinPerFunction",
    "RuntimeEstimator",
    "SchedulingPolicy",
    "ShortestExpectedProcessingTime",
    "SmoothedSEPT",
    "StablePriorityQueue",
    "build_policy",
    "get_policy",
    "policy_names",
    "register_policy",
]
