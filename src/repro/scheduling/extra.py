"""Extension policies beyond the paper's five (docs/POLICIES.md, Extensions).

These are **not** part of the reproduction proper; they bound and
contextualise the paper's results.  All three are registered in the
scheduling-policy registry (:mod:`repro.scheduling.registry`), so they
run through ``ExperimentConfig``, the grid, the parallel engine and the
CLI exactly like the paper's policies:

* :class:`ClairvoyantSPT` — an oracle that knows each call's true
  processing time ``p(i)``.  Upper-bounds what any estimate-driven
  shortest-first policy (SEPT) could achieve; the gap between SEPT and
  this oracle measures the cost of estimation error.
* :class:`EtasLike` — the queueing rule of ETAS (Banaei & Sharifi, 2021,
  the paper's [43]): order by estimated completion time using a
  per-function *exponential moving average* runtime estimate rather than
  the paper's sliding-window mean.
* :class:`RoundRobinPerFunction` — classic fair queueing at function
  granularity: functions take turns, calls within a function stay FIFO.
  A fairness baseline for Fig.-5-style studies.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from repro.scheduling.estimator import EmaTracker, RuntimeEstimator
from repro.scheduling.policies import SchedulingPolicy
from repro.scheduling.registry import Param, register_policy, require_number

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.workload.generator import Request

__all__ = ["ClairvoyantSPT", "EtasLike", "RoundRobinPerFunction"]


def _validate_etas_params(params: dict) -> None:
    alpha = require_number("policy", "ETAS", "alpha", params["alpha"])
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {params['alpha']!r}")


@register_policy(
    "ORACLE-SPT",
    description=(
        "clairvoyant shortest processing time: priority is the true p(i); "
        "upper-bounds what SEPT could achieve"
    ),
)
class ClairvoyantSPT(SchedulingPolicy):
    """Oracle shortest-processing-time: priority is the true ``p(i)``.

    Violates the paper's non-clairvoyance assumption by construction —
    useful only as a bound.
    """

    name = "ORACLE-SPT"
    starvation_free = False

    def priority(self, request: "Request", received_at: float) -> float:
        return request.service_time


@register_policy(
    "ETAS",
    description=(
        "ETAS-like rule of Banaei & Sharifi 2021 (the paper's [43]): "
        "r'(i) + EMA runtime estimate"
    ),
    starvation_free=True,
    params=(
        Param(
            "alpha",
            0.3,
            "EMA smoothing factor in (0, 1]; 1 keeps only the last sample",
        ),
    ),
    validator=_validate_etas_params,
)
class EtasLike(SchedulingPolicy):
    """ETAS-style earliest-estimated-completion with an EMA estimator.

    Priority is ``r'(i) + ema(f(i))`` where the EMA updates as
    ``ema <- alpha * sample + (1 - alpha) * ema`` on each completion.
    Functionally close to the paper's EECT; the difference is purely the
    estimator's memory profile.
    """

    name = "ETAS"
    starvation_free = True

    def __init__(self, estimator: RuntimeEstimator, alpha: float = 0.3) -> None:
        super().__init__(estimator)
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {alpha!r}")
        self.alpha = alpha
        self._ema = EmaTracker(alpha)

    def priority(self, request: "Request", received_at: float) -> float:
        return received_at + self._ema.get(request.function.name)

    def on_completed(self, request: "Request", processing_time: float) -> None:
        super().on_completed(request, processing_time)
        self._ema.update(request.function.name, processing_time)

    def record_warmup(self, function_name: str, processing_time: float) -> None:
        super().record_warmup(function_name, processing_time)
        self._ema.update(function_name, processing_time)

    def ema(self, function_name: str) -> float:
        """Current EMA estimate (0 for never-seen functions)."""
        return self._ema.get(function_name)


@register_policy(
    "RR-FN",
    description=(
        "per-function round-robin: functions take turns, calls within a "
        "function stay FIFO"
    ),
    starvation_free=True,
)
class RoundRobinPerFunction(SchedulingPolicy):
    """Per-function round-robin: the k-th call of any function gets
    priority ``k`` — functions interleave fairly, FIFO within a function."""

    name = "RR-FN"
    starvation_free = True

    def __init__(self, estimator: RuntimeEstimator) -> None:
        super().__init__(estimator)
        self._counts: Dict[str, int] = {}

    def priority(self, request: "Request", received_at: float) -> float:
        name = request.function.name
        count = self._counts.get(name, 0)
        self._counts[name] = count + 1
        return float(count)

