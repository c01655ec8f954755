"""Parameterized extension policies (registry-native, beyond the paper).

The paper fixes every policy's estimator to the 10-sample sliding-window
mean and gives no policy a knob.  These two policies exist to open the
estimator-ablation space the paper only gestures at (Sect. IV-B cites
[18] for the window choice; Sect. VII-D motivates fairness/urgency
blending):

* :class:`HybridFairCompletion` (``FC-HYBRID``) — a convex blend of
  Fair-Choice's recent-consumption fairness term and EECT's expected
  completion deadline.  ``deadline_weight=0`` is exactly FC,
  ``deadline_weight=1`` exactly EECT; anything in between trades
  inter-function fairness against starvation-bounded urgency.
* :class:`SmoothedSEPT` (``SEPT-EMA``) — SEPT with the estimator made
  policy-configurable: the sliding-window length is a parameter (routed
  into :class:`~repro.scheduling.estimator.RuntimeEstimator`
  construction), and an optional exponential-moving-average estimate
  (``smoothing > 0``) replaces the window mean entirely — the memory
  profile of ETAS under SEPT's ordering rule.

Both register through :func:`repro.scheduling.registry.register_policy`
with declared, documented parameters, so ``--policy-param`` reaches them
from the CLI and their parameters are part of the result-cache
fingerprint.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.scheduling.estimator import EmaTracker, RuntimeEstimator
from repro.scheduling.policies import SchedulingPolicy
from repro.scheduling.registry import EstimatorFactory, Param, register_policy, require_number

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.workload.generator import Request

__all__ = ["HybridFairCompletion", "SmoothedSEPT"]


def _validate_hybrid_params(params: dict) -> None:
    weight = require_number("policy", "FC-HYBRID", "deadline_weight", params["deadline_weight"])
    if not 0.0 <= weight <= 1.0:
        raise ValueError(
            f"deadline_weight must lie in [0, 1], got {params['deadline_weight']!r}"
        )


def _validate_smoothed_sept_params(params: dict) -> None:
    smoothing = require_number("policy", "SEPT-EMA", "smoothing", params["smoothing"])
    if not 0.0 <= smoothing < 1.0:
        raise ValueError(f"smoothing must lie in [0, 1), got {params['smoothing']!r}")
    window = params["window"]
    if window is None:
        return
    if smoothing:
        # With smoothing > 0 the priority reads only the EMA, so a window
        # would be silently inert — yet still diverge the cache
        # fingerprint, producing distinct cache entries with identical
        # results.  Reject the combination instead.
        raise ValueError(
            "SEPT-EMA ignores the window mean when smoothing > 0; give "
            "either window (window-mean SEPT) or smoothing (EMA), not both"
        )
    window = require_number("policy", "SEPT-EMA", "window", window)
    if int(window) != window or window < 1:
        raise ValueError(
            f"window must be a positive integer, got {params['window']!r}"
        )
    # Canonicalise integral floats (3.0 -> 3): the merged params are what
    # the config stores and fingerprints, and 3.0 vs 3 must not address
    # two cache entries for bit-identical simulations.
    params["window"] = int(window)


@register_policy(
    "FC-HYBRID",
    description=(
        "convex blend of FC fairness and EECT urgency: "
        "(1-w) * #(f,-T)*E(p) + w * (r' + E(p))"
    ),
    starvation_free=True,  # any w > 0 inherits EECT's unbounded r' anchor
    params=(
        Param(
            "deadline_weight",
            0.5,
            "weight w in [0, 1] on the EECT completion-deadline term; "
            "0 is exactly FC, 1 exactly EECT",
        ),
    ),
    validator=_validate_hybrid_params,
)
class HybridFairCompletion(SchedulingPolicy):
    """FC-HYBRID: ``(1-w) * #(f(i),-T) * E(p(i)) + w * (r'(i) + E(p(i)))``.

    Fair-Choice throttles functions by their recent resource consumption
    but is not starvation-free; EECT bounds every call's wait via its
    receipt-time anchor but ignores fairness.  The blend keeps FC's
    inter-function fairness pressure while the deadline term's unbounded
    growth guarantees no call waits forever (for any ``w > 0``).
    """

    name = "FC-HYBRID"
    starvation_free = True

    def __init__(self, estimator: RuntimeEstimator, deadline_weight: float = 0.5) -> None:
        super().__init__(estimator)
        if not 0.0 <= deadline_weight <= 1.0:
            raise ValueError(
                f"deadline_weight must lie in [0, 1], got {deadline_weight!r}"
            )
        self.deadline_weight = float(deadline_weight)

    def priority(self, request: "Request", received_at: float) -> float:
        fname = request.function.name
        estimate = self.estimator.expected_processing_time(fname)
        fairness = self.estimator.recent_call_count(fname, received_at) * estimate
        deadline = received_at + estimate
        w = self.deadline_weight
        return (1.0 - w) * fairness + w * deadline


@register_policy(
    "SEPT-EMA",
    description=(
        "SEPT with a policy-configurable estimator: sliding-window length "
        "as a parameter, optional EMA smoothing replacing the window mean"
    ),
    params=(
        Param(
            "window",
            None,
            "sliding-window length (samples) of the runtime estimator; "
            "None keeps the node's configured estimator_window (the paper "
            "fixes 10)",
        ),
        Param(
            "smoothing",
            0.0,
            "EMA factor in [0, 1): 0 keeps the window mean; alpha > 0 "
            "orders by an EMA estimate instead",
        ),
    ),
    validator=_validate_smoothed_sept_params,
)
def _build_smoothed_sept(
    make_estimator: EstimatorFactory, *, window: "int | None", smoothing: float
) -> "SmoothedSEPT":
    """Builder: routes ``window`` into estimator construction — the
    registry's estimator factory starts from the node's configured
    defaults, so only an explicitly supplied window changes them.
    Parameter values arrive validated (see
    :func:`_validate_smoothed_sept_params`)."""
    if window is None:
        return SmoothedSEPT(make_estimator(), smoothing=smoothing)
    return SmoothedSEPT(make_estimator(window=int(window)), smoothing=smoothing)


class SmoothedSEPT(SchedulingPolicy):
    """SEPT-EMA: shortest-first under a reconfigured estimator.

    With ``smoothing == 0`` the priority is the window-mean estimate
    (plain SEPT over a custom window).  With ``smoothing > 0`` the
    priority is a per-function EMA updated as ``ema <- alpha * sample +
    (1 - alpha) * ema`` on each completion — never-seen functions keep
    estimate 0 and are tried quickly, exactly like SEPT.
    """

    name = "SEPT-EMA"
    starvation_free = False

    def __init__(self, estimator: RuntimeEstimator, smoothing: float = 0.0) -> None:
        super().__init__(estimator)
        if not 0.0 <= smoothing < 1.0:
            raise ValueError(f"smoothing must lie in [0, 1), got {smoothing!r}")
        self.smoothing = float(smoothing)
        self._ema = EmaTracker(smoothing)

    def priority(self, request: "Request", received_at: float) -> float:
        fname = request.function.name
        if self.smoothing > 0.0:
            return self._ema.get(fname)
        return self.estimator.expected_processing_time(fname)

    def on_completed(self, request: "Request", processing_time: float) -> None:
        super().on_completed(request, processing_time)
        if self.smoothing > 0.0:
            self._ema.update(request.function.name, processing_time)

    def record_warmup(self, function_name: str, processing_time: float) -> None:
        super().record_warmup(function_name, processing_time)
        if self.smoothing > 0.0:
            self._ema.update(function_name, processing_time)

    def ema(self, function_name: str) -> float:
        """Current EMA estimate (0 for never-seen functions)."""
        return self._ema.get(function_name)
