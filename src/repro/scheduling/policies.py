"""The five node-level scheduling policies of paper Sect. IV.

Each policy maps an incoming call to a scalar *priority*; the invoker's
queue serves the **lowest** priority first.  Priorities are computed once,
when the call is received by the invoker (``r'(i)``), and never change
(paper: "once a priority of a particular action call is computed, it does
not change").

===========  =========================================================
Policy       Priority of call *i*
===========  =========================================================
FIFO         ``r'(i)`` — receipt time (the baseline ordering)
SEPT         ``E(p(i))`` — expected processing time
EECT         ``r'(i) + E(p(i))`` — expected completion time if a core
             were immediately available (starvation-free)
RECT         ``r̄(i) + E(p(i))`` — like EECT but anchored at the receipt
             time of the *previous* call of the same function
             (starvation-free; r̄ increases over time)
FC           ``#(f(i), -T) · E(p(i))`` — recent total resource
             consumption of the function (fairness across functions)
===========  =========================================================
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.scheduling.estimator import RuntimeEstimator
from repro.scheduling.registry import register_policy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.workload.generator import Request

__all__ = [
    "SchedulingPolicy",
    "FirstInFirstOut",
    "ShortestExpectedProcessingTime",
    "EarliestExpectedCompletionTime",
    "RecentExpectedCompletionTime",
    "FairChoice",
]


class SchedulingPolicy:
    """Base class: computes an immutable priority at call receipt.

    Subclasses implement :meth:`priority`.  The invoker calls
    :meth:`on_received` exactly once per call, *in receipt order*; the
    default implementation computes the priority and then lets the
    estimator record the arrival (order matters for RECT's ``r̄``).
    """

    #: Registry name, set by subclasses.
    name: str = ""
    #: Whether the policy provably prevents starvation (paper Sect. IV).
    starvation_free: bool = False

    def __init__(self, estimator: RuntimeEstimator) -> None:
        self.estimator = estimator

    def priority(self, request: "Request", received_at: float) -> float:
        """The call's priority (lower = served earlier)."""
        raise NotImplementedError

    def on_received(self, request: "Request", received_at: float) -> float:
        """Compute the priority, then record the arrival for bookkeeping."""
        value = self.priority(request, received_at)
        self.estimator.record_arrival(request.function.name, received_at)
        return value

    def on_completed(self, request: "Request", processing_time: float) -> None:
        """Feed the node-measured processing time back to the estimator."""
        self.estimator.record_completion(request.function.name, processing_time)

    def record_warmup(self, function_name: str, processing_time: float) -> None:
        """Seed estimation state during node warm-up (paper Sect. V-A).

        The default feeds the window estimator exactly like a measured
        completion; policies that keep their own estimates (EMA-based
        ones) override this so warm-up reaches them too — otherwise their
        first-wave priorities would degenerate while the window policies
        start seeded.
        """
        self.estimator.record_completion(function_name, processing_time)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__}>"


@register_policy(
    "FIFO",
    description="first-in-first-out: priority is the receipt time r'(i)",
    paper_section="IV",
    starvation_free=True,
)
class FirstInFirstOut(SchedulingPolicy):
    """FIFO: priority is the receipt time ``r'(i)``.

    Note this is *our* FIFO (paper Sect. IV): ordering matches the
    baseline, but it runs on top of the CPU-based container management
    (1 core per container, busy <= cores, bounded working set).
    """

    name = "FIFO"
    starvation_free = True  # receipt times strictly increase

    def priority(self, request: "Request", received_at: float) -> float:
        return received_at


@register_policy(
    "SEPT",
    description="shortest expected processing time: priority is E(p(i))",
    paper_section="IV",
)
class ShortestExpectedProcessingTime(SchedulingPolicy):
    """SEPT: priority is ``E(p(i))``; short functions jump the queue."""

    name = "SEPT"
    starvation_free = False

    def priority(self, request: "Request", received_at: float) -> float:
        return self.estimator.expected_processing_time(request.function.name)


@register_policy(
    "EECT",
    description="earliest expected completion time: priority is r'(i) + E(p(i))",
    paper_section="IV",
    starvation_free=True,
)
class EarliestExpectedCompletionTime(SchedulingPolicy):
    """EECT: priority is ``r'(i) + E(p(i))``.

    Starvation-free: if ``r'(j) > r'(i) + E(p(i))`` then *j* is served
    after *i*, so no call waits forever (paper Sect. IV).
    """

    name = "EECT"
    starvation_free = True

    def priority(self, request: "Request", received_at: float) -> float:
        return received_at + self.estimator.expected_processing_time(request.function.name)


@register_policy(
    "RECT",
    description=(
        "recent expected completion time: like EECT but anchored at the "
        "previous same-function receipt time r̄(i)"
    ),
    paper_section="IV",
    starvation_free=True,
)
class RecentExpectedCompletionTime(SchedulingPolicy):
    """RECT: priority is ``r̄(i) + E(p(i))`` with ``r̄(i)`` the receipt time
    of the previous call of the same function (the current receipt time for
    a function's first call).  ``r̄`` increases over time, so RECT is
    starvation-free like EECT but favours functions idle for a while."""

    name = "RECT"
    starvation_free = True

    def priority(self, request: "Request", received_at: float) -> float:
        previous = self.estimator.previous_arrival(request.function.name)
        anchor = previous if previous is not None else received_at
        return anchor + self.estimator.expected_processing_time(request.function.name)


@register_policy(
    "FC",
    description=(
        "fair choice: priority is #(f(i), -T) * E(p(i)) — recent total "
        "resource consumption of the function"
    ),
    paper_section="IV",
)
class FairChoice(SchedulingPolicy):
    """FC: priority is ``#(f(i), -T) * E(p(i))`` — the function's estimated
    total processing-time consumption over the recent window ``T``.

    Functions that recently consumed much node time (frequent or long) are
    deprioritised, yielding inter-function fairness (paper Sect. VII-D).
    """

    name = "FC"
    starvation_free = False

    def priority(self, request: "Request", received_at: float) -> float:
        fname = request.function.name
        count = self.estimator.recent_call_count(fname, received_at)
        return count * self.estimator.expected_processing_time(fname)

