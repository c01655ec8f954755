"""Burst scenario generation (paper Sect. V-A/V-B).

A *scenario of intensity v* on a node with ``c`` cores for the 11-function
catalog issues exactly ``1.1 * c * v`` requests, the same number per
function, uniformly distributed over a 60-second window.  After the window
no further requests arrive and the system drains.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Iterator, List, Optional, Sequence

import numpy as np

from repro.workload.functions import FunctionSpec

__all__ = [
    "Request",
    "BurstScenario",
    "RequestStream",
    "requests_for_intensity",
    "poisson_arrivals",
    "draw_requests",
    "zipf_weights",
    "BURST_WINDOW_S",
]

#: Length of the request burst (seconds), per the paper.
BURST_WINDOW_S = 60.0


def requests_for_intensity(cores: int, intensity: int, n_functions: int = 11) -> int:
    """Total request count for a scenario: ``0.1 * n_functions * c * v``.

    For the paper's 11-function catalog this is the published
    ``1.1 * c * v`` (e.g. 20 cores at intensity 30 -> 660 requests).
    """
    if cores < 1:
        raise ValueError(f"cores must be >= 1, got {cores!r}")
    if intensity < 1:
        raise ValueError(f"intensity must be >= 1, got {intensity!r}")
    total = 0.1 * n_functions * cores * intensity
    rounded = round(total)
    if abs(total - rounded) > 1e-9:
        # The paper only considers multiples of 10 so this is always exact
        # there; accept any parameters but keep the count integral.
        rounded = int(np.ceil(total))
    return int(rounded)


def zipf_weights(n: int, exponent: float) -> np.ndarray:
    """Normalised Zipf probabilities ``rank^-exponent`` over ranks 1..n.

    ``exponent=0`` degenerates to the uniform distribution.  Shared by the
    Azure-like, synthetic-trace, and multi-tenant scenario builders.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n!r}")
    if exponent < 0:
        raise ValueError(f"exponent must be non-negative, got {exponent!r}")
    ranks = np.arange(1, n + 1, dtype=float)
    weights = ranks ** (-exponent) if exponent > 0 else np.ones_like(ranks)
    return weights / weights.sum()


def poisson_arrivals(
    rate_fn: Callable[[float], float],
    max_rate: float,
    duration_s: float,
    rng: np.random.Generator,
) -> List[float]:
    """Arrival times (seconds) of a non-homogeneous Poisson process.

    Uses Lewis–Shedler thinning: propose arrivals at the constant
    ``max_rate`` (requests/second), accept each proposal at time ``t`` with
    probability ``rate_fn(t) / max_rate``.  ``rate_fn`` must never exceed
    ``max_rate`` on ``[0, duration_s)``; a homogeneous process is the
    special case ``rate_fn = lambda t: max_rate`` (every proposal accepted).

    Returns strictly increasing times in ``[0, duration_s)``; empty when
    ``max_rate <= 0``.
    """
    if duration_s <= 0:
        raise ValueError(f"duration_s must be positive, got {duration_s!r}")
    if max_rate <= 0:
        return []
    arrivals: List[float] = []
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / max_rate))
        if t >= duration_s:
            return arrivals
        if rng.random() <= rate_fn(t) / max_rate:
            arrivals.append(t)


def draw_requests(
    arrivals: Sequence[float],
    ordered: Sequence["FunctionSpec"],
    weights: np.ndarray,
    rng: np.random.Generator,
) -> List["Request"]:
    """Turn arrival times into :class:`Request`\\ s: one vectorized
    function draw over *weights* for all arrivals, then a service-time
    sample per request.  Shared tail of the arrival-process scenario
    builders (poisson/diurnal/trace)."""
    draws = rng.choice(len(ordered), size=len(arrivals), p=weights)
    requests: List[Request] = []
    for rid, t in enumerate(arrivals):
        spec = ordered[int(draws[rid])]
        service = float(spec.service_distribution.sample(rng))
        requests.append(Request(rid, spec, float(t), service))
    return requests


@dataclass(frozen=True)
class Request:
    """One function call (the *i*-th action call of the paper).

    Attributes
    ----------
    rid:
        Unique id within a scenario.
    function:
        The requested function, ``f(i)``.
    release_time:
        ``r(i)`` — moment the end-user generates the request (seconds).
    service_time:
        The call's intrinsic demand ``p(i)`` (seconds on a dedicated core,
        including its I/O phase); unknown to the scheduler until completion.
    """

    rid: int
    function: FunctionSpec
    release_time: float
    service_time: float

    @property
    def cpu_work(self) -> float:
        """CPU demand in core-seconds."""
        return self.service_time * self.function.cpu_fraction

    @property
    def io_time(self) -> float:
        """I/O latency (seconds) that does not consume a core."""
        return self.service_time - self.cpu_work


@dataclass
class BurstScenario:
    """A fully-materialised workload: requests sorted by release time.

    Build via the :mod:`repro.workload.scenarios` helpers or directly with
    :meth:`from_counts`.
    """

    requests: List[Request]
    window: float = BURST_WINDOW_S
    label: str = ""

    def __post_init__(self) -> None:
        self.requests = sorted(self.requests, key=attrgetter("release_time", "rid"))

    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self):
        return iter(self.requests)

    def arrivals(self) -> Iterator[Request]:
        """The lazy-arrival contract: requests in non-decreasing
        release-time order.  For a materialised scenario this is just
        iteration (``__post_init__`` already sorted); streaming workloads
        implement the same method without holding the full list
        (:class:`RequestStream`)."""
        return iter(self.requests)

    @property
    def functions(self) -> List[FunctionSpec]:
        """Distinct functions appearing in the scenario (stable order)."""
        seen = {}
        for req in self.requests:
            seen.setdefault(req.function.name, req.function)
        return list(seen.values())

    def count_for(self, function_name: str) -> int:
        return sum(1 for r in self.requests if r.function.name == function_name)

    @classmethod
    def from_counts(
        cls,
        counts: Sequence[tuple[FunctionSpec, int]],
        rng: np.random.Generator,
        window: float = BURST_WINDOW_S,
        label: str = "",
    ) -> "BurstScenario":
        """Uniform arrivals in ``[0, window)`` with the given per-function
        request counts; service times drawn from each function's fitted
        distribution."""
        requests: List[Request] = []
        rid = 0
        for spec, n in counts:
            if n < 0:
                raise ValueError(f"negative count for {spec.name!r}")
            if n == 0:
                continue
            arrivals = rng.uniform(0.0, window, size=n)
            services = spec.service_distribution.sample(rng, size=n)
            for arrival, service in zip(arrivals, services):
                requests.append(Request(rid, spec, float(arrival), float(service)))
                rid += 1
        return cls(requests=requests, window=window, label=label)

    def total_service_time(self) -> float:
        return sum(r.service_time for r in self.requests)

    def total_cpu_work(self) -> float:
        return sum(r.cpu_work for r in self.requests)


class RequestStream:
    """A lazy workload: requests yielded in release-time order, never all
    materialised at once.

    The streaming counterpart of :class:`BurstScenario`.  A stream has
    **no** ``__len__``: the total request count is unknown until the
    stream is drained.  The platform never asks; it pulls both shapes
    through :meth:`arrivals`, one request at a time (see
    ``FaaSPlatform.run_scenario``).

    Contract
    --------
    * :meth:`arrivals` yields :class:`Request` objects in **non-decreasing
      release-time order** (ties broken by ``rid``, matching
      :class:`BurstScenario`'s sort).  The platform enforces the ordering
      at injection time, for both shapes, and fails loudly on a violation.
    * A stream is **single-use**: the factory typically consumes RNG state
      and/or a file handle, so ``arrivals`` may only be called once.
    * Peak memory while iterating should be bounded by the workload's
      *concurrency*, not its length (CSV replay).  Scenarios without a
      streaming builder stream their materialised
      :class:`BurstScenario` instead (see ``ScenarioSpec.build_stream``).
    """

    def __init__(
        self,
        factory: Callable[[], Iterator[Request]],
        window: Optional[float] = None,
        label: str = "",
    ) -> None:
        self.factory = factory
        #: Emission window in seconds when known up front (``None`` for
        #: sources whose extent is only known once drained, e.g. replay).
        self.window = window
        self.label = label
        self._consumed = False

    def arrivals(self) -> Iterator[Request]:
        """The request generator (single-use; see the class contract)."""
        if self._consumed:
            raise RuntimeError(
                f"RequestStream {self.label!r} was already consumed; streams "
                f"are single-use (they drain RNG state and file handles) — "
                f"build a fresh one to replay the workload"
            )
        self._consumed = True
        return self.factory()

    def __iter__(self) -> Iterator[Request]:
        return self.arrivals()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<RequestStream {self.label!r} window={self.window}>"
