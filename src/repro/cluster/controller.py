"""The OpenWhisk controller's load-balancing role.

The paper does not modify the controller; its multi-node experiments use
the stock assignment of invocations to invokers.  We provide five
balancers:

* :class:`RoundRobinBalancer` — cyclic assignment;
* :class:`LeastLoadedBalancer` — fewest outstanding calls (ties by index);
* :class:`HashOverflowBalancer` — OpenWhisk's sharding-pool flavour: each
  function has a *home* invoker (hash of its name); when the home's
  outstanding work exceeds a capacity factor the call spills to the next
  invoker in a deterministic ring;
* :class:`PowerOfDChoicesBalancer` — join-shortest-of-d sampling: probe
  ``d`` invokers drawn from a seeded PRNG and send the call to the least
  loaded of the sample (Mitzenmacher's power of two choices for d=2);
* :class:`LocalityBalancer` — warm-container affinity: prefer invokers
  already holding idle warm containers for the request's function,
  spilling over a deterministic hash ring when every warm holder is
  overloaded.

Each is an entry of :data:`BALANCERS`, a :class:`~repro.catalog.Registry`
that declares its constructor parameters with units (catalogued in
docs/BALANCERS.md).

Every balancer counts its routing decisions in :class:`BalancerStats`
(picks, spills) so experiment results can report per-cluster routing
quality; the :class:`~repro.cluster.platform.FaaSPlatform` increments
``picks`` once per routed call and the spill-capable balancers increment
``spills`` themselves.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Sequence

from repro.catalog import RUNTIME, Param, Registry, Spec, require_number

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.workload.functions import FunctionSpec
    from repro.workload.generator import Request

__all__ = [
    "BalancerStats",
    "LoadBalancer",
    "RoundRobinBalancer",
    "LeastLoadedBalancer",
    "HashOverflowBalancer",
    "PowerOfDChoicesBalancer",
    "LocalityBalancer",
    "BalancerSpec",
    "BALANCERS",
    "balancer_names",
    "make_balancer",
    "validate_balancer_params",
]


@dataclass
class BalancerStats:
    """Routing counters of one balancer instance.

    ``picks`` counts routed calls (incremented by the platform, once per
    call); ``spills`` counts the calls a balancer could not place on its
    preferred invoker (home shard over threshold, no warm holder
    available, ...) — balancers without a preferred/fallback distinction
    never spill.
    """

    picks: int = 0
    spills: int = 0

    @property
    def spill_rate(self) -> float:
        """Fraction of routed calls that left the preferred invoker."""
        return self.spills / self.picks if self.picks else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "picks": self.picks,
            "spills": self.spills,
            "spill_rate": self.spill_rate,
        }


@dataclass(frozen=True)
class BalancerSpec(Spec):
    """A registered balancer flavour: its class plus catalog metadata."""

    kind = "balancer"


#: Registry of balancer flavours by name.
BALANCERS: Registry[BalancerSpec] = Registry(BalancerSpec, "balancers")

#: Sorted names of every registered balancer flavour.
balancer_names = BALANCERS.names

#: ``capacity_factor`` of the spilling balancers.
_CAPACITY_FACTOR = Param(
    "capacity_factor",
    2.0,
    "outstanding calls per core (calls/core) above which an invoker counts "
    "as overloaded and a call spills to the next invoker on the ring",
)


def _check_capacity_factor(balancer: str, capacity_factor: Any) -> None:
    if require_number("balancer", balancer, "capacity_factor", capacity_factor) <= 0:
        raise ValueError("capacity_factor must be positive")


def _check_sampling(d: Any, seed: Any = 0) -> None:
    # Exact type checks, not coercion: d=2.5 would silently truncate
    # while the cache fingerprint kept the untruncated value, so
    # distinct fingerprints would simulate identically.  bool is an int
    # but never what a balancer parameter means.
    if isinstance(d, bool) or not isinstance(d, int) or d < 1:
        raise ValueError(f"d must be an integer >= 1, got {d!r}")
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ValueError(f"seed must be an integer, got {seed!r}")


class LoadBalancer:
    """Base class: picks an invoker index for each request.

    When given a ``list``, the balancer keeps the *reference*: an
    autoscaler may append invokers mid-run and they become routable
    immediately.
    """

    name = ""

    def __init__(self, invokers: Sequence) -> None:
        if not invokers:
            raise ValueError("need at least one invoker")
        self.invokers = invokers if isinstance(invokers, list) else list(invokers)
        self.stats = BalancerStats()

    def pick(self, request: "Request") -> int:
        raise NotImplementedError


@BALANCERS.register("round-robin", description="cyclic assignment")
class RoundRobinBalancer(LoadBalancer):
    name = "round-robin"

    def __init__(self, invokers: Sequence) -> None:
        super().__init__(invokers)
        self._next = 0

    def pick(self, request: "Request") -> int:
        index = self._next
        self._next = (self._next + 1) % len(self.invokers)
        return index


@BALANCERS.register(
    "least-loaded",
    description="fewest outstanding calls, ties by invoker index",
    paper_section="VIII",
)
class LeastLoadedBalancer(LoadBalancer):
    name = "least-loaded"

    def pick(self, request: "Request") -> int:
        return min(
            range(len(self.invokers)), key=lambda i: (self.invokers[i].outstanding, i)
        )


class _SpillingBalancer(LoadBalancer):
    """Shared overload threshold and deterministic hash-ring walk for the
    spilling balancers (``capacity_factor`` x cores outstanding calls)."""

    def __init__(self, invokers: Sequence, capacity_factor: float = 2.0) -> None:
        super().__init__(invokers)
        _check_capacity_factor(self.name, capacity_factor)
        self.capacity_factor = capacity_factor

    def _threshold(self, invoker) -> float:
        return self.capacity_factor * invoker.config.cores

    def _ring_pick(self, invokers: List, home: int) -> int:
        """First under-threshold invoker on the ring starting at *home*;
        the globally least-loaded one if every invoker is overloaded."""
        n = len(invokers)
        for step in range(n):
            index = (home + step) % n
            if invokers[index].outstanding < self._threshold(invokers[index]):
                return index
        return min(range(n), key=lambda i: (invokers[i].outstanding, i))


@BALANCERS.register(
    "hash-overflow",
    description=(
        "OpenWhisk's sharding pool: home invoker by function-name hash, "
        "spill along a ring when the home is overloaded"
    ),
    params=(_CAPACITY_FACTOR,),
    validator=lambda params: _check_capacity_factor("hash-overflow", **params),
)
class HashOverflowBalancer(_SpillingBalancer):
    """Home invoker by function-name hash, spill on overload.

    ``capacity_factor`` scales each node's nominal concurrency (its core
    count) into an outstanding-call threshold above which the balancer
    tries the next invoker on the ring; if every invoker is above its
    threshold the least-loaded one is used.  Every call that leaves its
    home invoker counts as one spill in :attr:`LoadBalancer.stats`.
    """

    name = "hash-overflow"

    def pick(self, request: "Request") -> int:
        home = _stable_hash(request.function.name) % len(self.invokers)
        index = self._ring_pick(self.invokers, home)
        if index != home:
            self.stats.spills += 1
        return index


@BALANCERS.register(
    "power-of-d",
    description="join the shortest of d invokers sampled per call",
    params=(
        Param("d", 2, "invokers sampled per call (count, >= 1)"),
        Param(
            "seed",
            RUNTIME,
            "sampling PRNG seed (integer); by default the experiment's root seed",
        ),
    ),
    validator=lambda params: _check_sampling(**params),
)
class PowerOfDChoicesBalancer(LoadBalancer):
    """Join-shortest-of-d: sample ``d`` distinct invokers, pick the least
    loaded of the sample (ties by index).

    The classic load-balancing result: sampling just two queues gets
    exponentially close to join-shortest-queue at a fraction of the
    probing cost — the right trade for large fleets where probing every
    invoker per call is unrealistic.  Sampling uses a private
    ``random.Random(seed)``, so runs are deterministic for a given seed
    and bit-identical across the serial and parallel engines; the
    experiment runner derives ``seed`` from the experiment's root seed
    unless one is given explicitly.

    Reads ``len(self.invokers)`` on every pick, so invokers appended to a
    live list mid-run (autoscaling) join the sampling population
    immediately.
    """

    name = "power-of-d"

    def __init__(self, invokers: Sequence, d: int = 2, seed: int = 1) -> None:
        super().__init__(invokers)
        _check_sampling(d, seed)
        self.d = d
        self._rng = random.Random(seed)

    def pick(self, request: "Request") -> int:
        n = len(self.invokers)
        if self.d >= n:
            candidates = range(n)
        else:
            candidates = self._rng.sample(range(n), self.d)
        return min(candidates, key=lambda i: (self.invokers[i].outstanding, i))


@BALANCERS.register(
    "locality",
    description=(
        "warm-container affinity: prefer invokers holding an idle warm "
        "container for the function, spill along a hash ring otherwise"
    ),
    params=(_CAPACITY_FACTOR,),
    validator=lambda params: _check_capacity_factor("locality", **params),
)
class LocalityBalancer(_SpillingBalancer):
    """Warm-container affinity with deterministic overflow.

    Prefers invokers that already hold an idle warm container for the
    request's function — routing there skips the cold-start path
    entirely, which is the single largest response-time term for short
    functions (paper Sect. VI).  Among warm holders under the overload
    threshold (``capacity_factor`` x cores outstanding calls, like
    :class:`HashOverflowBalancer`), the one with the most idle warm
    containers wins, ties broken by fewer outstanding calls then index.

    When no invoker holds a warm container — or every holder is over its
    threshold — the call *spills* (counted in stats) over the same
    deterministic hash ring as :class:`HashOverflowBalancer`: home by
    function-name hash, first under-threshold invoker on the ring,
    least-loaded as the last resort.  Spilling therefore tends to create
    a warm container on the spill target, so a hot function's working
    set spreads over exactly as many invokers as its load requires.

    Invokers that do not expose a container pool (plain stubs) count as
    holding no warm containers.
    """

    name = "locality"

    @staticmethod
    def _warm_count(invoker, spec: "FunctionSpec") -> int:
        pool = getattr(invoker, "pool", None)
        if pool is None:
            return 0
        return pool.warm_count(spec)

    def pick(self, request: "Request") -> int:
        n = len(self.invokers)
        spec = request.function
        best: Optional[int] = None
        best_key = None
        for index in range(n):
            invoker = self.invokers[index]
            warm = self._warm_count(invoker, spec)
            if warm <= 0 or invoker.outstanding >= self._threshold(invoker):
                continue
            key = (-warm, invoker.outstanding, index)
            if best_key is None or key < best_key:
                best, best_key = index, key
        if best is not None:
            return best
        # No routable warm holder: deterministic hash-ring overflow
        # (shared with HashOverflowBalancer).
        self.stats.spills += 1
        return self._ring_pick(self.invokers, _stable_hash(spec.name) % n)


def validate_balancer_params(
    name: str, params: Optional[Mapping[str, Any]] = None
) -> Dict[str, Any]:
    """Validate balancer *name* and constructor *params*, returning the
    params merged over the declared defaults (see
    :meth:`~repro.catalog.Spec.validate_params`), so a bad cluster
    configuration fails when the config is built, not minutes into a
    sweep.  ``seed`` is not merged in: it is filled at run time from the
    experiment's root seed unless the caller pinned it explicitly."""
    return BALANCERS.get(name).validate_params(params)


def make_balancer(
    name: str, invokers: Sequence, *, seed: Optional[int] = None, **kwargs
) -> LoadBalancer:
    """Instantiate the balancer registered under *name*.

    ``seed`` is forwarded only to balancers that declare a ``seed``
    parameter (the sampling ones) and only when the caller did not pass
    one in ``kwargs`` — so an experiment's root seed drives the sampling
    PRNG by default while an explicit ``seed`` balancer param pins it.
    """
    spec = BALANCERS.get(name)
    if seed is not None and "seed" in spec.param_names() and "seed" not in kwargs:
        kwargs = {**kwargs, "seed": seed}
    return spec.builder(invokers, **kwargs)


def _stable_hash(name: str) -> int:
    """Process-independent 32-bit FNV-1a (Python's hash() is salted)."""
    value = 0x811C9DC5
    for byte in name.encode("utf-8"):
        value ^= byte
        value = (value * 0x01000193) & 0xFFFFFFFF
    return value
