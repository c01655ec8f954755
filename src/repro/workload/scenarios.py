"""Named scenario builders for the paper's experiments and extensions.

Every builder here is registered in the scenario registry
(:mod:`repro.workload.registry`), which makes it addressable by name from
:class:`~repro.experiments.config.ExperimentConfig`, the grid, the CLI
(``faas-sched run/grid/simulate --scenario <name>``), and the result
cache.  Builders take the paper's load arithmetic (``cores``,
``intensity``), a seeded ``numpy.random.Generator``, and keyword
parameters; all randomness must come from the supplied generator so that
parallel and cached runs stay bit-identical to serial ones.

Paper scenarios: ``uniform`` (Sect. V-B), ``skewed`` (Sect. VII-D),
``multi-node`` (Sect. VIII).  Extensions: ``azure`` (Zipf call mix),
``poisson`` (memoryless arrivals), ``diurnal`` (sinusoidal rate),
``zipf-multitenant`` (tenant-namespaced contention); the synthetic-trace
and CSV-replay scenarios live in :mod:`repro.workload.trace` and
:mod:`repro.workload.replay`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.workload.functions import FunctionSpec, sebs_catalog
from repro.workload.generator import (
    BURST_WINDOW_S,
    BurstScenario,
    Request,
    draw_requests,
    poisson_arrivals,
    requests_for_intensity,
    zipf_weights,
)
from repro.workload.registry import Param, register_scenario

__all__ = [
    "uniform_burst",
    "skewed_burst",
    "multi_node_burst",
    "azure_like_burst",
    "poisson_burst",
    "diurnal_burst",
    "zipf_multitenant_burst",
]


def uniform_burst(
    cores: int,
    intensity: int,
    rng: np.random.Generator,
    catalog: Optional[Sequence[FunctionSpec]] = None,
    window: float = BURST_WINDOW_S,
) -> BurstScenario:
    """The main experimental workload (paper Sect. V-B).

    Each of the 11 catalog functions is called exactly ``0.1 * cores *
    intensity`` times, uniformly over the *window* (seconds).

    Raises :class:`ValueError` when ``0.1 * cores * intensity`` is not an
    integer — the paper's arithmetic only defines the scenario for whole
    per-function counts.
    """
    catalog = list(catalog) if catalog is not None else sebs_catalog()
    per_function = 0.1 * cores * intensity
    count = round(per_function)
    if abs(per_function - count) > 1e-9:
        raise ValueError(
            f"uniform burst needs a whole per-function call count, but "
            f"0.1 * cores * intensity = 0.1 * {cores} * {intensity} = "
            f"{per_function:g}; choose cores and intensity whose product is "
            f"a multiple of 10 (e.g. intensity={_nearest_valid_intensity(cores, intensity)})"
        )
    counts = [(spec, int(count)) for spec in catalog]
    return BurstScenario.from_counts(
        counts, rng, window=window, label=f"uniform c={cores} v={intensity}"
    )


def _nearest_valid_intensity(cores: int, intensity: int) -> int:
    """The closest intensity making ``0.1 * cores * intensity`` integral
    (used only to make the uniform-burst error message actionable)."""
    for delta in range(1, 11):
        for candidate in (intensity + delta, intensity - delta):
            if candidate >= 1 and abs(0.1 * cores * candidate - round(0.1 * cores * candidate)) < 1e-9:
                return candidate
    return max(1, round(intensity / 10) * 10)  # pragma: no cover - delta<=10 always hits


def skewed_burst(
    cores: int,
    intensity: int,
    rng: np.random.Generator,
    rare_function: str = "dna-visualisation",
    rare_count: int = 10,
    catalog: Optional[Sequence[FunctionSpec]] = None,
    window: float = BURST_WINDOW_S,
) -> BurstScenario:
    """The Fig.-5 fairness workload (paper Sect. VII-D).

    Exactly ``rare_count`` calls of the long *rare_function*; all other
    calls drawn uniformly at random among the remaining functions (no
    partial-uniformity assumption), for the usual total of
    ``1.1 * cores * intensity`` requests over the *window* (seconds).
    """
    catalog = list(catalog) if catalog is not None else sebs_catalog()
    total = round(0.1 * len(catalog) * cores * intensity)
    if rare_count > total:
        raise ValueError(f"rare_count={rare_count} exceeds total requests {total}")
    others = [spec for spec in catalog if spec.name != rare_function]
    if len(others) == len(catalog):
        raise ValueError(f"function {rare_function!r} not in catalog")
    rare_spec = next(spec for spec in catalog if spec.name == rare_function)

    n_other = total - rare_count
    draws = rng.integers(0, len(others), size=n_other)
    counts = [(rare_spec, rare_count)]
    for idx, spec in enumerate(others):
        counts.append((spec, int(np.sum(draws == idx))))
    return BurstScenario.from_counts(
        counts, rng, window=window,
        label=f"skewed c={cores} v={intensity} rare={rare_function}x{rare_count}",
    )


def multi_node_burst(
    total_requests: int,
    rng: np.random.Generator,
    catalog: Optional[Sequence[FunctionSpec]] = None,
    window: float = BURST_WINDOW_S,
) -> BurstScenario:
    """The multi-node workload (paper Sect. VIII): a fixed request count
    (1320 for 10-core VMs, 2376 for 18-core VMs) split equally across the
    11 functions, uniform over the *window* (seconds)."""
    catalog = list(catalog) if catalog is not None else sebs_catalog()
    if total_requests % len(catalog):
        raise ValueError(
            f"total_requests={total_requests} not divisible by {len(catalog)} functions"
        )
    per_function = total_requests // len(catalog)
    counts = [(spec, per_function) for spec in catalog]
    return BurstScenario.from_counts(
        counts, rng, window=window, label=f"multi-node n={total_requests}"
    )


def azure_like_burst(
    cores: int,
    intensity: int,
    rng: np.random.Generator,
    catalog: Optional[Sequence[FunctionSpec]] = None,
    window: float = BURST_WINDOW_S,
    zipf_exponent: float = 1.1,
) -> BurstScenario:
    """Extension (not a paper experiment): a Zipf-skewed call mix.

    The Azure Functions trace the paper cites (Shahrad et al., ATC'20) shows
    a heavily skewed call-frequency distribution: a few functions dominate.
    We draw per-call functions from a Zipf law (dimensionless exponent
    *zipf_exponent*) over the catalog ordered by shortness (short functions
    most popular, mirroring the trace's short-and-frequent mass), preserving
    the paper's total-count arithmetic over the *window* (seconds).
    """
    catalog = list(catalog) if catalog is not None else sebs_catalog()
    total = round(0.1 * len(catalog) * cores * intensity)
    ordered = sorted(catalog, key=lambda spec: spec.p50)
    weights = zipf_weights(len(ordered), zipf_exponent)
    draws = rng.choice(len(ordered), size=total, p=weights)
    counts = [(spec, int(np.sum(draws == idx))) for idx, spec in enumerate(ordered)]
    return BurstScenario.from_counts(
        counts, rng, window=window, label=f"azure-like c={cores} v={intensity}"
    )


def poisson_burst(
    cores: int,
    intensity: int,
    rng: np.random.Generator,
    rate: Optional[float] = None,
    zipf_exponent: float = 0.0,
    catalog: Optional[Sequence[FunctionSpec]] = None,
    window: float = BURST_WINDOW_S,
) -> BurstScenario:
    """Extension: memoryless (homogeneous Poisson) arrivals.

    The paper's uniform burst fixes the request *count*; a Poisson process
    instead fixes the *rate* (requests/second), so the realised count — and
    the burstiness of inter-arrival gaps — varies with the seed.  ``rate``
    defaults to the paper's total divided by the window
    (``1.1 * cores * intensity / window``), making the expected load equal
    to the uniform scenario's.  ``zipf_exponent`` (dimensionless, 0 =
    uniform) skews the per-call function mix toward short functions.
    """
    catalog = list(catalog) if catalog is not None else sebs_catalog()
    if rate is None:
        rate = requests_for_intensity(cores, intensity, len(catalog)) / window
    if rate < 0:
        raise ValueError(f"rate must be non-negative, got {rate!r}")
    arrivals = poisson_arrivals(lambda t: rate, rate, window, rng)
    ordered = sorted(catalog, key=lambda spec: spec.p50)
    weights = zipf_weights(len(ordered), zipf_exponent)
    requests = draw_requests(arrivals, ordered, weights, rng)
    return BurstScenario(
        requests=requests, window=window, label=f"poisson c={cores} v={intensity}"
    )


def diurnal_burst(
    cores: int,
    intensity: int,
    rng: np.random.Generator,
    amplitude: float = 0.8,
    period_s: Optional[float] = None,
    phase: float = 0.0,
    zipf_exponent: float = 0.0,
    catalog: Optional[Sequence[FunctionSpec]] = None,
    window: float = BURST_WINDOW_S,
) -> BurstScenario:
    """Extension: sinusoidal (diurnal) load, a day compressed into the window.

    Arrival rate at time ``t`` (seconds) is::

        rate(t) = mean_rate * (1 + amplitude * sin(2π * (t / period_s + phase)))

    where ``mean_rate = 1.1 * cores * intensity / window`` (requests/second,
    matching the uniform scenario's average), ``amplitude`` ∈ [0, 1] is the
    peak-to-mean excursion (dimensionless), ``period_s`` is the cycle length
    in seconds (default: one full cycle per window), and ``phase`` is the
    starting point in cycles (dimensionless; 0.25 starts at the peak).
    Arrivals follow a non-homogeneous Poisson process with this rate.
    """
    if not 0.0 <= amplitude <= 1.0:
        raise ValueError(f"amplitude must be in [0, 1], got {amplitude!r}")
    catalog = list(catalog) if catalog is not None else sebs_catalog()
    period = float(period_s) if period_s is not None else window
    if period <= 0:
        raise ValueError(f"period_s must be positive, got {period_s!r}")
    mean_rate = requests_for_intensity(cores, intensity, len(catalog)) / window

    def rate(t: float) -> float:
        return mean_rate * (1.0 + amplitude * np.sin(2.0 * np.pi * (t / period + phase)))

    arrivals = poisson_arrivals(rate, mean_rate * (1.0 + amplitude), window, rng)
    ordered = sorted(catalog, key=lambda spec: spec.p50)
    weights = zipf_weights(len(ordered), zipf_exponent)
    requests = draw_requests(arrivals, ordered, weights, rng)
    return BurstScenario(
        requests=requests, window=window, label=f"diurnal c={cores} v={intensity}"
    )


def zipf_multitenant_burst(
    cores: int,
    intensity: int,
    rng: np.random.Generator,
    tenants: int = 4,
    tenant_exponent: float = 1.2,
    zipf_exponent: float = 1.1,
    catalog: Optional[Sequence[FunctionSpec]] = None,
    window: float = BURST_WINDOW_S,
) -> BurstScenario:
    """Extension: multi-tenant Zipf contention.

    ``tenants`` tenants deploy private copies of the catalog (function
    ``f`` of tenant ``k`` appears as ``tenant<k>/f``, so tenants never
    share containers and contend for cores, memory, and the docker
    daemon).  Tenant popularity follows a Zipf law with exponent
    ``tenant_exponent``, the per-call function mix within a tenant a Zipf
    law with exponent ``zipf_exponent`` over the catalog ordered by
    shortness (both dimensionless; 0 = uniform).  The total request count
    is the paper's ``1.1 * cores * intensity``, uniform over the *window*
    (seconds) — same aggregate load as ``uniform``, but split across a
    ``tenants``-times larger function universe, which stresses container
    management with cold starts and evictions.
    """
    if tenants < 1:
        raise ValueError(f"tenants must be >= 1, got {tenants!r}")
    catalog = list(catalog) if catalog is not None else sebs_catalog()
    total = requests_for_intensity(cores, intensity, len(catalog))
    ordered = sorted(catalog, key=lambda spec: spec.p50)
    tenant_p = zipf_weights(tenants, tenant_exponent)
    function_p = zipf_weights(len(ordered), zipf_exponent)

    tenant_draws = rng.choice(tenants, size=total, p=tenant_p)
    function_draws = rng.choice(len(ordered), size=total, p=function_p)
    arrivals = rng.uniform(0.0, window, size=total)

    # One shared FunctionSpec per (tenant, function): the container pool
    # and estimator key on the name, so reusing the instance keeps the
    # function universe small and identity-stable.
    namespaced: Dict[tuple, FunctionSpec] = {}
    requests: List[Request] = []
    for rid in range(total):
        key = (int(tenant_draws[rid]), int(function_draws[rid]))
        spec = namespaced.get(key)
        if spec is None:
            base = ordered[key[1]]
            spec = replace(base, name=f"tenant{key[0]}/{base.name}")
            namespaced[key] = spec
        service = float(spec.service_distribution.sample(rng))
        requests.append(Request(rid, spec, float(arrivals[rid]), service))
    return BurstScenario(
        requests=requests,
        window=window,
        label=f"zipf-multitenant c={cores} v={intensity} tenants={tenants}",
    )


# ----------------------------------------------------------------------
# Registry entries (see repro.workload.registry).  The adapters pin the
# builder contract (cores, intensity, rng, *, window, catalog, **params);
# the public builders above remain directly callable with their historical
# signatures.
# ----------------------------------------------------------------------
@register_scenario(
    "uniform",
    description="Equal per-function counts, uniform arrivals (the paper's main grid)",
    paper_section="V-B",
)
def _uniform(cores, intensity, rng, *, window, catalog):
    return uniform_burst(cores, intensity, rng, catalog=catalog, window=window)


@register_scenario(
    "skewed",
    description="Fairness mix: a fixed dose of one long, rare function",
    paper_section="VII-D",
    params=(
        Param("rare_function", "dna-visualisation", "catalog name of the rare function"),
        Param("rare_count", 10, "exact number of rare-function calls"),
    ),
)
def _skewed(cores, intensity, rng, *, window, catalog, rare_function, rare_count):
    return skewed_burst(
        cores, intensity, rng,
        rare_function=rare_function, rare_count=int(rare_count),
        catalog=catalog, window=window,
    )


@register_scenario(
    "multi-node",
    description="Fixed total request count split equally across the catalog",
    paper_section="VIII",
    params=(
        Param(
            "total_requests", None,
            "total request count (must divide by the catalog size); "
            "default: the paper's 1.1 * cores * intensity",
        ),
    ),
)
def _multi_node(cores, intensity, rng, *, window, catalog, total_requests):
    if total_requests is None:
        n_functions = len(catalog) if catalog is not None else 11
        total_requests = requests_for_intensity(cores, intensity, n_functions)
    return multi_node_burst(int(total_requests), rng, catalog=catalog, window=window)


@register_scenario(
    "azure",
    description="Zipf-skewed call mix shaped like the Azure Functions trace",
    paper_section="extension",
    params=(
        Param("zipf_exponent", 1.1, "popularity skew (dimensionless; 0 = uniform)"),
    ),
)
def _azure(cores, intensity, rng, *, window, catalog, zipf_exponent):
    return azure_like_burst(
        cores, intensity, rng,
        catalog=catalog, window=window, zipf_exponent=float(zipf_exponent),
    )


@register_scenario(
    "poisson",
    description="Homogeneous Poisson arrivals at the paper's average rate",
    paper_section="extension",
    params=(
        Param(
            "rate", None,
            "arrival rate in requests/second; default 1.1 * cores * intensity / window",
        ),
        Param("zipf_exponent", 0.0, "function-mix skew (dimensionless; 0 = uniform)"),
    ),
)
def _poisson(cores, intensity, rng, *, window, catalog, rate, zipf_exponent):
    return poisson_burst(
        cores, intensity, rng,
        rate=None if rate is None else float(rate),
        zipf_exponent=float(zipf_exponent), catalog=catalog, window=window,
    )


@register_scenario(
    "diurnal",
    description="Sinusoidal (diurnal) arrival rate, one day compressed into the window",
    paper_section="extension",
    params=(
        Param("amplitude", 0.8, "peak-to-mean rate excursion, in [0, 1]"),
        Param("period_s", None, "cycle length in seconds; default: the window"),
        Param("phase", 0.0, "starting point in cycles (0.25 starts at the peak)"),
        Param("zipf_exponent", 0.0, "function-mix skew (dimensionless; 0 = uniform)"),
    ),
)
def _diurnal(cores, intensity, rng, *, window, catalog, amplitude, period_s, phase, zipf_exponent):
    return diurnal_burst(
        cores, intensity, rng,
        amplitude=float(amplitude),
        period_s=None if period_s is None else float(period_s),
        phase=float(phase), zipf_exponent=float(zipf_exponent),
        catalog=catalog, window=window,
    )


@register_scenario(
    "zipf-multitenant",
    description="Tenant-namespaced catalog copies contending under Zipf popularity",
    paper_section="extension",
    params=(
        Param("tenants", 4, "number of tenants (private catalog copies)"),
        Param("tenant_exponent", 1.2, "tenant-popularity skew (dimensionless)"),
        Param("zipf_exponent", 1.1, "within-tenant function skew (dimensionless)"),
    ),
)
def _zipf_multitenant(cores, intensity, rng, *, window, catalog, tenants, tenant_exponent, zipf_exponent):
    return zipf_multitenant_burst(
        cores, intensity, rng,
        tenants=int(tenants), tenant_exponent=float(tenant_exponent),
        zipf_exponent=float(zipf_exponent), catalog=catalog, window=window,
    )
