"""Synthetic trace workloads (extension; docs/SCENARIOS.md, ``trace``).

The paper motivates overload handling with the Azure Functions trace
(Shahrad et al., ATC'20): request rates are uneven with short peaks, and
per-function popularity is heavily skewed.  Real trace files are not
redistributable, so this module generates *trace-shaped* synthetic
workloads that exercise the same code paths:

* a per-minute arrival-rate profile — baseline load plus a configurable
  peak (the paper's 60-second burst is the special case of an infinite
  peak-to-baseline ratio);
* a Zipf-like function-popularity mix (short functions most popular,
  mirroring the trace's mass of short, frequent invocations).

For replaying *actual* Azure-shaped CSV trace files, see
:mod:`repro.workload.replay`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.workload.functions import FunctionSpec, sebs_catalog
from repro.workload.generator import (
    BurstScenario,
    draw_requests,
    poisson_arrivals,
    requests_for_intensity,
    zipf_weights,
)
from repro.workload.registry import Param, register_scenario

__all__ = ["TraceProfile", "trace_scenario"]


@dataclass(frozen=True)
class TraceProfile:
    """Shape of a synthetic request trace.

    Attributes
    ----------
    duration_s:
        Total trace length (seconds).
    base_rate:
        Steady-state arrival rate (requests/second).
    peak_rate:
        Arrival rate inside the peak window (requests/second).
    peak_start_s / peak_duration_s:
        Where the peak sits (seconds).
    zipf_exponent:
        Popularity skew across the catalog (dimensionless; 0 = uniform).
    """

    duration_s: float = 300.0
    base_rate: float = 2.0
    peak_rate: float = 20.0
    peak_start_s: float = 120.0
    peak_duration_s: float = 60.0
    zipf_exponent: float = 1.1

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.base_rate < 0 or self.peak_rate < 0:
            raise ValueError("rates must be non-negative")
        if not 0 <= self.peak_start_s <= self.duration_s:
            raise ValueError("peak_start_s outside the trace")
        if self.peak_duration_s < 0:
            raise ValueError("peak_duration_s must be non-negative")
        if self.zipf_exponent < 0:
            raise ValueError("zipf_exponent must be non-negative")

    def rate_at(self, t: float) -> float:
        """Instantaneous arrival rate (requests/second) at time *t*."""
        if self.peak_start_s <= t < self.peak_start_s + self.peak_duration_s:
            return self.peak_rate
        return self.base_rate

    @property
    def max_rate(self) -> float:
        return max(self.base_rate, self.peak_rate)


def trace_scenario(
    profile: TraceProfile,
    rng: np.random.Generator,
    catalog: Optional[Sequence[FunctionSpec]] = None,
    label: str = "trace",
) -> BurstScenario:
    """Generate a trace-shaped scenario via a thinned Poisson process.

    Arrivals follow a non-homogeneous Poisson process with the profile's
    rate function (:func:`~repro.workload.generator.poisson_arrivals`);
    each arrival's function is drawn from a Zipf-like mix over the catalog
    ordered by shortness (short = popular).
    """
    catalog = list(catalog) if catalog is not None else sebs_catalog()
    ordered = sorted(catalog, key=lambda spec: spec.p50)
    weights = zipf_weights(len(ordered), profile.zipf_exponent)

    arrivals = poisson_arrivals(
        profile.rate_at, profile.max_rate, profile.duration_s, rng
    )
    requests = draw_requests(arrivals, ordered, weights, rng)
    return BurstScenario(requests=requests, window=profile.duration_s, label=label)


@register_scenario(
    "trace",
    description="Synthetic Azure-shaped trace: baseline rate plus a peak, Zipf mix",
    paper_section="extension",
    params=(
        Param(
            "duration_s", None,
            "trace length in seconds; default: the experiment window",
        ),
        Param(
            "base_rate", None,
            "steady-state rate in requests/second; default "
            "1.1 * cores * intensity / duration_s",
        ),
        Param(
            "peak_ratio", 10.0,
            "peak rate as a multiple of base_rate (dimensionless)",
        ),
        Param("peak_start", 0.4, "peak start as a fraction of the duration"),
        Param("peak_fraction", 0.2, "peak length as a fraction of the duration"),
        Param("zipf_exponent", 1.1, "popularity skew (dimensionless; 0 = uniform)"),
    ),
)
def _trace(
    cores, intensity, rng, *, window, catalog,
    duration_s, base_rate, peak_ratio, peak_start, peak_fraction, zipf_exponent,
):
    """Registry adapter: scales the profile with the grid's load arithmetic
    so ``--scenario trace`` composes with cores/intensity sweeps."""
    n_functions = len(catalog) if catalog is not None else 11
    duration = float(duration_s) if duration_s is not None else float(window)
    if base_rate is None:
        base_rate = requests_for_intensity(cores, intensity, n_functions) / duration
    profile = TraceProfile(
        duration_s=duration,
        base_rate=float(base_rate),
        peak_rate=float(base_rate) * float(peak_ratio),
        peak_start_s=float(peak_start) * duration,
        peak_duration_s=float(peak_fraction) * duration,
        zipf_exponent=float(zipf_exponent),
    )
    return trace_scenario(
        profile, rng, catalog=catalog, label=f"trace c={cores} v={intensity}"
    )
