"""Client ↔ platform network/middleware latency model.

The paper's Table I measurements "include ca. 10 ms Kafka overhead"; we
split that into a request leg (client → NGINX → controller → Kafka →
invoker) and a response leg.  Latencies are deterministic by default to
keep experiment noise at zero (the paper likewise minimises network noise
by co-locating Gatling with the controller); optional jitter is available
for robustness testing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["NetworkModel"]


@dataclass
class NetworkModel:
    """Fixed-plus-jitter one-way latencies (seconds)."""

    request_latency_s: float = 0.005
    response_latency_s: float = 0.005
    jitter_s: float = 0.0
    rng: Optional[np.random.Generator] = None

    def __post_init__(self) -> None:
        if self.request_latency_s < 0 or self.response_latency_s < 0:
            raise ValueError("latencies must be non-negative")
        if self.jitter_s < 0:
            raise ValueError("jitter must be non-negative")
        if self.jitter_s > 0 and self.rng is None:
            raise ValueError("jitter requires an rng")

    def request_delay(self) -> float:
        """Latency of the client → invoker leg."""
        if self.jitter_s == 0.0:
            return self.request_latency_s
        return self._with_jitter(self.request_latency_s)

    def response_delay(self) -> float:
        """Latency of the invoker → client leg."""
        if self.jitter_s == 0.0:
            return self.response_latency_s
        return self._with_jitter(self.response_latency_s)

    @property
    def round_trip_s(self) -> float:
        return self.request_latency_s + self.response_latency_s

    def _with_jitter(self, base: float) -> float:
        if self.jitter_s <= 0:
            return base
        assert self.rng is not None
        return max(0.0, base + float(self.rng.normal(0.0, self.jitter_s)))
