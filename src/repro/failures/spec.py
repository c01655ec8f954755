"""Failure injection as experiment configuration.

:class:`FailureSpec` makes the fault dimension a first-class, hashable,
JSON-serializable part of an experiment's identity: node crash/recovery
processes, a per-attempt container-kill hazard, straggler slowdowns, and
a per-invocation timeout with an exponential-backoff retry policy.  It is
carried by :class:`~repro.experiments.config.ExperimentConfig`, validated
at construction (a typo fails before any simulation time is spent),
folded into the result-cache fingerprint, and swept by
:class:`~repro.experiments.grid.GridSpec` like any other grid dimension.

The default :meth:`FailureSpec.none` spec preserves the exact historical
failure-free code path — the failure-free goldens are byte-identical
under it.  Every injected fault is driven by a dedicated seeded RNG
stream (see :mod:`repro.failures.rng`), independent of the workload
streams, so runs stay deterministic and serial-vs-parallel bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any, Dict, Mapping, Sequence, Tuple, Union

__all__ = ["FailureSpec", "FAILURE_NONE", "CRASH_INFLIGHT_MODES"]

ParamsLike = Union[Mapping[str, Any], Sequence[Tuple[str, Any]], None]

#: What happens to calls a crashing node is holding (queued or in flight):
#: ``"fail"`` counts a failed attempt and retries with backoff;
#: ``"migrate"`` re-routes immediately (still consuming an attempt).
CRASH_INFLIGHT_MODES = ("fail", "migrate")


@dataclass(frozen=True)
class FailureSpec:
    """The fault regime one experiment runs under.

    Attributes
    ----------
    node_crash_rate:
        Mean crashes per second per node (exponential gaps).  A crashed
        node drops out of the balancer live-list and its queued/in-flight
        calls fail per ``crash_inflight``.  The last live node never
        crashes (the platform always stays reachable), so single-node
        topologies see no node crashes.
    node_recovery_s:
        Seconds a crashed node stays down before rejoining the live-list
        at its original roster position.
    crash_inflight:
        ``"fail"`` (failed attempt, retried with backoff) or
        ``"migrate"`` (immediate backoff-free re-route, still consuming
        an attempt) for calls dropped by a crash.
    container_kill_rate:
        Per-attempt probability that the container dies mid-execution;
        the attempt burns a uniform fraction of its work, then fails.
    straggler_prob:
        Per-attempt probability the attempt runs on a degraded container.
    straggler_factor:
        Work multiplier (>= 1) applied to straggler attempts.
    timeout_s:
        Client-side per-attempt wall-clock timeout; ``0`` disables.  A
        timed-out attempt is abandoned (it runs to completion on the node
        but its response is discarded) and retried.
    max_attempts:
        Total attempts per call (first try included); an exhausted call
        is recorded with outcome ``"gave-up"``.
    backoff_base_s:
        Delay before the first retry; retry *k* waits
        ``backoff_base_s * backoff_factor**(k-1)``.
    backoff_factor:
        Exponential backoff multiplier (>= 1).
    """

    node_crash_rate: float = 0.0
    node_recovery_s: float = 30.0
    crash_inflight: str = "fail"
    container_kill_rate: float = 0.0
    straggler_prob: float = 0.0
    straggler_factor: float = 4.0
    timeout_s: float = 0.0
    max_attempts: int = 3
    backoff_base_s: float = 0.5
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        # Canonical numeric types first, so equal specs hash (and
        # fingerprint) identically however they were spelled.
        for field in fields(self):
            if field.name == "crash_inflight":
                continue
            value = getattr(self, field.name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(
                    f"failure parameter {field.name!r} must be a number, "
                    f"got {value!r}"
                )
            if field.name == "max_attempts":
                if value != int(value):
                    raise ValueError(f"max_attempts must be an integer, got {value!r}")
                object.__setattr__(self, field.name, int(value))
            else:
                object.__setattr__(self, field.name, float(value))
        for name in ("node_crash_rate", "node_recovery_s", "timeout_s", "backoff_base_s"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)!r}")
        for name in ("container_kill_rate", "straggler_prob"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(
                    f"{name} is a probability and must be in [0, 1], got "
                    f"{getattr(self, name)!r}"
                )
        for name in ("straggler_factor", "backoff_factor"):
            if getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)!r}")
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts!r}")
        if self.crash_inflight not in CRASH_INFLIGHT_MODES:
            raise ValueError(
                f"crash_inflight must be one of {CRASH_INFLIGHT_MODES}, got "
                f"{self.crash_inflight!r}"
            )

    # ------------------------------------------------------------------
    @classmethod
    def none(cls) -> "FailureSpec":
        """The failure-free regime (the exact historical code path)."""
        return FAILURE_NONE

    @classmethod
    def from_params(cls, params: ParamsLike) -> "FailureSpec":
        """Build a spec from ``(name, value)`` pairs or a mapping (the
        CLI's ``--failure-param`` form), rejecting unknown names."""
        if not params:
            return FAILURE_NONE
        items = params.items() if isinstance(params, Mapping) else params
        supplied = {str(name): value for name, value in items}
        valid = {field.name for field in fields(cls)}
        unknown = sorted(set(supplied) - valid)
        if unknown:
            raise ValueError(
                f"unknown failure parameter(s) {unknown}; valid: "
                f"{', '.join(sorted(valid))}"
            )
        return cls(**supplied)

    @property
    def is_none(self) -> bool:
        """True for the failure-free default (historical path)."""
        return self == FAILURE_NONE

    @property
    def has_node_crashes(self) -> bool:
        return self.node_crash_rate > 0.0

    @property
    def has_attempt_faults(self) -> bool:
        return self.container_kill_rate > 0.0 or self.straggler_prob > 0.0

    def with_(self, **changes: Any) -> "FailureSpec":
        """A copy with fields replaced (ergonomic sweep helper)."""
        return replace(self, **changes)

    def label_suffix(self) -> str:
        """Compact label fragment; empty for the failure-free default."""
        if self.is_none:
            return ""
        parts = []
        for field in fields(self):
            value = getattr(self, field.name)
            if value != getattr(FAILURE_NONE, field.name):
                parts.append(f"{field.name}={value}")
        return " failures[" + " ".join(parts) + "]"

    # ------------------------------------------------------------------
    # JSON form (cache fingerprints and on-disk results)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """A JSON-compatible dict of every field (the fingerprint covers
        defaults, so changing a default invalidates the cache)."""
        return {field.name: getattr(self, field.name) for field in fields(self)}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FailureSpec":
        """Inverse of :meth:`to_dict` (construction re-validates)."""
        return cls(**dict(payload))


#: The failure-free regime (shared instance; FailureSpec is frozen).
FAILURE_NONE = FailureSpec()
