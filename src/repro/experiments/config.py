"""Experiment configurations.

``ExperimentConfig.scenario`` names a workload from the scenario registry
(:mod:`repro.workload.registry`; enumerate with ``faas-sched scenarios``),
and ``scenario_params`` carries the builder's keyword parameters as a
tuple of ``(name, value)`` pairs — tuples, not a dict, so configs stay
hashable and their canonical JSON form (the cache fingerprint) is stable.
``policy`` names a scheduling policy from the policy registry
(:mod:`repro.scheduling.registry`; enumerate with ``faas-sched
policies``) — or ``"baseline"`` for the stock invoker — with
``policy_params`` carried in the same canonical pair-tuple form.  All are
validated against their registries at construction time, so a typo fails
before any simulation time is spent.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Mapping

from repro.catalog import Pairs, freeze_pairs
from repro.cluster.spec import DEFAULT_CLUSTER, ClusterSpec
from repro.failures.spec import FAILURE_NONE, FailureSpec
from repro.node.config import NodeConfig
from repro.scheduling.registry import get_policy
from repro.workload.registry import get_scenario

__all__ = ["ExperimentConfig", "BASELINE"]

#: Pseudo-policy name selecting the stock OpenWhisk invoker.
BASELINE = "baseline"

@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a scenario driven through a fleet of invokers —
    one node by default (paper Sects. V–VII), several for Sect. VIII.

    Attributes
    ----------
    cores:
        CPU cores for action containers.
    intensity:
        The paper's load multiplier ``v``; total requests are
        ``1.1 * cores * intensity``.
    policy:
        ``"baseline"`` for stock OpenWhisk, else the name of a registered
        scheduling policy (``FIFO``/``SEPT``/``EECT``/``RECT``/``FC``,
        plus the registered extensions — see ``faas-sched policies`` or
        docs/POLICIES.md).  Validated case-insensitively against the
        policy registry; the stored spelling is preserved.
    policy_params:
        Declared parameters of the scheduling policy as ``(name, value)``
        pairs (a mapping is accepted and normalised); validated against
        the policy's registry entry and stored merged over its declared
        defaults.  Part of the cache fingerprint, so changing a parameter
        never hits a stale cached result.  Must be empty for
        ``"baseline"``.
    seed:
        Root seed; the paper repeats each configuration with 5 request
        sequences — use seeds 1..5.
    memory_mb:
        Action-container memory pool (32 GiB in the main experiments).
    scenario:
        Name of a registered workload scenario (``uniform``, ``skewed``,
        ``azure``, ``poisson``, ``diurnal``, ``trace``, ``replay``, ... —
        see ``faas-sched scenarios`` or docs/SCENARIOS.md).
    scenario_params:
        Scenario builder parameters as ``(name, value)`` pairs (a mapping
        is accepted and normalised); validated against the scenario's
        declared parameters.  Part of the cache fingerprint, so changing a
        parameter never hits a stale cached result.
    warmup:
        Whether containers and runtime estimates are warmed before the
        burst (the paper always warms; disable to study cold behaviour).
    node_overrides:
        Extra :class:`~repro.node.config.NodeConfig` fields (ablations),
        applied to every node of the fleet, as ``(name, value)`` pairs (a
        mapping is accepted and normalised).
    cluster:
        The fleet topology (:class:`~repro.cluster.spec.ClusterSpec`):
        node count, per-node overrides, balancer flavour + kwargs,
        optional autoscaler.  A mapping of ``ClusterSpec`` fields is
        accepted and normalised.  The default is a fleet of one, the
        paper's single-node experiment; the topology is part of the
        cache fingerprint.
    failures:
        The fault regime (:class:`~repro.failures.spec.FailureSpec`):
        node crash/recovery, container kills, stragglers, and the
        per-invocation timeout/retry policy (see docs/FAILURES.md).  A
        mapping of ``FailureSpec`` fields is accepted and normalised.
        The default is the failure-free historical path; anything else
        routes calls through the retrying client and is part of the
        cache fingerprint.
    retain_records:
        ``True`` (the default, and what every golden-fingerprint run
        uses) keeps the full O(invocations) ``CallRecord`` list on the
        result.  ``False`` selects the streaming pipeline: only the
        constant-size :class:`~repro.metrics.streaming.SummaryAccumulator`
        that every completed call folds into survives — exact
        counts/means/cold-starts/makespan, sketched percentiles — and a
        ``replay`` trace is read one minute at a time (see
        docs/STREAMING.md).  Part of the cache fingerprint because
        the cached payload shape differs.
    """

    cores: int
    intensity: int
    policy: str = "FIFO"
    seed: int = 1
    memory_mb: int = 32768
    scenario: str = "uniform"
    scenario_params: Pairs = ()
    policy_params: Pairs = ()
    warmup: bool = True
    window_s: float = 60.0
    node_overrides: Pairs = ()
    cluster: ClusterSpec = DEFAULT_CLUSTER
    failures: FailureSpec = FAILURE_NONE
    retain_records: bool = True

    def __post_init__(self) -> None:
        # validate_params raises ValueError on an unknown scenario name
        # (listing what is registered) or an unknown/missing parameter.
        # Store the *merged* result — declared defaults included — so a
        # config spelling a default explicitly equals one relying on it,
        # and so the cache fingerprint covers the defaults: editing a
        # builder's default in code changes every affected fingerprint
        # instead of silently serving results computed under the old one.
        supplied = freeze_pairs(self.scenario_params, "scenario")
        merged = get_scenario(self.scenario).validate_params(supplied)
        object.__setattr__(self, "scenario_params", freeze_pairs(merged, "scenario"))
        # The scheduling policy validates the same way against the policy
        # registry (an unknown name lists what is registered); "baseline"
        # is the stock invoker and declares no parameters.
        supplied_policy = freeze_pairs(self.policy_params, "policy")
        if self.is_baseline:
            if supplied_policy:
                raise ValueError(
                    f"policy {self.policy!r} is the stock invoker and takes "
                    f"no policy parameters, got {dict(supplied_policy)}"
                )
            # Store the canonical empty tuple even when the caller passed a
            # (falsy but mutable) empty mapping — the config must stay
            # hashable and one-form-per-content.
            object.__setattr__(self, "policy_params", supplied_policy)
        else:
            merged_policy = get_policy(self.policy).validate_params(supplied_policy)
            object.__setattr__(self, "policy_params", freeze_pairs(merged_policy, "policy"))
        # Node overrides freeze the same way; their names are checked when
        # the node configuration is materialised (node_config()).
        object.__setattr__(self, "node_overrides", freeze_pairs(self.node_overrides, "node"))
        # The cluster topology normalises the same way: a mapping (or
        # None) becomes a validated ClusterSpec, so every equal topology
        # has exactly one stored — and fingerprinted — form.
        if self.cluster is None:
            object.__setattr__(self, "cluster", DEFAULT_CLUSTER)
        elif isinstance(self.cluster, Mapping):
            object.__setattr__(self, "cluster", ClusterSpec(**self.cluster))
        elif not isinstance(self.cluster, ClusterSpec):
            raise ValueError(
                f"cluster must be a ClusterSpec or a mapping of its fields, "
                f"got {type(self.cluster).__name__}"
            )
        # The failure regime normalises identically.
        if self.failures is None:
            object.__setattr__(self, "failures", FAILURE_NONE)
        elif isinstance(self.failures, Mapping):
            object.__setattr__(self, "failures", FailureSpec(**self.failures))
        elif not isinstance(self.failures, FailureSpec):
            raise ValueError(
                f"failures must be a FailureSpec or a mapping of its fields, "
                f"got {type(self.failures).__name__}"
            )

    def scenario_kwargs(self) -> Dict[str, Any]:
        """The scenario parameters as a plain dict (builder kwargs)."""
        return dict(self.scenario_params)

    def policy_kwargs(self) -> Dict[str, Any]:
        """The policy parameters as a plain dict (builder kwargs)."""
        return dict(self.policy_params)

    @property
    def is_baseline(self) -> bool:
        return self.policy.lower() == BASELINE

    def node_config(self) -> NodeConfig:
        """Materialise the node configuration for this experiment."""
        overrides = dict(self.node_overrides)
        return NodeConfig(cores=self.cores, memory_mb=self.memory_mb, **overrides)

    def with_(self, **changes) -> "ExperimentConfig":
        """A copy with fields replaced (ergonomic sweep helper)."""
        return replace(self, **changes)

    def label(self) -> str:
        base = f"{self.policy} c={self.cores} v={self.intensity} seed={self.seed}"
        if self.scenario != "uniform":
            base += f" scenario={self.scenario}"
        return base + self.cluster.label_suffix() + self.failures.label_suffix()
