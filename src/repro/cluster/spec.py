"""Cluster topology as experiment configuration.

:class:`ClusterSpec` makes the multi-node dimension a first-class,
hashable, JSON-serializable part of an experiment's identity: node count,
optional per-node :class:`~repro.node.config.NodeConfig` overrides for
heterogeneous fleets, the load-balancer flavour with its constructor
kwargs, and an optional reactive autoscaler.  It is carried by
:class:`~repro.experiments.config.ExperimentConfig`, validated at
construction (a typo fails before any simulation time is spent), folded
into the result-cache fingerprint, and swept by
:class:`~repro.experiments.grid.GridSpec` like any other grid dimension.

All collection-valued fields are stored as name-sorted ``(name, value)``
pair tuples — the same canonical form as ``scenario_params`` — so specs
stay hashable and their JSON form is one-to-one with their content.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.cluster.autoscaler import AutoscalerConfig
from repro.cluster.controller import validate_balancer_params
from repro.node.config import NodeConfig

__all__ = ["ClusterSpec", "DEFAULT_CLUSTER"]

#: Canonical pair-tuple form shared by every parameter field.
Pairs = Tuple[Tuple[str, Any], ...]
ParamsLike = Union[Mapping[str, Any], Sequence[Tuple[str, Any]], None]

_NODE_FIELDS = frozenset(f.name for f in fields(NodeConfig))
_AUTOSCALER_FIELDS = tuple(f.name for f in fields(AutoscalerConfig))


def _freeze_value(name: str, value: Any) -> Any:
    """Hashable, JSON-stable parameter values (see the identical rule for
    scenario params): scalars pass through, lists become tuples, anything
    else is rejected up front."""
    if isinstance(value, (list, tuple)):
        return tuple(_freeze_value(name, item) for item in value)
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    raise ValueError(
        f"cluster parameter {name!r} has unsupported value type "
        f"{type(value).__name__}; use JSON scalars or lists"
    )


def _freeze_pairs(params: ParamsLike) -> Pairs:
    """Normalise a mapping or pair sequence to name-sorted pair tuples
    (duplicates resolve last-wins, sorting compares names only)."""
    if not params:
        return ()
    items = params.items() if isinstance(params, Mapping) else params
    deduped = {str(name): _freeze_value(str(name), value) for name, value in items}
    return tuple(sorted(deduped.items()))


@dataclass(frozen=True)
class ClusterSpec:
    """Topology of the fleet one experiment runs on.

    Attributes
    ----------
    nodes:
        Worker-node (invoker) count.  ``1`` with all other fields at
        their defaults is the paper's single-node experiment.
    balancer:
        Name of a registered load-balancer flavour (see
        :data:`repro.cluster.controller.BALANCERS`).
    balancer_params:
        Balancer constructor kwargs as ``(name, value)`` pairs (a mapping
        is accepted); validated against the constructor and merged with
        its declared defaults, so the cache fingerprint covers defaults.
        Balancers with a ``seed`` parameter receive the experiment's root
        seed at run time unless ``seed`` is pinned here.
    node_overrides:
        Per-node :class:`~repro.node.config.NodeConfig` field overrides
        for heterogeneous fleets: one pair-tuple (or mapping) per node,
        applied over the experiment's base node configuration.  Empty
        means a homogeneous fleet; otherwise the length must equal
        ``nodes``.
    autoscaler:
        ``None`` (no autoscaling) or
        :class:`~repro.cluster.autoscaler.AutoscalerConfig` kwargs as
        pairs — ``()`` enables the autoscaler with its defaults.  Stored
        merged over the config's defaults (fingerprint covers them).
    """

    nodes: int = 1
    balancer: str = "least-loaded"
    balancer_params: Pairs = ()
    node_overrides: Tuple[Pairs, ...] = ()
    autoscaler: Optional[Pairs] = None

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ValueError(f"nodes must be >= 1, got {self.nodes!r}")
        merged = validate_balancer_params(
            self.balancer, dict(_freeze_pairs(self.balancer_params))
        )
        object.__setattr__(self, "balancer_params", _freeze_pairs(merged))
        object.__setattr__(
            self,
            "node_overrides",
            tuple(_freeze_pairs(entry) for entry in self.node_overrides),
        )
        if self.node_overrides and len(self.node_overrides) != self.nodes:
            raise ValueError(
                f"node_overrides has {len(self.node_overrides)} entries for "
                f"{self.nodes} nodes; give one entry per node (or none)"
            )
        for entry in self.node_overrides:
            unknown = sorted(set(dict(entry)) - _NODE_FIELDS)
            if unknown:
                raise ValueError(
                    f"unknown NodeConfig field(s) {unknown} in node_overrides; "
                    f"valid fields: {', '.join(sorted(_NODE_FIELDS))}"
                )
        if self.autoscaler is not None:
            supplied = dict(_freeze_pairs(self.autoscaler))
            unknown = sorted(set(supplied) - set(_AUTOSCALER_FIELDS))
            if unknown:
                raise ValueError(
                    f"unknown autoscaler parameter(s) {unknown}; valid: "
                    f"{', '.join(_AUTOSCALER_FIELDS)}"
                )
            # Constructing validates values; storing every field makes the
            # cache fingerprint cover the defaults too.
            config = AutoscalerConfig(**supplied)
            merged_auto = {name: getattr(config, name) for name in _AUTOSCALER_FIELDS}
            object.__setattr__(self, "autoscaler", _freeze_pairs(merged_auto))

    # ------------------------------------------------------------------
    @property
    def is_default(self) -> bool:
        """True for the fleet of one: a single invoker named
        ``"<policy>-node"``, no ``balancer_stats`` and no crash injector
        (see :func:`~repro.experiments.runner.run_experiment`)."""
        return self == DEFAULT_CLUSTER

    def balancer_kwargs(self) -> Dict[str, Any]:
        return dict(self.balancer_params)

    def autoscaler_config(self) -> Optional[AutoscalerConfig]:
        """The materialised autoscaler configuration, or ``None``."""
        if self.autoscaler is None:
            return None
        return AutoscalerConfig(**dict(self.autoscaler))

    def node_configs(self, base: NodeConfig) -> List[NodeConfig]:
        """One :class:`NodeConfig` per node: *base* plus this spec's
        per-node overrides (heterogeneous fleets)."""
        if not self.node_overrides:
            return [base] * self.nodes
        return [
            replace(base, **dict(overrides)) for overrides in self.node_overrides
        ]

    def with_(self, **changes) -> "ClusterSpec":
        """A copy with fields replaced (ergonomic sweep helper)."""
        return replace(self, **changes)

    def label_suffix(self) -> str:
        """Compact label fragment; empty for the default topology."""
        if self.is_default:
            return ""
        parts = [f"nodes={self.nodes}"]
        if self.balancer != "least-loaded":
            parts.append(f"balancer={self.balancer}")
        if self.autoscaler is not None:
            parts.append("autoscale")
        return " " + " ".join(parts)

    # ------------------------------------------------------------------
    # JSON form (cache fingerprints and on-disk results)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """A JSON-compatible dict (pairs as lists-of-lists)."""
        return {
            "nodes": self.nodes,
            "balancer": self.balancer,
            "balancer_params": [list(pair) for pair in self.balancer_params],
            "node_overrides": [
                [list(pair) for pair in entry] for entry in self.node_overrides
            ],
            "autoscaler": (
                None
                if self.autoscaler is None
                else [list(pair) for pair in self.autoscaler]
            ),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ClusterSpec":
        """Inverse of :meth:`to_dict` (construction re-validates)."""
        return cls(
            nodes=payload["nodes"],
            balancer=payload["balancer"],
            balancer_params=tuple(
                (name, _untuple(value)) for name, value in payload["balancer_params"]
            ),
            node_overrides=tuple(
                tuple((name, _untuple(value)) for name, value in entry)
                for entry in payload["node_overrides"]
            ),
            autoscaler=(
                None
                if payload["autoscaler"] is None
                else tuple(
                    (name, _untuple(value)) for name, value in payload["autoscaler"]
                )
            ),
        )


def _untuple(value: Any) -> Any:
    """JSON turns tuples into lists; restore tuples recursively."""
    if isinstance(value, list):
        return tuple(_untuple(item) for item in value)
    return value


#: The classic single-node topology (shared instance; ClusterSpec is frozen).
DEFAULT_CLUSTER = ClusterSpec()
