"""Pluggable scheduling-policy registry: named, parameterized policies.

The paper's whole contribution is its policy set (Sect. IV).  Every policy,
the paper's five and the extensions, is one entry of
:data:`POLICY_REGISTRY`, a :class:`~repro.catalog.Registry` of
:class:`PolicySpec` (see :mod:`repro.catalog` for :class:`Param`,
parameter validation and the shared error wording):

* :class:`PolicySpec` — a registered policy: a builder plus metadata
  (description, paper section, starvation-freedom) and a
  :meth:`PolicySpec.build` entry point that validates parameters;
* :func:`register_policy` — the decorator policy modules use to join the
  registry.  It accepts either a :class:`~repro.scheduling.
  policies.SchedulingPolicy` subclass (instantiated as
  ``cls(make_estimator(), **params)``) or a builder function
  ``builder(make_estimator, **params) -> SchedulingPolicy`` for policies
  that configure their own :class:`~repro.scheduling.estimator.
  RuntimeEstimator` construction (window size, smoothing, ...).  Names
  are looked up case-insensitively (``"sept"`` finds ``SEPT``).

Everything above the scheduling layer goes through :func:`build_policy`:
:class:`~repro.experiments.config.ExperimentConfig` validates its
``policy``/``policy_params`` fields against the registry, the invoker
builds policies by name, and the CLI's ``faas-sched policies`` listing is
rendered from the same metadata — so a newly registered policy is
immediately runnable, sweepable, cacheable, and documented everywhere.

Determinism: a policy must derive its decisions only from the estimator
it is handed and its own recorded history.  The parallel engine rebuilds
policies from ``(name, params)`` inside worker processes, which is why
serial and parallel runs stay bit-identical for every registered policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, List, Mapping, Optional

from repro.catalog import REQUIRED, Param, Registry, Spec, require_number
from repro.scheduling.estimator import DEFAULT_WINDOW, RuntimeEstimator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scheduling.policies import SchedulingPolicy

__all__ = [
    "REQUIRED",
    "Param",
    "PolicySpec",
    "POLICY_REGISTRY",
    "register_policy",
    "require_number",
    "get_policy",
    "policy_names",
    "build_policy",
]

#: Estimator factory handed to policy builders: calling it yields a fresh
#: :class:`RuntimeEstimator` carrying the node's configured defaults;
#: keyword overrides (``window=``, ``frequency_horizon=``) replace them —
#: which is how a registered policy makes estimator construction
#: policy-configurable without reaching into the node config.
EstimatorFactory = Callable[..., RuntimeEstimator]

#: Builder contract: ``builder(make_estimator, **params) -> SchedulingPolicy``.
PolicyBuilder = Callable[..., "SchedulingPolicy"]


@dataclass(frozen=True)
class PolicySpec(Spec):
    """A registered scheduling policy: builder plus catalog metadata.

    A :class:`~repro.scheduling.policies.SchedulingPolicy` subclass given
    as the builder gets the standard construction
    ``cls(make_estimator(), **params)``; anything else must already be a
    ``builder(make_estimator, **params)`` callable.
    """

    kind = "policy"

    #: Whether the policy provably prevents starvation (paper Sect. IV).
    starvation_free: bool = False

    def __post_init__(self) -> None:
        super().__post_init__()
        from repro.scheduling.policies import SchedulingPolicy

        target = self.builder
        if isinstance(target, type) and issubclass(target, SchedulingPolicy):

            def class_builder(make_estimator: EstimatorFactory, **params: Any) -> SchedulingPolicy:
                return target(make_estimator(), **params)

            class_builder.__module__ = target.__module__
            class_builder.__qualname__ = f"{target.__qualname__} (class)"
            object.__setattr__(self, "builder", class_builder)
        elif not callable(target):
            raise TypeError(
                f"@register_policy expects a SchedulingPolicy subclass or a "
                f"builder callable, got {type(target).__name__}"
            )

    def traits(self) -> List[str]:
        return super().traits() + (["starvation-free"] if self.starvation_free else [])

    def build(
        self,
        params: Optional[Mapping[str, Any]] = None,
        *,
        window: int = DEFAULT_WINDOW,
        frequency_horizon: float = 60.0,
    ) -> "SchedulingPolicy":
        """Instantiate the policy after validating *params*.

        ``window``/``frequency_horizon`` are the node's estimator defaults
        (:class:`~repro.node.config.NodeConfig` fields); the builder's
        estimator factory starts from them and lets declared parameters
        override per policy.
        """
        kwargs = self.validate_params(params)

        def make_estimator(**overrides: Any) -> RuntimeEstimator:
            merged = {"window": window, "frequency_horizon": frequency_horizon}
            merged.update(overrides)
            return RuntimeEstimator(**merged)

        return self.builder(make_estimator, **kwargs)


def _load_builtin_policies() -> None:
    """Import the modules whose decorators populate :data:`POLICY_REGISTRY`."""
    import repro.scheduling.extra  # noqa: F401
    import repro.scheduling.parametric  # noqa: F401
    import repro.scheduling.policies  # noqa: F401


#: The default registry; the built-in policy modules register here, and
#: are imported at its first lookup.
POLICY_REGISTRY: Registry[PolicySpec] = Registry(
    PolicySpec, "policies", fold_case=True, load=_load_builtin_policies
)

#: Register a policy class or builder (decorator).  ``validator``
#: (optional) receives the merged parameter dict and must raise
#: :class:`ValueError` on bad values or combinations, so invalid
#: parameters fail at ``ExperimentConfig`` construction rather than
#: mid-run::
#:
#:     @register_policy(
#:         "LIFO",
#:         description="newest call first",
#:         params=(Param("bias", 0.0, "tie-breaking bias"),),
#:     )
#:     class LastInFirstOut(SchedulingPolicy):
#:         ...
register_policy = POLICY_REGISTRY.register

#: The registered spec for a policy name (case-insensitive).
get_policy = POLICY_REGISTRY.get

#: Sorted canonical names of every registered policy.
policy_names = POLICY_REGISTRY.names


def build_policy(
    name: str,
    params: Optional[Mapping[str, Any]] = None,
    *,
    window: int = DEFAULT_WINDOW,
    frequency_horizon: float = 60.0,
) -> "SchedulingPolicy":
    """Build the policy registered under *name* — the single entry point
    used by the invoker, so every registered policy composes with the
    experiment grid, the parallel engine, and its cache automatically."""
    return get_policy(name).build(params, window=window, frequency_horizon=frequency_horizon)
