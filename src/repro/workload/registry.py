"""Pluggable scenario registry: named, parameterized workload builders.

Scenarios were historically four ad-hoc builder functions that the grid
engine, CLI, and benchmarks could not enumerate or parameterize uniformly.
This module gives the workload layer a first-class catalog:

* :class:`ScenarioParam` — one declared, documented builder parameter
  (name, default, units);
* :class:`ScenarioSpec` — a registered scenario: builder callable plus
  metadata (description, paper section, declared parameters) and a
  :meth:`ScenarioSpec.build` entry point that validates parameters;
* :class:`ScenarioRegistry` — a name → spec map with duplicate rejection
  and error messages that list what *is* available;
* :func:`register_scenario` — the decorator builders use to join the
  default registry (``@register_scenario("diurnal", ...)``).

Everything above the workload layer goes through :func:`build_scenario`:
:class:`~repro.experiments.config.ExperimentConfig` validates its
``scenario``/``scenario_params`` fields against the registry, the runner
builds workloads by name, and the CLI's ``faas-sched scenarios`` listing is
rendered from the same metadata — so a newly registered scenario is
immediately runnable, cacheable, and documented everywhere.

Determinism: a builder must derive *all* randomness from the
``numpy.random.Generator`` it is handed.  The parallel engine rebuilds
scenarios from ``(seed, name, params)`` inside worker processes, and the
serial-vs-parallel bit-identity tests hold for every registered scenario
only because builders honour this contract.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as _dc_replace
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.workload.functions import FunctionSpec
from repro.workload.generator import BURST_WINDOW_S, BurstScenario, RequestStream

__all__ = [
    "REQUIRED",
    "ScenarioParam",
    "ScenarioSpec",
    "ScenarioRegistry",
    "SCENARIOS",
    "register_scenario",
    "register_stream_builder",
    "get_scenario",
    "scenario_names",
    "build_scenario",
    "build_scenario_stream",
]

#: Builder contract: ``builder(cores, intensity, rng, *, window, catalog,
#: **params) -> BurstScenario``.  ``cores``/``intensity`` carry the paper's
#: load arithmetic; builders that define their own load (e.g. trace replay)
#: may ignore them, but must document that they do.
ScenarioBuilder = Callable[..., BurstScenario]


class _Required:
    """Sentinel default for parameters the caller must supply."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<required>"


#: Use as a :class:`ScenarioParam` default to mark the parameter mandatory.
REQUIRED = _Required()


@dataclass(frozen=True)
class ScenarioParam:
    """One declared scenario parameter.

    Attributes
    ----------
    name:
        Keyword-argument name passed to the builder.
    default:
        Default value, or :data:`REQUIRED` if the caller must supply one.
    doc:
        One-line description **including units** (seconds, requests/second,
        ...), rendered by ``faas-sched scenarios`` and docs/SCENARIOS.md.
    """

    name: str
    default: Any
    doc: str = ""

    @property
    def required(self) -> bool:
        return isinstance(self.default, _Required)


@dataclass(frozen=True)
class ScenarioSpec:
    """A registered scenario: builder plus catalog metadata."""

    name: str
    builder: ScenarioBuilder
    description: str
    #: Paper section the scenario models (e.g. ``"V-B"``), or
    #: ``"extension"`` for workloads beyond the paper's evaluation.
    paper_section: str
    params: Tuple[ScenarioParam, ...] = ()
    #: Optional truly-streaming builder returning a
    #: :class:`~repro.workload.generator.RequestStream` (same signature
    #: as :attr:`builder`); attached via :func:`register_stream_builder`.
    #: Scenarios without one stream their materialised workload (see
    #: :meth:`build_stream`).
    stream_builder: Optional[ScenarioBuilder] = None

    def param_names(self) -> List[str]:
        return [p.name for p in self.params]

    def defaults(self) -> Dict[str, Any]:
        """Declared defaults (required parameters omitted)."""
        return {p.name: p.default for p in self.params if not p.required}

    def validate_params(self, params: Optional[Mapping[str, Any]]) -> Dict[str, Any]:
        """Merge *params* over the declared defaults, rejecting unknown
        names and missing required parameters with actionable messages."""
        params = dict(params) if params else {}
        declared = {p.name for p in self.params}
        unknown = sorted(set(params) - declared)
        if unknown:
            valid = ", ".join(sorted(declared)) or "(none)"
            raise ValueError(
                f"unknown parameter(s) {unknown} for scenario {self.name!r}; "
                f"valid parameters: {valid}"
            )
        merged = self.defaults()
        merged.update(params)
        missing = sorted(p.name for p in self.params if p.required and p.name not in merged)
        if missing:
            raise ValueError(
                f"scenario {self.name!r} requires parameter(s) {missing} "
                f"(e.g. --scenario-param {missing[0]}=...)"
            )
        return merged

    def build(
        self,
        cores: int,
        intensity: int,
        rng: np.random.Generator,
        *,
        window: float = BURST_WINDOW_S,
        catalog: Optional[Sequence[FunctionSpec]] = None,
        params: Optional[Mapping[str, Any]] = None,
    ) -> BurstScenario:
        """Build the scenario after validating *params*.

        ``window`` is the request-emission window in seconds (builders with
        their own duration parameter may override it); ``catalog`` defaults
        to the paper's 11-function SeBS catalog.
        """
        kwargs = self.validate_params(params)
        return self.builder(cores, intensity, rng, window=window, catalog=catalog, **kwargs)

    def build_stream(
        self,
        cores: int,
        intensity: int,
        rng: np.random.Generator,
        *,
        window: float = BURST_WINDOW_S,
        catalog: Optional[Sequence[FunctionSpec]] = None,
        params: Optional[Mapping[str, Any]] = None,
    ) -> Union[BurstScenario, RequestStream]:
        """Build the scenario for a streaming run.

        Scenarios with a registered streaming builder (currently
        ``replay``) produce a :class:`RequestStream` whose requests live
        in bounded memory.  Every other scenario returns :meth:`build`'s
        materialised workload: the platform pulls both shapes through
        ``arrivals()`` one request at a time, so streaming results match
        retained ones exactly.
        """
        if self.stream_builder is None:
            return self.build(cores, intensity, rng, window=window, catalog=catalog, params=params)
        kwargs = self.validate_params(params)
        return self.stream_builder(cores, intensity, rng, window=window, catalog=catalog, **kwargs)


class ScenarioRegistry:
    """Name → :class:`ScenarioSpec` map with registration helpers."""

    def __init__(self) -> None:
        self._specs: Dict[str, ScenarioSpec] = {}

    def register(
        self,
        name: str,
        *,
        description: str,
        paper_section: str = "extension",
        params: Sequence[ScenarioParam] = (),
    ) -> Callable[[ScenarioBuilder], ScenarioBuilder]:
        """Decorator registering a builder under *name*.

        Raises :class:`ValueError` if *name* is already taken — silent
        replacement would let two modules fight over a name and make
        results depend on import order.
        """

        def decorate(builder: ScenarioBuilder) -> ScenarioBuilder:
            if name in self._specs:
                raise ValueError(
                    f"scenario {name!r} is already registered "
                    f"(by {self._specs[name].builder.__module__})"
                )
            self._specs[name] = ScenarioSpec(
                name=name,
                builder=builder,
                description=description,
                paper_section=paper_section,
                params=tuple(params),
            )
            return builder

        return decorate

    def register_stream(self, name: str) -> Callable[[ScenarioBuilder], ScenarioBuilder]:
        """Decorator attaching a truly-streaming builder to the already
        registered scenario *name* (see :meth:`ScenarioSpec.build_stream`).

        The streaming builder must produce the *same* requests — same
        rids, release times, functions, and service times, drawn from the
        RNG in the same order — as the materialising builder, just
        lazily; the streaming-vs-retained equivalence tests enforce this.
        """

        def decorate(builder: ScenarioBuilder) -> ScenarioBuilder:
            spec = self._specs.get(name)
            if spec is None:
                raise ValueError(
                    f"cannot attach a stream builder: scenario {name!r} is "
                    f"not registered (register the scenario first)"
                )
            if spec.stream_builder is not None:
                raise ValueError(
                    f"scenario {name!r} already has a stream builder "
                    f"(from {spec.stream_builder.__module__})"
                )
            self._specs[name] = _dc_replace(spec, stream_builder=builder)
            return builder

        return decorate

    def get(self, name: str) -> ScenarioSpec:
        """The spec for *name*; :class:`ValueError` listing the available
        scenario names otherwise."""
        spec = self._specs.get(name)
        if spec is None:
            available = ", ".join(self.names()) or "(none registered)"
            raise ValueError(
                f"unknown scenario {name!r}; available scenarios: {available}"
            )
        return spec

    def names(self) -> List[str]:
        return sorted(self._specs)

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def __iter__(self) -> Iterator[ScenarioSpec]:
        for name in self.names():
            yield self._specs[name]

    def __len__(self) -> int:
        return len(self._specs)


#: The default registry; the built-in scenario modules register here on
#: import, and downstream layers resolve names through the module-level
#: helpers below (which force those imports first).
SCENARIOS = ScenarioRegistry()


def _load_builtin_scenarios() -> None:
    """Import the modules whose decorators populate :data:`SCENARIOS`.

    Lazy (and idempotent — registration happens once per process at module
    import) so that ``repro.workload.registry`` itself has no import cycle
    with the builder modules.
    """
    import repro.workload.replay  # noqa: F401
    import repro.workload.scenarios  # noqa: F401
    import repro.workload.trace  # noqa: F401


def register_scenario(
    name: str,
    *,
    description: str,
    paper_section: str = "extension",
    params: Sequence[ScenarioParam] = (),
) -> Callable[[ScenarioBuilder], ScenarioBuilder]:
    """Register a builder in the default registry (decorator).

    Example
    -------
    >>> @register_scenario(
    ...     "constant",
    ...     description="n requests at t=0",
    ...     params=(ScenarioParam("n", 10, "request count"),),
    ... )
    ... def constant(cores, intensity, rng, *, window, catalog, n):
    ...     ...
    """
    return SCENARIOS.register(
        name, description=description, paper_section=paper_section, params=params
    )


def register_stream_builder(name: str) -> Callable[[ScenarioBuilder], ScenarioBuilder]:
    """Attach a truly-streaming builder to an already registered scenario
    in the default registry (decorator; see
    :meth:`ScenarioRegistry.register_stream`)."""
    return SCENARIOS.register_stream(name)


def get_scenario(name: str) -> ScenarioSpec:
    """The registered spec for *name* (built-ins loaded on demand)."""
    _load_builtin_scenarios()
    return SCENARIOS.get(name)


def scenario_names() -> List[str]:
    """Sorted names of every registered scenario."""
    _load_builtin_scenarios()
    return SCENARIOS.names()


def build_scenario(
    name: str,
    cores: int,
    intensity: int,
    rng: np.random.Generator,
    *,
    window: float = BURST_WINDOW_S,
    catalog: Optional[Sequence[FunctionSpec]] = None,
    params: Optional[Mapping[str, Any]] = None,
) -> BurstScenario:
    """Build the scenario registered under *name* — the single entry point
    used by the experiment runner, so every registered scenario composes
    with the parallel engine and its cache automatically."""
    return get_scenario(name).build(
        cores, intensity, rng, window=window, catalog=catalog, params=params
    )


def build_scenario_stream(
    name: str,
    cores: int,
    intensity: int,
    rng: np.random.Generator,
    *,
    window: float = BURST_WINDOW_S,
    catalog: Optional[Sequence[FunctionSpec]] = None,
    params: Optional[Mapping[str, Any]] = None,
) -> Union[BurstScenario, RequestStream]:
    """Build the scenario registered under *name* for a streaming run — the
    entry point of the runner's ``retain_records=False`` path: a lazy
    :class:`~repro.workload.generator.RequestStream` where the scenario
    has a streaming builder, its materialised workload otherwise (see
    :meth:`ScenarioSpec.build_stream`)."""
    return get_scenario(name).build_stream(
        cores, intensity, rng, window=window, catalog=catalog, params=params
    )
