"""Pluggable scenario registry: named, parameterized workload builders.

Every workload is one entry of :data:`SCENARIOS`, a
:class:`~repro.catalog.Registry` of :class:`ScenarioSpec` (see
:mod:`repro.catalog` for :class:`Param`, parameter validation and the
shared error wording):

* :class:`ScenarioSpec` — a registered scenario: builder callable plus
  metadata (description, paper section, declared parameters) and a
  :meth:`ScenarioSpec.build` entry point that validates parameters;
* :func:`register_scenario` — the decorator builders use to join the
  registry (``@register_scenario("diurnal", ...)``), and
  :func:`register_stream_builder`, which attaches a lazy builder for
  streaming runs.

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

from dataclasses import dataclass, replace
from typing import Any, Callable, Mapping, Optional, Sequence, Union

import numpy as np

from repro.catalog import REQUIRED, Param, Registry, Spec
from repro.workload.functions import FunctionSpec
from repro.workload.generator import BURST_WINDOW_S, BurstScenario, RequestStream

__all__ = [
    "REQUIRED",
    "Param",
    "ScenarioSpec",
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


@dataclass(frozen=True)
class ScenarioSpec(Spec):
    """A registered scenario: builder plus catalog metadata."""

    kind = "scenario"

    #: Optional truly-streaming builder returning a
    #: :class:`~repro.workload.generator.RequestStream` (same signature
    #: as :attr:`builder`); attached via :func:`register_stream_builder`.
    #: Scenarios without one stream their materialised workload (see
    #: :meth:`build_stream`).
    stream_builder: Optional[ScenarioBuilder] = None

    def build(
        self,
        cores: int,
        intensity: int,
        rng: np.random.Generator,
        *,
        window: float = BURST_WINDOW_S,
        catalog: Optional[Sequence[FunctionSpec]] = None,
        params: Optional[Mapping[str, Any]] = None,
        stream: bool = False,
    ) -> Union[BurstScenario, RequestStream]:
        """Build the scenario after validating *params*.

        ``window`` is the request-emission window in seconds (builders with
        their own duration parameter may override it); ``catalog`` defaults
        to the paper's 11-function SeBS catalog.  ``stream`` selects the
        streaming builder where there is one (see :meth:`build_stream`).
        """
        builder = self.stream_builder if stream and self.stream_builder else self.builder
        kwargs = self.validate_params(params)
        return builder(cores, intensity, rng, window=window, catalog=catalog, **kwargs)

    def build_stream(self, *args: Any, **kwargs: Any) -> Union[BurstScenario, RequestStream]:
        """Build the scenario for a streaming run (:meth:`build`'s
        arguments).

        Scenarios with a registered streaming builder (currently
        ``replay``) produce a :class:`RequestStream` whose requests live
        in bounded memory.  Every other scenario returns :meth:`build`'s
        materialised workload: the platform pulls both shapes through
        ``arrivals()`` one request at a time, so streaming results match
        retained ones exactly.
        """
        return self.build(*args, stream=True, **kwargs)


def _load_builtin_scenarios() -> None:
    """Import the modules whose decorators populate :data:`SCENARIOS`."""
    import repro.workload.replay  # noqa: F401
    import repro.workload.scenarios  # noqa: F401
    import repro.workload.trace  # noqa: F401


#: The default registry; the built-in scenario modules register here, and
#: are imported at its first lookup.
SCENARIOS: Registry[ScenarioSpec] = Registry(ScenarioSpec, "scenarios", load=_load_builtin_scenarios)

#: Register a builder (decorator)::
#:
#:     @register_scenario(
#:         "constant",
#:         description="n requests at t=0",
#:         params=(Param("n", 10, "request count"),),
#:     )
#:     def constant(cores, intensity, rng, *, window, catalog, n):
#:         ...
register_scenario = SCENARIOS.register

#: The registered spec for a scenario name.
get_scenario = SCENARIOS.get

#: Sorted names of every registered scenario.
scenario_names = SCENARIOS.names


def register_stream_builder(name: str) -> Callable[[ScenarioBuilder], ScenarioBuilder]:
    """Decorator attaching a truly-streaming builder to the registered
    scenario *name* (see :meth:`ScenarioSpec.build_stream`).

    The streaming builder must produce the *same* requests — same rids,
    release times, functions, and service times, drawn from the RNG in the
    same order — as the materialising builder, just lazily; the
    streaming-vs-retained equivalence tests enforce this.
    """

    def decorate(builder: ScenarioBuilder) -> ScenarioBuilder:
        spec = get_scenario(name)
        if spec.stream_builder is not None:
            raise ValueError(
                f"scenario {name!r} already has a stream builder "
                f"(from {spec.stream_builder.__module__})"
            )
        SCENARIOS.add(replace(spec, stream_builder=builder), replace=True)
        return builder

    return decorate


def build_scenario(name: str, *args: Any, **kwargs: Any) -> BurstScenario:
    """Build the scenario registered under *name*
    (:meth:`ScenarioSpec.build`'s arguments) — the single entry point
    used by the experiment runner, so every registered scenario composes
    with the parallel engine and its cache automatically."""
    return get_scenario(name).build(*args, **kwargs)


def build_scenario_stream(
    name: str, *args: Any, **kwargs: Any
) -> Union[BurstScenario, RequestStream]:
    """Build the scenario registered under *name* for a streaming run — the
    entry point of the runner's ``retain_records=False`` path: a lazy
    :class:`~repro.workload.generator.RequestStream` where the scenario
    has a streaming builder, its materialised workload otherwise (see
    :meth:`ScenarioSpec.build_stream`)."""
    return get_scenario(name).build_stream(*args, **kwargs)
