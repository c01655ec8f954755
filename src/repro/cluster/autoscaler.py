"""Horizontal autoscaling — the alternative the paper argues against.

The paper's introduction motivates node-level scheduling by the cost of
the obvious alternative: horizontally scaling the cluster, which "takes
at least dozens of seconds" for a new node plus seconds more to warm its
containers, so peaks must instead be absorbed by over-provisioning.
This module makes that argument quantitative: a reactive autoscaler adds
worker nodes when outstanding load crosses a threshold, each arriving
after a provisioning delay — letting users compare

* baseline + autoscaler (the status quo),
* our scheduling policies without scaling (the paper's proposal),

under the same burst.  See ``examples``/benchmarks ``ablations`` usage.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional, Union

from repro.node.baseline import BaselineInvoker
from repro.node.invoker import Invoker
from repro.scheduling.estimator import RuntimeEstimator
from repro.workload.functions import sebs_catalog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.core import Environment
    from repro.node.config import NodeConfig

__all__ = ["AutoscalerConfig", "ReactiveAutoscaler"]

AnyInvoker = Union[Invoker, BaselineInvoker]


@dataclass(frozen=True)
class AutoscalerConfig:
    """Reactive scale-out policy.

    Attributes
    ----------
    max_nodes:
        Fleet-size ceiling (including the initial nodes).
    provisioning_delay_s:
        Boot time of a fresh node — "dozens of seconds" (paper Sect. I);
        the default models a fast 30 s VM boot.
    scale_out_outstanding_per_core:
        Add a node when total outstanding calls exceed this many per
        currently-running core (a CPU-utilisation-proxy trigger).
    check_interval_s:
        Control-loop period.
    warm_new_nodes:
        Whether a freshly-provisioned node warms containers before
        serving (costs extra seconds but avoids a cold-start storm).
    warmup_delay_s:
        Container warm-up time on the new node when ``warm_new_nodes``.
    """

    max_nodes: int = 4
    provisioning_delay_s: float = 30.0
    scale_out_outstanding_per_core: float = 2.0
    check_interval_s: float = 1.0
    warm_new_nodes: bool = True
    warmup_delay_s: float = 5.0

    def __post_init__(self) -> None:
        if self.max_nodes < 1:
            raise ValueError("max_nodes must be >= 1")
        if self.provisioning_delay_s < 0 or self.warmup_delay_s < 0:
            raise ValueError("delays must be non-negative")
        if self.scale_out_outstanding_per_core <= 0:
            raise ValueError("scale_out_outstanding_per_core must be positive")
        if self.check_interval_s <= 0:
            raise ValueError("check_interval_s must be positive")


class ReactiveAutoscaler:
    """Adds worker nodes to a platform while a burst is in flight.

    The autoscaler owns a *factory* for new invokers and appends them to
    the (live) invoker list shared with the platform's load balancer —
    balancers read ``self.invokers`` on every pick, so new nodes start
    receiving calls the moment they are ready.
    """

    def __init__(
        self,
        env: "Environment",
        invokers: List[AnyInvoker],
        node_config: "NodeConfig",
        config: Optional[AutoscalerConfig] = None,
        factory: Optional[Callable[[int], AnyInvoker]] = None,
    ) -> None:
        self.env = env
        self.invokers = invokers
        self.node_config = node_config
        self.config = config if config is not None else AutoscalerConfig()
        self._factory = factory if factory is not None else self._default_factory
        #: (sim time, new fleet size) for every completed scale-out.
        self.scale_events: List[tuple[float, int]] = []
        self._provisioning = 0
        #: Index of the next scaled-out node, advanced once per provision.
        #: The live list's length cannot name nodes uniquely: concurrent
        #: provisions read it before either node joins, and crashed
        #: roster nodes leave it.
        self._next_index = len(invokers)
        self._stopped = False
        self._process = env.process(self._control_loop())

    def stop(self) -> None:
        """Halt the control loop (e.g. once a scenario has finished)."""
        self._stopped = True

    # ------------------------------------------------------------------
    @property
    def fleet_size(self) -> int:
        return len(self.invokers)

    def _default_factory(self, index: int) -> AnyInvoker:
        """Clone the first node's setup for a scaled-out node.

        The reference policy's estimator settings (window, horizon) carry
        over, and constructor parameters are recovered by signature
        introspection for policies that store each parameter under an
        attribute of the same name (all built-ins do).  Callers whose
        policies hold richer construction state should pass an explicit
        ``factory`` — the experiment runner does, rebuilding from its
        config's ``policy``/``policy_params``.
        """
        reference = self.invokers[0]
        if reference.is_baseline:
            return BaselineInvoker(self.env, self.node_config, name=f"scaled-{index}")
        policy = reference.policy
        estimator = RuntimeEstimator(
            window=policy.estimator.window,
            frequency_horizon=policy.estimator.frequency_horizon,
        )
        kwargs = {}
        parameters = list(inspect.signature(type(policy).__init__).parameters)[2:]
        for name in parameters:  # beyond (self, estimator)
            if hasattr(policy, name):
                kwargs[name] = getattr(policy, name)
        return Invoker(
            self.env,
            self.node_config,
            policy=type(policy)(estimator, **kwargs),
            name=f"scaled-{index}",
        )

    def _should_scale_out(self) -> bool:
        if self.fleet_size + self._provisioning >= self.config.max_nodes:
            return False
        outstanding = sum(inv.outstanding for inv in self.invokers)
        cores = sum(inv.config.cores for inv in self.invokers)
        return outstanding > self.config.scale_out_outstanding_per_core * cores

    def _control_loop(self):
        while not self._stopped:
            yield self.env.timeout(self.config.check_interval_s)
            if self._should_scale_out():
                self._provisioning += 1
                self.env.process(self._provision(self._next_index))
                self._next_index += 1

    def _provision(self, index: int):
        yield self.env.timeout(self.config.provisioning_delay_s)
        invoker = self._factory(index)
        if self.config.warm_new_nodes:
            yield self.env.timeout(self.config.warmup_delay_s)
            invoker.warm_up(sebs_catalog())
        self._provisioning -= 1
        self.invokers.append(invoker)
        self.scale_events.append((self.env.now, self.fleet_size))
