"""Node-level configuration and calibration constants.

Every mechanism the simulation models is controlled from here; the
defaults are calibrated so that the reproduction matches the *shapes* of
the paper's results (the qualitative claims in tests/test_shapes.py).
The key empirical anchors from the paper are:

* under saturation, the paper's invoker is pinned by container management,
  not CPU: its FIFO makespans imply a near-constant node-wide drain rate of
  ≈2.1–2.6 calls/s *independent of core count* (Sect. VII-C: "doubling
  the number of cores doubles the median response time").  The serialized
  docker operation per dispatch that the 1-core guarantee costs (cpu-limit
  update + unpause) is ``dispatch_op_s`` on the serialized daemon.  The
  defaults do **not** reproduce that rate: ``dispatch_op_s = 0.10`` allows
  10 dispatches/s, and at v=60, seed 1, our FIFO node drains 3.25, 5.27 and
  7.33 calls/s at 5, 10 and 20 cores, where the paper implies 2.1, 2.4 and
  2.5.  Closing that gap is item 1 of ROADMAP.md;
* the stock invoker reuses *hot* (not yet paused) containers with no
  docker operation and unpauses paused ones cheaply and concurrently —
  which is why the baseline's median response time stays low even
  under overload — but its greedy container *creations* serialize on the
  daemon (``create_op_s``) and dominate at high intensity (Fig. 2a: >80 %
  cold starts at intensity 120);
* cold starts take "on average 500 ms … up to 2 s" (Sect. VI): a
  serialized create plus in-container init whose CPU part stretches under
  load;
* OS-level preemption (baseline only): each busy container's CPU share is
  proportional to its memory, and oversubscribing the cores costs a
  context-switch efficiency penalty ``kappa``.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["NodeConfig"]


@dataclass(frozen=True)
class NodeConfig:
    """Configuration of one worker node.

    Attributes
    ----------
    cores:
        CPU cores available to action containers (the paper's ``c``).
    memory_mb:
        Size of the action-container memory pool (MiB); the paper runs its
        main experiments at 32 GiB (Sect. VI).
    dispatch_op_s:
        Serialized docker work our invoker performs per dispatched call
        (cpu-limit update + unpause); the node-wide dispatch bottleneck.
    create_op_s:
        Serialized ``docker run`` time (both invokers).
    remove_op_s:
        Serialized ``docker rm`` time (evictions, background).
    pause_op_s:
        Serialized ``docker pause`` time (background pauses, both invokers).
    unpause_latency_s:
        Parallel (non-serialized) latency of reviving a paused container
        on the baseline's warm path.
    pause_grace_s:
        Idle time after which a hot container is paused, by either invoker
        (OpenWhisk default ≈50 ms); hot reuse within the grace is free.
    cold_init_latency_s / cold_init_cpu_s:
        In-container initialisation after ``docker run``: pure latency
        plus CPU work on the node's CPU bank (so init stretches under
        load, reproducing the "up to 2 s" cold starts).
    prewarm_init_latency_s / prewarm_init_cpu_s:
        Lighter initialisation when a prewarmed runtime container is
        specialised for a function.
    prewarm_stock / prewarm_memory_mb:
        The baseline's stock of prewarmed runtime shells.
    invoker_overhead_s:
        Fixed per-call invoker bookkeeping latency.
    kappa:
        Oversubscription efficiency penalty of the CPU bank (context
        switches); only the baseline ever oversubscribes.
    busy_limit:
        Our invoker's cap on concurrently busy containers; ``None`` means
        ``cores`` (the paper's rule).  Exposed for the ablation that
        re-introduces oversubscription.
    estimator_window:
        Samples averaged by the runtime estimator (paper: 10).
    fc_horizon_s:
        Fair-Choice frequency window ``T`` (paper: "e.g. 60 seconds").
    """

    cores: int
    memory_mb: int = 32768

    # --- serialized docker-daemon operations ----------------------------
    dispatch_op_s: float = 0.10
    create_op_s: float = 0.50
    remove_op_s: float = 0.05
    pause_op_s: float = 0.30

    # --- warm path ---------------------------------------------------------
    unpause_latency_s: float = 0.020
    #: Idle time before a hot container is paused.  OpenWhisk's pause grace
    #: is on the order of seconds; its value is load-bearing for the
    #: policies: a container stays hot across SEPT/FC same-function trains
    #: (per-function dispatch gaps well under the grace) but not across
    #: FIFO's interleaved order (gaps of ~11 functions / dispatch rate).
    pause_grace_s: float = 1.2

    # --- container initialisation ---------------------------------------
    cold_init_latency_s: float = 0.35
    cold_init_cpu_s: float = 1.0
    prewarm_init_latency_s: float = 0.20
    prewarm_init_cpu_s: float = 0.20
    prewarm_stock: int = 2
    prewarm_memory_mb: int = 256

    # --- invoker & OS ------------------------------------------------------
    invoker_overhead_s: float = 0.002
    #: Contention-induced management CPU work per invocation: each call
    #: executes ``system_cpu_coeff_s * (min(busy, cores) - 1)`` core-seconds
    #: of docker/cgroup/logging work.  Zero when a call runs alone (Table I
    #: idle latencies are overhead-free), and ≈0.6 core-s on a saturated
    #: 10-core node — the paper observes that managing a container can cost
    #: more time than executing the function itself (Sect. V-B), and that
    #: per-call overhead grows with the node's core count (Sect. VII-C).
    system_cpu_coeff_s: float = 0.067
    kappa: float = 0.02
    busy_limit: int | None = None

    # --- scheduling --------------------------------------------------------
    estimator_window: int = 10
    fc_horizon_s: float = 60.0

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ValueError(f"cores must be >= 1, got {self.cores!r}")
        if self.memory_mb < 256:
            raise ValueError(f"memory_mb too small: {self.memory_mb!r}")
        for name in (
            "dispatch_op_s", "create_op_s", "remove_op_s", "pause_op_s",
            "unpause_latency_s", "pause_grace_s",
            "cold_init_latency_s", "cold_init_cpu_s",
            "prewarm_init_latency_s", "prewarm_init_cpu_s",
            "invoker_overhead_s", "system_cpu_coeff_s", "kappa", "fc_horizon_s",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.busy_limit is not None and self.busy_limit < 1:
            raise ValueError(f"busy_limit must be >= 1, got {self.busy_limit!r}")
        if self.estimator_window < 1:
            raise ValueError("estimator_window must be >= 1")

    @property
    def effective_busy_limit(self) -> int:
        """Busy-container cap of our invoker: ``busy_limit or cores``."""
        return self.busy_limit if self.busy_limit is not None else self.cores
