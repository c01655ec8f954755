"""Tracing for the benchmark's traced run, installed from outside ``src/``.

A :class:`Tracer` wraps public entry points of the package's layers for
the duration of a ``with`` block and restores the originals afterwards, so
the untraced run executes the program untouched.  Three wrapper kinds:

* **spans** (coarse entry points: a cell, workload build, warm-up, a cache
  load or store, ...) record ``(name, start_ns, end_ns, parent, label)``
  in memory, with the cell label as the shared id;
* **timers** (per-call entry points: ``Invoker.submit``,
  ``SharedCPU.execute``, ``SummaryAccumulator.add``) keep a call count and
  the summed inclusive time, without storing each call;
* **counters** (the hottest paths: ``Environment.step``,
  ``Environment.process``, ``StablePriorityQueue.push/pop``) only count.

:class:`LayerProfile` attaches ``cProfile`` and groups its self time by
the package module that spent it: time in code outside the package
(builtins, NumPy, the standard library) is charged to the package modules
that called it, in proportion to the time each call site spent there.
"""

from __future__ import annotations

import cProfile
import functools
import json
import pstats
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: Package source file (relative to ``src/repro``) -> layer.  Files not
#: listed fall into ``repro.other``.
LAYER_FILES = {
    "sim/core.py": "sim.core",
    "sim/process.py": "sim.process",
    "sim/events.py": "sim.process",
    "sim/cpu.py": "sim.cpu",
    "sim/waterfill.py": "sim.cpu",
    "sim/resources.py": "sim.resources",
    "node/invoker.py": "node.invoker",
    "node/baseline.py": "node.invoker",
    "node/pool.py": "node.pool",
    "node/container.py": "node.pool",
    "node/docker.py": "node.docker",
    "scheduling/": "scheduling",
    "cluster/platform.py": "cluster.platform",
    "metrics/": "metrics",
    "workload/": "workload",
    "experiments/parallel.py": "experiments.parallel",
    "experiments/executor.py": "experiments.parallel",
    "experiments/queue.py": "experiments.queue",
}
BENCH_LAYER = "perfbench"
OTHER_LAYER = "repro.other"


class Stat:
    """Calls of one wrapped entry point and their summed time."""

    __slots__ = ("count", "total_ns", "hits")

    def __init__(self) -> None:
        self.count = 0
        self.total_ns = 0
        #: Calls that returned a truthy value (cache hits, claim wins).
        self.hits = 0

    def mean(self, scale: float) -> float:
        """Mean inclusive time per call, in seconds times ``scale``."""
        return self.total_ns / self.count * scale / 1e9 if self.count else 0.0


class Tracer:
    """Spans and per-entry-point statistics of one traced run."""

    def __init__(self) -> None:
        #: ``[name, start_ns, end_ns, parent_index, label]``.
        self.spans: List[list] = []
        self.stats: Dict[str, Stat] = defaultdict(Stat)
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------
    @contextmanager
    def span(self, name: str, label: Optional[str] = None):
        parent = self._stack[-1] if self._stack else None
        if label is None and parent is not None:
            label = self.spans[parent][4]
        index = len(self.spans)
        record = [name, time.perf_counter_ns(), 0, parent, label]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            self._stack.pop()
            record[2] = time.perf_counter_ns()
            stat = self.stats[name]
            stat.count += 1
            stat.total_ns += record[2] - record[1]

    # -- wrappers --------------------------------------------------------
    def _patch(self, owner, attr: str, make: Callable) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, functools.wraps(original)(make(original)))
        self._patches.append((owner, attr, original))

    def spanned(self, owner, attr: str, name: str, label_of: Callable = None) -> None:
        def make(fn):
            def wrapper(*args, **kwargs):
                label = label_of(*args) if label_of is not None else None
                with self.span(name, label):
                    result = fn(*args, **kwargs)
                if result is not None and result is not False:
                    self.stats[name].hits += 1
                return result

            return wrapper

        self._patch(owner, attr, make)

    def timed(self, owner, attr: str, name: str) -> None:
        stat = self.stats[name]
        clock = time.perf_counter_ns

        def make(fn):
            def wrapper(*args, **kwargs):
                started = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    stat.total_ns += clock() - started
                    stat.count += 1

            return wrapper

        self._patch(owner, attr, make)

    def counted(self, owner, attr: str, name: str) -> None:
        stat = self.stats[name]

        def make(fn):
            def wrapper(*args, **kwargs):
                stat.count += 1
                return fn(*args, **kwargs)

            return wrapper

        self._patch(owner, attr, make)

    @contextmanager
    def installed(self, install: Callable[["Tracer"], None]):
        """Apply ``install(self)``'s wrappers for the block, then restore
        every original (in reverse order)."""
        install(self)
        try:
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)

    # -- results ---------------------------------------------------------
    def take_stats(self) -> Dict[str, Stat]:
        """The statistics gathered so far; later installs start afresh."""
        stats, self.stats = self.stats, defaultdict(Stat)
        return stats

    def span_self_ms(self) -> Dict[str, float]:
        """Per span name: summed self time (duration minus the part its
        child spans cover), in milliseconds."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += (end - start - child_ns[i]) / 1e6
        return dict(totals)

    def write(self, path: Path, extra: Dict[str, object]) -> None:
        """Write every span once, at the end of the run."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            **extra,
            "span_fields": ["name", "start_ns", "end_ns", "parent", "label"],
            "spans": self.spans,
            "span_self_ms": self.span_self_ms(),
        }
        path.write_text(json.dumps(payload), encoding="utf-8")


# ----------------------------------------------------------------------
# Entry-point sets
# ----------------------------------------------------------------------
def install_simulator(tracer: Tracer) -> None:
    """Wrap the simulator layers' entry points."""
    from repro.cluster.platform import FaaSPlatform
    from repro.experiments import runner
    from repro.metrics.streaming import SummaryAccumulator
    from repro.node.baseline import BaselineInvoker
    from repro.node.invoker import Invoker
    from repro.scheduling.queue import StablePriorityQueue
    from repro.sim.core import Environment
    from repro.sim.cpu import SharedCPU

    tracer.counted(Environment, "step", "sim.core.step")
    tracer.counted(Environment, "process", "sim.process.process")
    tracer.counted(StablePriorityQueue, "push", "scheduling.queue.push")
    tracer.counted(StablePriorityQueue, "pop", "scheduling.queue.pop")
    tracer.timed(SharedCPU, "execute", "sim.cpu.execute")
    tracer.timed(Invoker, "submit", "node.submit")
    tracer.timed(BaselineInvoker, "submit", "node.submit")
    tracer.timed(SummaryAccumulator, "add", "metrics.fold")
    tracer.spanned(Invoker, "warm_up", "node.warm_up")
    tracer.spanned(BaselineInvoker, "warm_up", "node.warm_up")
    tracer.spanned(runner, "build_scenario", "workload.build_scenario")
    tracer.spanned(FaaSPlatform, "run_scenario", "cluster.run_scenario")


def install_engine(tracer: Tracer) -> None:
    """Wrap the engine layers' entry points (cache, fingerprint, claims)
    and count the cells the submitting process builds itself."""
    from repro.experiments import parallel, queue, runner

    tracer.spanned(parallel.ResultCache, "load", "cache.load", _cache_label)
    tracer.spanned(parallel.ResultCache, "store", "cache.store", _cache_label)
    tracer.spanned(parallel, "result_to_payload", "cache.encode")
    tracer.spanned(parallel, "result_from_payload", "cache.decode")
    tracer.timed(parallel, "config_fingerprint", "cache.fingerprint")
    tracer.timed(queue, "config_fingerprint", "cache.fingerprint")
    tracer.spanned(queue, "try_claim", "queue.try_claim")
    tracer.counted(runner, "build_scenario", "engine.parent_build")


def _cache_label(_cache, config, *_args) -> str:
    return config.label()


# ----------------------------------------------------------------------
# Profiler grouped by layer
# ----------------------------------------------------------------------
def layer_of(filename: str) -> Optional[str]:
    """The layer of a source file, or ``None`` for code outside the
    package and the benchmark."""
    path = filename.replace("\\", "/")
    marker = "/src/repro/"
    if marker in path:
        relative = path.split(marker, 1)[1]
        for prefix, layer in LAYER_FILES.items():
            if relative == prefix or (prefix.endswith("/") and relative.startswith(prefix)):
                return layer
        return OTHER_LAYER
    if "/perfbench/" in path:
        return BENCH_LAYER
    return None


class LayerProfile:
    """``cProfile`` self time, grouped by layer."""

    def __init__(self) -> None:
        self.profile = cProfile.Profile()

    @contextmanager
    def enabled(self):
        self.profile.enable()
        try:
            yield
        finally:
            self.profile.disable()

    def self_seconds(self) -> Dict[str, float]:
        stats = pstats.Stats(self.profile).stats
        shares: Dict[tuple, Dict[str, float]] = {}

        def share(func, depth: int = 0) -> Dict[str, float]:
            if func in shares:
                return shares[func]
            layer = layer_of(func[0])
            if layer is not None:
                result = {layer: 1.0}
            elif depth > 20 or func not in stats:
                result = {OTHER_LAYER: 1.0}
            else:
                shares[func] = {OTHER_LAYER: 1.0}  # cycle guard
                callers = stats[func][4]
                weights = {c: entry[2] for c, entry in callers.items()}
                total = sum(weights.values())
                if total <= 0:
                    weights = {c: entry[1] for c, entry in callers.items()}
                    total = sum(weights.values())
                result = defaultdict(float)
                if total <= 0:
                    result[OTHER_LAYER] = 1.0
                for caller, weight in weights.items():
                    if weight <= 0:
                        continue
                    for layer_name, part in share(caller, depth + 1).items():
                        result[layer_name] += part * weight / total
                result = dict(result)
            shares[func] = result
            return result

        totals: Dict[str, float] = defaultdict(float)
        for func, (_, _, tottime, _, _) in stats.items():
            for layer, part in share(func).items():
                totals[layer] += tottime * part
        return dict(totals)
