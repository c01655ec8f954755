"""The repository benchmark: one workload, one seed, one run.

Usage::

    python3 perfbench/run.py --workload cell-fc --seed 0 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with the program untouched;
``--trace 1`` is a separate run that wraps the layers' public entry points,
attaches a profiler, and reports the per-layer metrics (see README.md).
Every cell's output is checked (see checks.py).  Human-readable lines come
first; the last line of standard output is one JSON object.  The exit code
is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

import workloads
from calibrate import REFERENCE_S, SpeedMeter
from checks import Checker
from workloads import ROOT, WORK_DIR, WORKLOADS

HERE = Path(__file__).resolve().parent
#: Worker processes of the sweeps (refused when above nproc).
JOBS = 2
#: Fresh-interpreter set-ups per untraced run (setup_s is their median).
SETUP_RUNS = 5
#: The tail percentile reported as ``cell_ms_tail``.  Fixed, so runs stay
#: comparable: the highest percentile that keeps at least ten samples
#: beyond it on every run, given MIN_SAMPLES.
TAIL_PERCENTILE = 90
MIN_SAMPLES = 100
#: Cells of a traced cell run (the first configs of the workload's list).
TRACED_CELLS = 12


@dataclass
class Report:
    """What one run measured, for printing."""

    #: Metric name -> value (every BENCHMARK.json metric of the run's kind).
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Printed beside a metric (percentile, sample count).
    details: Dict[str, str] = field(default_factory=dict)
    #: End-to-end metrics printed but not listed in BENCHMARK.json:
    #: name -> (value, unit).
    extra: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: Context lines (raw timings, machine speed, engine counters).
    notes: Dict[str, object] = field(default_factory=dict)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def git_commit() -> str:
    """HEAD of the checkout (with a dirty flag), or ``unknown`` when the
    checkout is not the top of a git work tree."""
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
        if len(top) != 2 or Path(top[0]).resolve() != ROOT:
            return "unknown"
        dirty = subprocess.run(
            ["git", "-C", str(ROOT), "status", "--porcelain", "--untracked-files=no"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
        return top[1][:12] + ("-dirty" if dirty else "")
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def peak_rss_mb(include_children: bool) -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        usage = max(usage, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return usage / 1024.0


def cpu_seconds(who) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def tail(samples: List[float]) -> float:
    """The TAIL_PERCENTILE-th percentile (nearest rank)."""
    ordered = sorted(samples)
    return ordered[math.ceil(len(ordered) * TAIL_PERCENTILE / 100) - 1]


def measure_setup(name: str, seed: int, report: Report) -> float:
    """Median set-up time over fresh interpreters, each scaled to the
    reference machine speed by a calibration taken in that interpreter."""
    raw, scaled = [], []
    for _ in range(SETUP_RUNS):
        spawned_at = time.time()
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed), repr(spawned_at)],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        elapsed, calibration = (float(x) for x in out.stdout.split()[-2:])
        raw.append(elapsed)
        scaled.append(elapsed * REFERENCE_S / calibration)
    report.notes["raw_setup_s"] = statistics.median(raw)
    report.details["setup_s"] = f"median of {SETUP_RUNS} fresh interpreters"
    return statistics.median(scaled)


# ----------------------------------------------------------------------
# Untraced runs: end-to-end metrics
# ----------------------------------------------------------------------
def warm_up(configs, checker: Checker) -> None:
    """One untimed cell, so lazy imports and first-touch costs are paid
    before timing starts."""
    workloads.run_cells(configs[:1], checker.check)


def untraced_cells(workload, seed: int, seconds: float, checker: Checker, report: Report) -> None:
    setup_s = measure_setup(workload.name, seed, report)
    configs = workloads.setup(workload, seed)
    warm_up(configs, checker)
    meter = SpeedMeter()
    timing = workloads.run_cells(
        configs, checker.check, until=time.perf_counter() + seconds,
        min_cells=MIN_SAMPLES, meter=meter,
    )
    cell_ms = [s * 1e3 for s in timing.seconds]
    calls_per_cell = timing.calls / len(cell_ms)
    # Each config repeats once per pass; a serial sweep over the list
    # costs the sum of each config's median cell time.
    per_config = [statistics.median(timing.seconds[k :: len(configs)]) for k in range(len(configs))]
    report.details.update(
        cell_ms_p50=f"median of {len(cell_ms)} cells",
        cell_ms_tail=f"p{TAIL_PERCENTILE} of {len(cell_ms)} cells",
        sweep_s=f"serial pass over {len(configs)} configs",
    )
    report.notes.update(
        machine_speed=meter.speed(),
        raw_cell_ms_p50=statistics.median(timing.raw) * 1e3,
    )
    report.metrics = {
        "setup_s": setup_s,
        "inv_per_s": statistics.median(calls_per_cell / s for s in timing.seconds),
        "cell_ms_p50": statistics.median(cell_ms),
        "cell_ms_tail": tail(cell_ms),
        "sweep_s": sum(per_config),
        "peak_rss_mb": peak_rss_mb(include_children=False),
    }


def check_cold_pass(checker: Checker, cold, entries, reference_entries) -> List[str]:
    """Check a cold pass's results and stored bytes; returns the results'
    keys for comparison with the warm passes."""
    keys = []
    for result in workloads.grid_results(cold.grid):
        checker.check(result)
        keys.append(workloads.result_key(result))
    if reference_entries is not None:
        for fp, data in reference_entries.items():
            checker.record(
                [] if entries.get(fp) == data else [f"entry {fp[:12]} differs between cold passes"]
            )
    return keys


def check_warm_pass(checker: Checker, cold_keys: List[str], warm) -> None:
    if not all(warm.cached):
        checker.record([f"warm pass recomputed {warm.cached.count(False)} cells"])
    for key, result in zip(cold_keys, workloads.grid_results(warm.grid), strict=True):
        checker.record(
            [] if workloads.result_key(result) == key else [f"{result.config.label()}: warm result differs from cold"]
        )


def check_sample_bytes(checker: Checker, seed: int, entries, around=None) -> list:
    """Recompute one cell per (v, strategy) inline; the sweep must have
    stored the same bytes the serial path stores."""
    inline, results = workloads.inline_entries(workloads.byte_sample(seed), around)
    for fp, data in inline.items():
        checker.record([] if entries.get(fp) == data else [f"entry {fp[:12]} differs from the inline store"])
    for result in results:
        checker.check(result)
    return results


def untraced_sweep(workload, seed: int, seconds: float, checker: Checker, report: Report) -> None:
    setup_s = measure_setup(workload.name, seed, report)
    configs = workloads.setup(workload, seed)
    warm_up(configs, checker)
    spec = workloads.grid_spec(seed)
    # Warm passes run in this process and are scaled to the reference
    # machine speed.  Cold passes spread over worker processes on every
    # CPU, which one calibration here cannot speak for, so their wall
    # time is reported as measured.
    meter = SpeedMeter(repeats=3)
    deadline = time.perf_counter() + seconds
    cold_s, warm_s, reads, miscounted, throughput = [], [], [], [], []
    first_entries = None
    while True:
        root = workloads.fresh_root()
        try:
            cold = workloads.sweep_pass(spec, root, JOBS, workload.executor)
            cold_s.append(cold.seconds)
            calls = sum(len(r.records) for r in workloads.grid_results(cold.grid))
            throughput.append(calls / cold.seconds)
            # A cell counts as computed when its entry appears in the
            # fresh root, whatever the engine's own counters say.
            data = workloads.entry_bytes(root)
            miscounted.append(len(data) - cold.stats.computed)
            cold_keys = check_cold_pass(checker, cold, data, first_entries)
            first_entries = first_entries or data
            del cold
            meter.mark()
            for _ in range(workloads.WARM_PASSES):
                warm = workloads.sweep_pass(spec, root, JOBS, workload.executor)
                factor = meter.factor()
                warm_s.append(warm.seconds * factor)
                reads.extend(r * factor * 1e3 for r in warm.read_seconds(configs))
                check_warm_pass(checker, cold_keys, warm)
                del warm
        finally:
            shutil.rmtree(root, ignore_errors=True)
        if time.perf_counter() >= deadline:
            break
    check_sample_bytes(checker, seed, first_entries)
    reads_of = f"{len(reads)} warm reads of v={workloads.CELL_INTENSITY} cells"
    report.details.update(
        inv_per_s=f"median of {len(cold_s)} cold passes",
        cell_ms_p50=f"median of {reads_of}",
        cell_ms_tail=f"p{TAIL_PERCENTILE} of {reads_of}",
        sweep_s=f"median of {len(cold_s)} cold passes",
    )
    report.extra["sweep_warm_s"] = (statistics.median(warm_s), "s")
    report.notes.update(
        machine_speed=meter.speed(),
        raw_cold_pass_s=cold_s,
        miscounted_cells=miscounted,
    )
    report.metrics = {
        "setup_s": setup_s,
        "inv_per_s": statistics.median(throughput),
        "cell_ms_p50": statistics.median(reads),
        "cell_ms_tail": tail(reads),
        "sweep_s": statistics.median(cold_s),
        "peak_rss_mb": peak_rss_mb(include_children=True),
    }


# ----------------------------------------------------------------------
# Traced runs: per-layer metrics
# ----------------------------------------------------------------------
ENGINE_METRICS = (
    "engine.cpu_util", "engine.first_result_s", "engine.idle_tail_s",
    "engine.parent_cpu_s", "engine.miscounted_cells", "cache.store_ms",
    "cache.encode_ms", "cache.entry_kb", "cache.load_ms", "cache.decode_ms",
    "cache.fingerprint_us", "cache.hit_ratio", "queue.claim_win_ratio",
    "queue.parent_share",
)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def simulator_metrics(stats, layer_s: Dict[str, float], cells: int, calls: int) -> Dict[str, float]:
    def self_ms(layer: str) -> float:
        return layer_s.get(layer, 0.0) * 1e3 / cells

    return {
        "sim.core.events_per_call": stats["sim.core.step"].count / calls,
        "sim.core.self_ms": self_ms("sim.core"),
        "sim.process.processes_per_call": stats["sim.process.process"].count / calls,
        "sim.process.self_ms": self_ms("sim.process"),
        "sim.cpu.tasks_per_call": stats["sim.cpu.execute"].count / calls,
        "sim.cpu.execute_us": stats["sim.cpu.execute"].mean(1e6),
        "sim.cpu.self_ms": self_ms("sim.cpu"),
        "sim.resources.self_ms": self_ms("sim.resources"),
        "node.submit_us": stats["node.submit"].mean(1e6),
        "node.warmup_ms": stats["node.warm_up"].mean(1e3),
        "node.invoker.self_ms": self_ms("node.invoker"),
        "node.pool.self_ms": self_ms("node.pool"),
        "node.docker.self_ms": self_ms("node.docker"),
        "scheduling.queue_ops_per_call": (
            stats["scheduling.queue.push"].count + stats["scheduling.queue.pop"].count
        ) / calls,
        "scheduling.self_ms": self_ms("scheduling"),
        "cluster.platform.self_ms": self_ms("cluster.platform"),
        "metrics.fold_us": stats["metrics.fold"].mean(1e6),
        "metrics.self_ms": self_ms("metrics"),
        "workload.build_ms": stats["workload.build_scenario"].mean(1e3),
    }


def _traced_cell(tracer, profile):
    @contextmanager
    def around(config):
        with tracer.span("cell", config.label()), profile.enabled():
            yield

    return around


def traced_cells(workload, seed: int, checker: Checker, tracer, profile, report: Report) -> None:
    from instrument import install_simulator

    configs = workloads.setup(workload, seed)[:TRACED_CELLS]
    plain = workloads.run_cells(configs, checker.check)
    with tracer.installed(install_simulator):
        traced = workloads.run_cells(
            configs, checker.check, around=_traced_cell(tracer, profile)
        )
    layer_s = profile.self_seconds()
    report.notes["layer_self_ms"] = {k: v * 1e3 / len(configs) for k, v in layer_s.items()}
    report.metrics = simulator_metrics(tracer.take_stats(), layer_s, len(configs), traced.calls)
    report.metrics.update(dict.fromkeys(ENGINE_METRICS, 0.0))
    report.metrics["trace.overhead_x"] = traced.total / plain.total
    report.details["trace.overhead_x"] = f"over {len(configs)} cells"


def traced_sweep(workload, seed: int, checker: Checker, tracer, profile, report: Report) -> None:
    from instrument import install_engine, install_simulator

    workloads.setup(workload, seed)
    spec = workloads.grid_spec(seed)

    def warm_passes(root: Path, cold_keys: List[str]) -> float:
        """Run and check the all-hit passes; their summed wall time."""
        seconds = 0.0
        for _ in range(workloads.WARM_PASSES):
            warm = workloads.sweep_pass(spec, root, JOBS, workload.executor)
            seconds += warm.seconds
            check_warm_pass(checker, cold_keys, warm)
        return seconds

    root = workloads.fresh_root()
    try:
        plain_cold = workloads.sweep_pass(spec, root, JOBS, workload.executor)
        plain_entries = workloads.entry_bytes(root)
        plain_keys = check_cold_pass(checker, plain_cold, plain_entries, None)
        plain_s = plain_cold.seconds + warm_passes(root, plain_keys)
    finally:
        shutil.rmtree(root, ignore_errors=True)

    root = workloads.fresh_root()
    try:
        cpu_self, cpu_children = cpu_seconds(resource.RUSAGE_SELF), cpu_seconds(resource.RUSAGE_CHILDREN)
        with tracer.installed(install_engine), tracer.span("cold pass"):
            cold = workloads.sweep_pass(spec, root, JOBS, workload.executor)
        parent_cpu = cpu_seconds(resource.RUSAGE_SELF) - cpu_self
        children_cpu = cpu_seconds(resource.RUSAGE_CHILDREN) - cpu_children
        cold_stats = tracer.take_stats()
        entries = workloads.cache_entries(root)
        mtimes = [path.stat().st_mtime_ns / 1e9 for path in entries.values()]
        sizes = [path.stat().st_size for path in entries.values()]
        entry_data = workloads.entry_bytes(root)
        cold_keys = check_cold_pass(checker, cold, entry_data, plain_entries)
        with tracer.installed(install_engine), tracer.span("warm passes"):
            traced_s = cold.seconds + warm_passes(root, cold_keys)
        warm_stats = tracer.take_stats()
    finally:
        shutil.rmtree(root, ignore_errors=True)

    with tracer.installed(install_simulator):
        sample = check_sample_bytes(checker, seed, entry_data, _traced_cell(tracer, profile))
    layer_s = profile.self_seconds()
    cells = len(cold_keys)
    metrics = simulator_metrics(
        tracer.take_stats(), layer_s, len(sample), sum(len(r.records) for r in sample)
    )
    report.details["trace.overhead_x"] = "over one cold and the warm passes"
    claims = cold_stats["queue.try_claim"]
    loads = warm_stats["cache.load"]
    metrics.update({
        "engine.cpu_util": (parent_cpu + children_cpu) / (JOBS * cold.seconds),
        "engine.first_result_s": min(mtimes) - cold.wall_started,
        "engine.idle_tail_s": cold.wall_ended - max(mtimes),
        "engine.parent_cpu_s": parent_cpu,
        "engine.miscounted_cells": float(len(entries) - cold.stats.computed),
        "cache.store_ms": cold_stats["cache.store"].mean(1e3),
        "cache.encode_ms": cold_stats["cache.encode"].mean(1e3),
        "cache.entry_kb": statistics.mean(sizes) / 1024,
        "cache.load_ms": loads.mean(1e3),
        "cache.decode_ms": warm_stats["cache.decode"].mean(1e3),
        "cache.fingerprint_us": warm_stats["cache.fingerprint"].mean(1e6),
        "cache.hit_ratio": _ratio(loads.hits, loads.count),
        "queue.claim_win_ratio": _ratio(claims.hits, claims.count),
        "queue.parent_share": cold_stats["engine.parent_build"].count / cells,
        "trace.overhead_x": traced_s / plain_s,
    })
    report.metrics = metrics
    report.notes.update(
        simulator_metrics=f"over {len(sample)} grid cells recomputed inline",
        engine=cold.stats.summary_line(),
        computed_in_root=len(entries),
        layer_self_ms={k: v * 1e3 / len(sample) for k, v in layer_s.items()},
    )


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def load_metric_units(trace: bool) -> Dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def environment_line() -> str:
    import numpy

    return (
        f"env: nproc={nproc()} python={platform.python_version()} "
        f"numpy={numpy.__version__} commit={git_commit()}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="workload seed (>= 0)")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if JOBS > nproc():
        parser.error(f"the sweeps use {JOBS} worker processes but nproc is {nproc()}")
    # The benchmark chooses executor, cache root and timeouts itself.
    ignored = sorted(k for k in os.environ if k.startswith("REPRO_"))
    for key in ignored:
        del os.environ[key]

    try:
        units = load_metric_units(bool(args.trace))
        workloads.import_repro()
    except (OSError, ValueError, KeyError, ImportError) as exc:
        print(f"perfbench: cannot start: {exc}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    checker = Checker(workload.name, args.seed)
    report = Report()
    print(environment_line() + (f" ignored={','.join(ignored)}" if ignored else ""))
    print(
        f"workload: {workload.name} seed={args.seed} trace={args.trace} "
        f"jobs={JOBS} references={'yes' if checker.references is not None else 'no (invariants only)'}"
    )
    started = time.perf_counter()
    if args.trace:
        from instrument import LayerProfile, Tracer

        tracer, profile = Tracer(), LayerProfile()
        if workload.kind == "cell":
            traced_cells(workload, args.seed, checker, tracer, profile, report)
        else:
            traced_sweep(workload, args.seed, checker, tracer, profile, report)
        trace_path = WORK_DIR / f"trace-{workload.name}-seed{args.seed}.json"
        tracer.write(trace_path, {"workload": workload.name, "seed": args.seed, **report.notes})
        report.notes["trace_file"] = str(trace_path.relative_to(ROOT))
    elif workload.kind == "cell":
        untraced_cells(workload, args.seed, args.seconds, checker, report)
    else:
        untraced_sweep(workload, args.seed, args.seconds, checker, report)
    report.notes["run_s"] = time.perf_counter() - started

    metrics = report.metrics
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 2
    failed_frac = checker.failed / checker.checked if checker.checked else 1.0
    report.extra["failed_frac"] = (failed_frac, "ratio")
    report.details["failed_frac"] = f"{checker.failed} of {checker.checked} checks failed"
    rows = [(name, metrics[name], unit) for name, unit in units.items()]
    rows += [(name, value, unit) for name, (value, unit) in report.extra.items()]
    for name, value, unit in rows:
        detail = report.details.get(name)
        print(f"{name:32s} {value:14.6g} {unit:10s}" + (f" ({detail})" if detail else ""))
    layers = report.notes.pop("layer_self_ms", {})
    for key, value in report.notes.items():
        print(f"note: {key} = {value}")
    for layer, ms in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"layer self time: {layer:20s} {ms:10.3f} ms/cell")
    for problem in checker.problems[:20]:
        print(f"FAILED: {problem}", file=sys.stderr)
    correct = checker.checked > 0 and checker.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": checker.checked,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
