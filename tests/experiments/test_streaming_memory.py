"""Memory-bound regression test for the streaming pipeline.

Replays ~million-invocation synthetic traces (the recipe from
``benchmarks/bench_streaming_memory.py``) in streaming mode under
``tracemalloc`` and asserts the Python-allocation peak stays inside a
fixed budget — and, the sharper property, that doubling the trace does
NOT double the peak: streaming memory is bounded by workload
*concurrency*, not by invocation count.

These runs take minutes each, so the whole module is gated behind the
``slow`` marker and the ``REPRO_RUN_SLOW`` environment variable; CI runs
it weekly and on the pull requests that touch the injection path, the
node layer that holds each in-flight call, or the kernel's calendar,
events and CPU banks that hold its entries, not on every pull request
(see .github/workflows/slow.yml).
"""

import importlib.util
import os
from pathlib import Path

import pytest

pytestmark = [
    pytest.mark.slow,
    pytest.mark.skipif(
        not os.environ.get("REPRO_RUN_SLOW"),
        reason="set REPRO_RUN_SLOW=1 to run multi-minute memory tests",
    ),
]

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Two sizes, the second double the first, around the million-invocation
#: scale the streaming pipeline exists for.
SIZES = (500_000, 1_000_000)

#: Python-allocation peak budget for EITHER size.  The measured peak is
#: ~40 MB (dominated by one 60k-request replay minute-bucket plus the
#: in-flight call set); 128 MB leaves ~3x headroom before this fails.
TRACED_BUDGET_MB = 128.0

#: Doubling the invocations must not come close to doubling the peak.
SUBLINEAR_RATIO = 1.5


def _load_bench_module():
    """Import the standalone bench script (benchmarks/ is not a package)."""
    path = REPO_ROOT / "benchmarks" / "bench_streaming_memory.py"
    spec = importlib.util.spec_from_file_location("bench_streaming_memory", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def measurements():
    """One streaming run per size, measured under tracemalloc.

    ``run_case`` already asserts the summary saw every invocation, so a
    silently truncated replay fails here, not in the assertions below.
    ``ru_maxrss`` would be contaminated by the pytest process's own
    lifetime high-water, so only the tracemalloc peak is asserted on.
    """
    bench = _load_bench_module()
    return {
        n: bench.run_case("streaming", n, trace_allocs=True) for n in SIZES
    }


def test_peak_stays_inside_budget(measurements):
    for n, case in measurements.items():
        assert case["tracemalloc_peak_mb"] <= TRACED_BUDGET_MB, (
            f"streaming replay of {n:,} invocations peaked at "
            f"{case['tracemalloc_peak_mb']} MB traced allocations "
            f"(budget {TRACED_BUDGET_MB} MB) — a per-record leak?"
        )


def test_memory_growth_is_sublinear(measurements):
    small, large = (measurements[n]["tracemalloc_peak_mb"] for n in SIZES)
    assert large <= SUBLINEAR_RATIO * small, (
        f"doubling the trace ({SIZES[0]:,} -> {SIZES[1]:,} invocations) "
        f"grew the traced peak {small} MB -> {large} MB; streaming memory "
        f"must be concurrency-bound, not invocation-bound"
    )


def test_streaming_summary_is_complete(measurements):
    for n, case in measurements.items():
        assert case["invocations"] == n
        assert case["cold_starts"] >= len(_load_bench_module().FAST_FUNCS)
        assert case["mean_response_time_s"] > 0
