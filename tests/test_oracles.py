"""Analytic oracles: the simulator against its own model, computed apart.

The golden fingerprints prove that behaviour did not change; an oracle
proves that the simulator computes what its model says.  One regime has
an oracle so far (docs/ARCHITECTURE.md lists it):

* **FIFO on a node without overheads.**  With every ``NodeConfig``
  overhead at 0 (the four docker operations, the unpause latency, the
  init latencies and CPU, ``invoker_overhead_s`` and
  ``system_cpu_coeff_s``), the paper's invoker under FIFO is list
  scheduling on ``cores`` identical machines: calls are taken in receipt
  order, each starts at the later of its receipt and the earliest free
  core, and it runs for its service time on that core: its I/O time, then
  its CPU work.  Its response leaves the node at once and reaches the
  client one response leg later.  The CPU bank counts a task with at most
  ``CPU_RESOLUTION`` core-seconds left as finished, so a CPU phase that
  short takes no time.

The reference below is that heap schedule, written from the model and not
from the simulator.  Workloads are drawn with Hypothesis, and the paper's
own cells (FIFO x 2/5/10 cores x v 10/30/60 x seeds 1-2) run through the
full experiment runner.
"""

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.network import NetworkModel
from repro.cluster.platform import FaaSPlatform
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.node.config import NodeConfig
from repro.node.invoker import Invoker
from repro.sim import cpu
from repro.sim.core import Environment
from repro.workload.functions import FunctionSpec, catalog_by_name
from repro.workload.generator import BurstScenario, Request

#: Every node overhead the model can switch off.
NO_OVERHEADS = {
    "dispatch_op_s": 0.0,
    "create_op_s": 0.0,
    "remove_op_s": 0.0,
    "pause_op_s": 0.0,
    "unpause_latency_s": 0.0,
    "cold_init_latency_s": 0.0,
    "cold_init_cpu_s": 0.0,
    "prewarm_init_latency_s": 0.0,
    "prewarm_init_cpu_s": 0.0,
    "invoker_overhead_s": 0.0,
    "system_cpu_coeff_s": 0.0,
}

#: Tolerance on every timestamp (seconds).  The simulator chains
#: ``work -= elapsed`` and adds delays to the clock, so it may differ from
#: the reference in the last bits, never by more.
TOLERANCE_S = 1e-9

#: The CPU bank's finish threshold (core-seconds).
CPU_RESOLUTION = cpu._EPS

#: The one-way network legs of the default :class:`NetworkModel`.
LEG_S = NetworkModel().request_latency_s
RESPONSE_LEG_S = NetworkModel().response_latency_s

#: One function per I/O mix: all I/O, 30% CPU, all CPU.
FUNCTIONS = [
    FunctionSpec(f"oracle-cpu-{fraction}", 0.1, 0.2, 0.4, fraction, 128)
    for fraction in (0.0, 0.3, 1.0)
]

TIMESTAMPS = ("dispatched_at", "exec_start", "exec_end", "completed_at")


def list_schedule(requests, cores):
    """FIFO list schedule on ``cores`` identical machines.

    *requests* are in receipt order.  Returns ``rid -> {dispatched_at,
    exec_start, exec_end, completed_at}``.
    """
    free = [0.0] * cores  # when each core is next free
    schedule = {}
    for request in requests:
        receipt = request.release_time + LEG_S
        cpu_work = request.cpu_work if request.cpu_work > CPU_RESOLUTION else 0.0
        start = max(receipt, heapq.heappop(free))
        end = start + request.io_time + cpu_work
        heapq.heappush(free, end)
        schedule[request.rid] = {
            "dispatched_at": start,
            "exec_start": start,
            "exec_end": end,
            "completed_at": end + RESPONSE_LEG_S,
        }
    return schedule


def assert_matches(records, schedule):
    assert len(records) == len(schedule)
    for record in records:
        want = schedule[record.rid]
        for field in TIMESTAMPS:
            got = getattr(record, field)
            assert abs(got - want[field]) <= TOLERANCE_S, (record.rid, field, got, want[field])


CALLS = st.lists(
    st.tuples(
        st.floats(0.0, 20.0),  # release (s)
        st.floats(0.0, 5.0),  # service (s)
        st.sampled_from(FUNCTIONS),
    ),
    min_size=1,
    max_size=60,
)


@given(cores=st.integers(1, 6), calls=CALLS, warm=st.booleans())
@settings(max_examples=100, deadline=None)
def test_fifo_without_overheads_is_a_list_schedule(cores, calls, warm):
    env = Environment()
    invoker = Invoker(env, NodeConfig(cores=cores, **NO_OVERHEADS), policy="FIFO")
    if warm:
        invoker.warm_up(FUNCTIONS)
    requests = [
        Request(rid, function, release, service)
        for rid, (release, service, function) in enumerate(calls)
    ]
    scenario = BurstScenario(requests)
    records = FaaSPlatform(env, [invoker]).run_scenario(scenario)

    # The injector sends calls in the scenario's (release, rid) order and
    # every request leg takes the same time, so that is the receipt order.
    assert_matches(records, list_schedule(scenario.requests, cores))


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("intensity", [10, 30, 60])
@pytest.mark.parametrize("cores", [2, 5, 10])
def test_paper_cells_without_overheads_are_list_schedules(cores, intensity, seed):
    config = ExperimentConfig(
        cores=cores,
        intensity=intensity,
        policy="FIFO",
        seed=seed,
        node_overrides=tuple(NO_OVERHEADS.items()),
    )
    records = run_experiment(config).records
    catalog = catalog_by_name()
    requests = sorted(
        (Request(r.rid, catalog[r.function_name], r.release_time, r.service_time) for r in records),
        key=lambda request: (request.release_time, request.rid),
    )
    assert_matches(records, list_schedule(requests, cores))
