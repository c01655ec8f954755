"""Tests for the load balancers."""

import inspect

import pytest

from repro.catalog import RUNTIME
from repro.cluster.controller import (
    BALANCERS,
    HashOverflowBalancer,
    LeastLoadedBalancer,
    LocalityBalancer,
    PowerOfDChoicesBalancer,
    RoundRobinBalancer,
    balancer_names,
    make_balancer,
    validate_balancer_params,
)
from repro.workload.functions import catalog_by_name
from repro.workload.generator import Request


class FakePool:
    def __init__(self, warm=None):
        self._warm = dict(warm or {})

    def warm_count(self, spec):
        return self._warm.get(spec.name, 0)


class FakeInvoker:
    def __init__(self, outstanding=0, cores=10, warm=None):
        self.outstanding = outstanding
        self.config = type("Cfg", (), {"cores": cores})()
        self.pool = FakePool(warm)


def req(name="graph-bfs", rid=0):
    return Request(rid, catalog_by_name()[name], 0.0, 1.0)


class TestRoundRobin:
    def test_cycles(self):
        balancer = RoundRobinBalancer([FakeInvoker() for _ in range(3)])
        picks = [balancer.pick(req(rid=i)) for i in range(7)]
        assert picks == [0, 1, 2, 0, 1, 2, 0]


class TestLeastLoaded:
    def test_picks_minimum(self):
        invokers = [FakeInvoker(5), FakeInvoker(1), FakeInvoker(3)]
        balancer = LeastLoadedBalancer(invokers)
        assert balancer.pick(req()) == 1

    def test_tie_breaks_by_index(self):
        invokers = [FakeInvoker(2), FakeInvoker(2)]
        balancer = LeastLoadedBalancer(invokers)
        assert balancer.pick(req()) == 0


class TestHashOverflow:
    def test_same_function_same_home_when_idle(self):
        invokers = [FakeInvoker() for _ in range(4)]
        balancer = HashOverflowBalancer(invokers)
        picks = {balancer.pick(req(rid=i)) for i in range(5)}
        assert len(picks) == 1  # deterministic home

    def test_different_functions_spread(self):
        invokers = [FakeInvoker() for _ in range(4)]
        balancer = HashOverflowBalancer(invokers)
        homes = {
            name: balancer.pick(req(name))
            for name in ("graph-bfs", "sleep", "dna-visualisation", "uploader",
                         "compression", "thumbnailer")
        }
        assert len(set(homes.values())) > 1

    def test_overflow_to_next(self):
        invokers = [FakeInvoker(outstanding=100, cores=10) for _ in range(3)]
        balancer = HashOverflowBalancer(invokers, capacity_factor=2.0)
        home = HashOverflowBalancer([FakeInvoker() for _ in range(3)]).pick(req("sleep"))
        invokers_partial = [FakeInvoker(100, 10) for _ in range(3)]
        invokers_partial[(home + 1) % 3] = FakeInvoker(0, 10)
        balancer = HashOverflowBalancer(invokers_partial, capacity_factor=2.0)
        assert balancer.pick(req("sleep")) == (home + 1) % 3

    def test_all_overloaded_falls_back_to_least_loaded(self):
        invokers = [FakeInvoker(90, 10), FakeInvoker(50, 10), FakeInvoker(70, 10)]
        balancer = HashOverflowBalancer(invokers, capacity_factor=2.0)
        assert balancer.pick(req()) == 1

    def test_invalid_capacity_factor(self):
        with pytest.raises(ValueError):
            HashOverflowBalancer([FakeInvoker()], capacity_factor=0.0)


class TestHashOverflowSpills:
    """Spill accounting: picks that leave the home invoker are counted."""

    def test_home_pick_is_not_a_spill(self):
        balancer = HashOverflowBalancer([FakeInvoker() for _ in range(3)])
        balancer.pick(req("sleep"))
        assert balancer.stats.spills == 0

    def test_ring_step_counts_one_spill(self):
        home = HashOverflowBalancer([FakeInvoker() for _ in range(3)]).pick(req("sleep"))
        invokers = [FakeInvoker(0, 10) for _ in range(3)]
        invokers[home] = FakeInvoker(100, 10)  # home over threshold
        balancer = HashOverflowBalancer(invokers, capacity_factor=2.0)
        assert balancer.pick(req("sleep")) == (home + 1) % 3
        assert balancer.stats.spills == 1

    def test_total_overload_fallback_counts_one_spill(self):
        invokers = [FakeInvoker(90, 10), FakeInvoker(50, 10), FakeInvoker(70, 10)]
        balancer = HashOverflowBalancer(invokers, capacity_factor=2.0)
        balancer.pick(req("sleep"))
        assert balancer.stats.spills == 1

    def test_spill_rate_uses_platform_pick_counter(self):
        invokers = [FakeInvoker(100, 10) for _ in range(2)]
        balancer = HashOverflowBalancer(invokers, capacity_factor=2.0)
        for i in range(4):
            balancer.pick(req(rid=i))
            balancer.stats.picks += 1  # the platform increments per call
        assert balancer.stats.spills == 4
        assert balancer.stats.spill_rate == 1.0

    def test_spill_rate_zero_without_picks(self):
        balancer = HashOverflowBalancer([FakeInvoker()])
        assert balancer.stats.spill_rate == 0.0


class TestPowerOfD:
    def test_picks_least_loaded_of_sample(self):
        # d >= n degenerates to global least-loaded: deterministic.
        invokers = [FakeInvoker(5), FakeInvoker(1), FakeInvoker(3)]
        balancer = PowerOfDChoicesBalancer(invokers, d=3)
        assert balancer.pick(req()) == 1

    def test_deterministic_for_seed(self):
        invokers = [FakeInvoker(i) for i in range(8)]
        a = PowerOfDChoicesBalancer(invokers, d=2, seed=7)
        b = PowerOfDChoicesBalancer(invokers, d=2, seed=7)
        assert [a.pick(req(rid=i)) for i in range(50)] == [
            b.pick(req(rid=i)) for i in range(50)
        ]

    def test_different_seeds_sample_differently(self):
        invokers = [FakeInvoker(i) for i in range(8)]
        a = PowerOfDChoicesBalancer(invokers, d=2, seed=1)
        b = PowerOfDChoicesBalancer(invokers, d=2, seed=2)
        assert [a.pick(req(rid=i)) for i in range(50)] != [
            b.pick(req(rid=i)) for i in range(50)
        ]

    def test_sample_never_exceeds_fleet(self):
        invokers = [FakeInvoker(), FakeInvoker()]
        balancer = PowerOfDChoicesBalancer(invokers, d=5)
        assert balancer.pick(req()) in (0, 1)

    def test_invalid_d(self):
        with pytest.raises(ValueError):
            PowerOfDChoicesBalancer([FakeInvoker()], d=0)


class TestLocality:
    def test_prefers_warm_holder(self):
        invokers = [
            FakeInvoker(outstanding=3),
            FakeInvoker(outstanding=5, warm={"graph-bfs": 2}),
            FakeInvoker(outstanding=0),
        ]
        balancer = LocalityBalancer(invokers)
        assert balancer.pick(req("graph-bfs")) == 1
        assert balancer.stats.spills == 0

    def test_most_warm_wins_then_load_then_index(self):
        invokers = [
            FakeInvoker(outstanding=1, warm={"graph-bfs": 1}),
            FakeInvoker(outstanding=9, warm={"graph-bfs": 3}),
            FakeInvoker(outstanding=0, warm={"graph-bfs": 3}),
        ]
        balancer = LocalityBalancer(invokers)
        assert balancer.pick(req("graph-bfs")) == 2  # most warm, lighter load

    def test_overloaded_warm_holder_spills(self):
        invokers = [
            FakeInvoker(outstanding=100, cores=10, warm={"graph-bfs": 2}),
            FakeInvoker(outstanding=0, cores=10),
        ]
        balancer = LocalityBalancer(invokers, capacity_factor=2.0)
        pick = balancer.pick(req("graph-bfs"))
        assert pick == 1  # the only under-threshold invoker
        assert balancer.stats.spills == 1

    def test_no_warm_holders_spills_deterministically(self):
        invokers = [FakeInvoker() for _ in range(3)]
        balancer = LocalityBalancer(invokers)
        first = balancer.pick(req("sleep"))
        again = LocalityBalancer([FakeInvoker() for _ in range(3)]).pick(req("sleep"))
        assert first == again  # hash-ring fallback, not arrival order
        assert balancer.stats.spills == 1

    def test_invoker_without_pool_counts_as_cold(self):
        bare = FakeInvoker()
        del bare.pool
        invokers = [bare, FakeInvoker(warm={"graph-bfs": 1})]
        balancer = LocalityBalancer(invokers)
        assert balancer.pick(req("graph-bfs")) == 1

    def test_invalid_capacity_factor(self):
        with pytest.raises(ValueError):
            LocalityBalancer([FakeInvoker()], capacity_factor=-1.0)


class TestLiveInvokerList:
    """The live-list contract of ``LoadBalancer.__init__``: appending to
    the list mid-run (what :class:`ReactiveAutoscaler` does) makes the
    new invoker routable immediately, for every balancer flavour."""

    def test_least_loaded_routes_to_appended_idle_node(self):
        invokers = [FakeInvoker(outstanding=10), FakeInvoker(outstanding=10)]
        balancer = LeastLoadedBalancer(invokers)
        invokers.append(FakeInvoker(outstanding=0))
        assert balancer.pick(req()) == 2

    def test_round_robin_cycle_grows_with_the_list(self):
        invokers = [FakeInvoker(), FakeInvoker()]
        balancer = RoundRobinBalancer(invokers)
        assert [balancer.pick(req(rid=i)) for i in range(2)] == [0, 1]
        invokers.append(FakeInvoker())
        assert [balancer.pick(req(rid=i)) for i in range(3)] == [0, 1, 2]

    def test_hash_overflow_ring_covers_appended_node(self):
        invokers = [FakeInvoker(100, 10), FakeInvoker(100, 10)]
        balancer = HashOverflowBalancer(invokers, capacity_factor=2.0)
        invokers.append(FakeInvoker(0, 10))
        assert balancer.pick(req()) == 2  # only under-threshold node

    def test_power_of_d_samples_appended_node(self):
        invokers = [FakeInvoker(outstanding=50)]
        balancer = PowerOfDChoicesBalancer(invokers, d=2, seed=3)
        invokers.append(FakeInvoker(outstanding=0))
        # d >= fleet size: both probed, the appended idle node wins.
        assert balancer.pick(req()) == 1

    def test_locality_sees_warm_containers_on_appended_node(self):
        invokers = [FakeInvoker(outstanding=4)]
        balancer = LocalityBalancer(invokers)
        invokers.append(FakeInvoker(outstanding=0, warm={"graph-bfs": 1}))
        assert balancer.pick(req("graph-bfs")) == 1

    def test_tuple_input_is_copied_not_aliased(self):
        invokers = (FakeInvoker(), FakeInvoker())
        balancer = LeastLoadedBalancer(invokers)
        assert isinstance(balancer.invokers, list)
        assert balancer.invokers is not invokers


class TestRegistry:
    def test_all_registered(self):
        assert set(balancer_names()) == {
            "round-robin",
            "least-loaded",
            "hash-overflow",
            "power-of-d",
            "locality",
        }
        assert balancer_names() == sorted(spec.name for spec in BALANCERS)

    def test_declared_params_match_constructor(self):
        # The catalog declares each balancer's parameters by hand; they
        # must be exactly the constructor's keywords beyond the invokers,
        # with the same defaults (a run-time default is filled in later).
        for spec in BALANCERS:
            parameters = dict(inspect.signature(spec.builder).parameters)
            parameters.pop("invokers")
            assert spec.param_names() == list(parameters), spec.name
            for param in spec.params:
                if param.default is not RUNTIME:
                    assert param.default == parameters[param.name].default, spec.name
                assert param.doc, spec.name
            assert spec.builder.name == spec.name

    def test_make_balancer(self):
        balancer = make_balancer("round-robin", [FakeInvoker()])
        assert isinstance(balancer, RoundRobinBalancer)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="available"):
            make_balancer("magic", [FakeInvoker()])

    def test_empty_invokers_rejected(self):
        with pytest.raises(ValueError):
            RoundRobinBalancer([])

    def test_seed_forwarded_only_where_declared(self):
        sampled = make_balancer("power-of-d", [FakeInvoker(), FakeInvoker()], seed=9)
        twin = PowerOfDChoicesBalancer([FakeInvoker(), FakeInvoker()], seed=9)
        assert [sampled.pick(req(rid=i)) for i in range(10)] == [
            twin.pick(req(rid=i)) for i in range(10)
        ]
        # least-loaded declares no seed: the kwarg must not reach it.
        assert isinstance(
            make_balancer("least-loaded", [FakeInvoker()], seed=9), LeastLoadedBalancer
        )

    def test_kwargs_seed_wins_over_injected_seed(self):
        # make_balancer ignores the injected seed when kwargs carry one
        # (the runner pops an explicit balancer param into `seed`).
        explicit = make_balancer(
            "power-of-d", [FakeInvoker() for _ in range(6)], seed=9, d=2
        )
        via_kwargs = PowerOfDChoicesBalancer(
            [FakeInvoker() for _ in range(6)], d=2, seed=9
        )
        assert [explicit.pick(req(rid=i)) for i in range(20)] == [
            via_kwargs.pick(req(rid=i)) for i in range(20)
        ]


class TestValidateBalancerParams:
    def test_unknown_balancer(self):
        with pytest.raises(ValueError, match="available"):
            validate_balancer_params("magic")

    def test_unknown_param(self):
        with pytest.raises(ValueError, match="valid parameters"):
            validate_balancer_params("power-of-d", {"dd": 3})

    def test_bad_value_fails_at_validation_time(self):
        with pytest.raises(ValueError):
            validate_balancer_params("hash-overflow", {"capacity_factor": 0.0})

    def test_merges_declared_defaults(self):
        assert validate_balancer_params("power-of-d", {}) == {"d": 2}
        assert validate_balancer_params("power-of-d", {"d": 4}) == {"d": 4}
        assert validate_balancer_params("hash-overflow") == {"capacity_factor": 2.0}

    def test_seed_excluded_from_defaults_but_accepted_explicitly(self):
        assert "seed" not in validate_balancer_params("power-of-d")
        assert validate_balancer_params("power-of-d", {"seed": 5}) == {
            "d": 2,
            "seed": 5,
        }
