"""Tests for container lifecycle and the warm/prewarm pools."""

import random

import pytest

from repro.node.container import ContainerState
from repro.node.docker import DockerDaemon
from repro.node.memory import MemoryPool
from repro.node.pool import ContainerPool


def make_pool(env, config, memory_mb=None):
    memory = MemoryPool(memory_mb or config.memory_mb)
    daemon = DockerDaemon(env, config)
    return ContainerPool(env, config, daemon, memory), memory


class TestSeeding:
    def test_seed_warm_creates_paused_containers(self, env, config, catalog):
        pool, memory = make_pool(env, config)
        created = pool.seed_warm(catalog["graph-bfs"], 3)
        assert created == 3
        assert pool.warm_count(catalog["graph-bfs"]) == 3
        assert all(c.state is ContainerState.PAUSED for c in pool.containers)
        assert memory.used_mb == 3 * catalog["graph-bfs"].memory_mb

    def test_seed_warm_respects_memory(self, env, config, catalog):
        pool, memory = make_pool(env, config, memory_mb=300)
        created = pool.seed_warm(catalog["dna-visualisation"], 5)  # 512 MiB each
        assert created == 0

    def test_seeding_evicts_lru_when_full(self, env, config, catalog):
        pool, memory = make_pool(env, config, memory_mb=1024)
        pool.seed_warm(catalog["graph-bfs"], 8)  # 8 * 128 = 1024 -> full
        pool.seed_warm(catalog["sleep"], 2)  # evicts 2 bfs seeds
        assert pool.warm_count(catalog["sleep"]) == 2
        assert pool.warm_count(catalog["graph-bfs"]) == 6
        assert pool.evictions == 2

    def test_bootstrap_prewarm(self, env, config, catalog):
        pool, memory = make_pool(env, config)
        pool.bootstrap_prewarm(3)
        assert len(pool.prewarm_shells) == 3
        assert memory.used_mb == 3 * config.prewarm_memory_mb


class TestAcquire:
    def test_cold_when_empty(self, env, config, catalog):
        pool, _ = make_pool(env, config)
        plan = pool.acquire(catalog["graph-bfs"], allow_prewarm=False)
        assert plan.kind == "cold"
        assert plan.container.busy
        assert pool.cold_starts == 1

    def test_warm_preferred_over_cold(self, env, config, catalog):
        pool, _ = make_pool(env, config)
        pool.seed_warm(catalog["graph-bfs"], 1)
        plan = pool.acquire(catalog["graph-bfs"])
        assert plan.kind == "warm"
        assert pool.cold_starts == 0

    def test_hot_preferred_over_paused(self, env, config, catalog):
        pool, _ = make_pool(env, config)
        pool.seed_warm(catalog["graph-bfs"], 2)
        plan1 = pool.acquire(catalog["graph-bfs"])
        pool.release(plan1.container)  # now HOT (pause grace)
        plan2 = pool.acquire(catalog["graph-bfs"])
        assert plan2.kind == "hot"
        assert plan2.container is plan1.container

    def test_prewarm_used_before_cold(self, env, config, catalog):
        pool, _ = make_pool(env, config)
        pool.bootstrap_prewarm(1)
        plan = pool.acquire(catalog["sleep"])
        assert plan.kind == "prewarm"
        assert plan.container.function is catalog["sleep"]
        assert pool.prewarm_starts == 1
        assert not pool.prewarm_shells

    def test_prewarm_memory_delta_reserved(self, env, config, catalog):
        pool, memory = make_pool(env, config)
        pool.bootstrap_prewarm(1)  # 256 MiB shell
        before = memory.used_mb
        pool.acquire(catalog["dna-visualisation"])  # 512 MiB function
        assert memory.used_mb == before + (512 - 256)

    def test_busy_container_not_reused(self, env, config, catalog):
        pool, _ = make_pool(env, config)
        pool.seed_warm(catalog["graph-bfs"], 1)
        pool.acquire(catalog["graph-bfs"])
        plan2 = pool.acquire(catalog["graph-bfs"], allow_prewarm=False)
        assert plan2.kind == "cold"

    def test_acquire_fails_when_memory_exhausted_by_busy(self, env, config, catalog):
        pool, _ = make_pool(env, config, memory_mb=256)
        plan = pool.acquire(catalog["sleep"], allow_prewarm=False)  # 128 MiB busy
        assert plan is not None
        plan2 = pool.acquire(catalog["dna-visualisation"], allow_prewarm=False)
        assert plan2 is None  # 512 MiB needed, only 128 free, nothing evictable

    def test_wrong_function_warm_not_matched(self, env, config, catalog):
        pool, _ = make_pool(env, config)
        pool.seed_warm(catalog["sleep"], 1)
        plan = pool.acquire(catalog["graph-bfs"], allow_prewarm=False)
        assert plan.kind == "cold"


class TestEviction:
    def test_evict_frees_memory_and_counts(self, env, config, catalog):
        pool, memory = make_pool(env, config)
        pool.seed_warm(catalog["sleep"], 1)
        container = pool.containers[0]
        pool.evict(container)
        assert memory.used_mb == 0
        assert container.state is ContainerState.DEAD
        assert pool.evictions == 1
        env.run()  # let the daemon remove op finish
        assert pool.daemon.op_counts["remove"] == 1

    def test_cannot_evict_busy(self, env, config, catalog):
        pool, _ = make_pool(env, config)
        plan = pool.acquire(catalog["sleep"], allow_prewarm=False)
        with pytest.raises(ValueError):
            pool.evict(plan.container)

    def test_lru_ties_evict_in_container_order(self, env, config, catalog):
        pool, _ = make_pool(env, config, memory_mb=256)
        first = pool.acquire(catalog["sleep"], allow_prewarm=False).container
        second = pool.acquire(catalog["graph-bfs"], allow_prewarm=False).container
        assert pool.containers == [first, second]
        # One instant, released in the reverse of their containers order.
        pool.release(second)
        pool.release(first)
        assert first.last_used == second.last_used
        assert pool.idle_warm_containers() == [first, second]
        # The pool is full (2 x 128 of 256 MiB): the tie's head goes first.
        assert pool._ensure_memory(128)
        assert first.state is ContainerState.DEAD
        assert pool.containers == [second]
        assert pool._ensure_memory(256)
        assert second.state is ContainerState.DEAD
        assert pool.evictions == 2


def _scan(pool):
    """The whole-node eviction scan the idle index replaced (reference)."""
    return sorted([c for c in pool.containers if c.is_warm], key=lambda c: c.last_used)


class TestIdleIndex:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_index_matches_scan_under_churn(self, env, config, catalog, seed):
        rng = random.Random(seed)
        pool, _ = make_pool(env, config, memory_mb=2048)
        pool.bootstrap_prewarm(3)
        specs = [
            catalog[name]
            for name in ("sleep", "graph-bfs", "compression", "uploader", "dna-visualisation")
        ]
        pool.seed_warm(specs[0], 2)
        busy = []
        seen = {"reordered": 0, "paused": 0, "explicit_evictions": 0}

        def check():
            idle = pool.idle_warm_containers()
            assert idle == _scan(pool)
            # Tied releases out of containers order: release order alone
            # would put them wrong, so the stamp decides.
            seen["reordered"] += list(pool._idle) != idle
            seen["paused"] += any(c.state is ContainerState.PAUSED for c in idle)

        check()
        for _ in range(400):
            roll = rng.random()
            if roll < 0.4:
                before = _scan(pool)
                plan = pool.acquire(rng.choice(specs), allow_prewarm=rng.random() < 0.5)
                if plan is not None:
                    busy.append(plan.container)
                # Placement evicts a least-recently-used prefix.
                evicted = [c for c in before if c.state is ContainerState.DEAD]
                assert evicted == before[: len(evicted)]
            elif roll < 0.55 and busy:
                pool.release(busy.pop(rng.randrange(len(busy))))
            elif roll < 0.65 and len(busy) >= 2:
                group = rng.sample(busy, rng.randint(2, len(busy)))
                group.sort(key=pool.containers.index, reverse=True)
                for container in group:  # one instant, reverse containers order
                    busy.remove(container)
                    pool.release(container)
            elif roll < 0.68:
                idle = _scan(pool)
                if idle:
                    pool.evict(rng.choice(idle))
                    seen["explicit_evictions"] += 1
            else:
                env.run(until=env.now + rng.choice([0.1, 0.3, 0.6, 1.0]))
            check()
        # The churn reached every path the index must track.
        assert pool.prewarm_starts and pool.cold_starts and pool.warm_hits and pool.hot_hits
        assert pool.evictions > seen["explicit_evictions"] > 0
        assert seen["reordered"] and seen["paused"]


class TestPauseLifecycle:
    def test_hot_container_pauses_after_grace(self, env, config, catalog):
        pool, _ = make_pool(env, config)
        pool.seed_warm(catalog["graph-bfs"], 1)
        plan = pool.acquire(catalog["graph-bfs"])
        pool.release(plan.container)
        assert plan.container.state is ContainerState.HOT
        env.run()  # grace + pause op
        assert plan.container.state is ContainerState.PAUSED

    def test_reuse_within_grace_cancels_pause(self, env, config, catalog):
        pool, _ = make_pool(env, config)
        pool.seed_warm(catalog["graph-bfs"], 1)

        def scenario(env):
            plan = pool.acquire(catalog["graph-bfs"])
            pool.release(plan.container)
            yield env.timeout(config.pause_grace_s / 2)
            plan2 = pool.acquire(catalog["graph-bfs"])
            assert plan2.kind == "hot"
            yield env.timeout(10.0)  # long past original grace
            assert plan2.container.busy

        env.process(scenario(env))
        env.run()

    def test_calls_served_counter(self, env, config, catalog):
        pool, _ = make_pool(env, config)
        pool.seed_warm(catalog["graph-bfs"], 1)
        for _ in range(3):
            plan = pool.acquire(catalog["graph-bfs"])
            pool.release(plan.container)
        assert plan.container.calls_served == 3
