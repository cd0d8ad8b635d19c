"""Unit tests for the sequence cache and the cuboid repository."""

import pytest

from repro import SCuboid, SequenceCache
from repro.core.repository import CuboidRepository, estimate_cuboid_bytes
from tests.conftest import figure8_spec


def make_cuboid(n_cells=3):
    spec = figure8_spec(("X", "Y"))
    cells = {
        ((), (f"a{i}", f"b{i}")): {"COUNT(*)": i} for i in range(n_cells)
    }
    return SCuboid(spec, cells)


class TestSequenceCache:
    def test_put_get(self):
        cache = SequenceCache(2)
        cache.put("k1", "groups1")  # type: ignore[arg-type]
        assert cache.get("k1") == "groups1"
        assert cache.hits == 1

    def test_miss_counts(self):
        cache = SequenceCache(2)
        assert cache.get("nope") is None
        assert cache.misses == 1

    def test_lru_eviction(self):
        cache = SequenceCache(2)
        cache.put("a", 1)  # type: ignore[arg-type]
        cache.put("b", 2)  # type: ignore[arg-type]
        cache.get("a")  # refresh a
        cache.put("c", 3)  # type: ignore[arg-type]
        assert "b" not in cache
        assert "a" in cache and "c" in cache

    def test_invalidate_and_clear(self):
        cache = SequenceCache(2)
        cache.put("a", 1)  # type: ignore[arg-type]
        assert cache.invalidate("a")
        assert not cache.invalidate("a")
        cache.put("b", 2)  # type: ignore[arg-type]
        cache.clear()
        assert len(cache) == 0

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            SequenceCache(0)


class TestSequenceCacheOrdering:
    """Eviction order under interleaved get/put/invalidate traffic."""

    def test_put_existing_refreshes_recency(self):
        cache = SequenceCache(2)
        cache.put("a", 1)  # type: ignore[arg-type]
        cache.put("b", 2)  # type: ignore[arg-type]
        cache.put("a", 10)  # type: ignore[arg-type]  # rewrite refreshes a
        cache.put("c", 3)  # type: ignore[arg-type]
        assert "b" not in cache
        assert cache.get("a") == 10

    def test_invalidate_does_not_disturb_order(self):
        cache = SequenceCache(3)
        for key in ("a", "b", "c"):
            cache.put(key, key)  # type: ignore[arg-type]
        cache.invalidate("b")
        cache.put("d", "d")  # type: ignore[arg-type]  # fills the freed slot
        assert set(cache.keys()) == {"a", "c", "d"}
        cache.put("e", "e")  # type: ignore[arg-type]  # now `a` is coldest
        assert "a" not in cache
        assert set(cache.keys()) == {"c", "d", "e"}

    def test_eviction_order_after_mixed_traffic(self):
        cache = SequenceCache(3)
        for key in ("a", "b", "c"):
            cache.put(key, key)  # type: ignore[arg-type]
        cache.get("a")  # order coldest-first is now: b, c, a
        cache.get("b")  # order: c, a, b
        cache.put("d", "d")  # type: ignore[arg-type]
        assert "c" not in cache
        cache.put("e", "e")  # type: ignore[arg-type]
        assert "a" not in cache
        assert list(cache.keys()) == ["b", "d", "e"]

    def test_failed_get_does_not_refresh(self):
        cache = SequenceCache(2)
        cache.put("a", 1)  # type: ignore[arg-type]
        cache.put("b", 2)  # type: ignore[arg-type]
        cache.get("missing")  # must not touch the LRU order
        cache.put("c", 3)  # type: ignore[arg-type]
        assert "a" not in cache and "b" in cache

    def test_stats_and_hit_ratio(self):
        cache = SequenceCache(2)
        cache.put("a", 1)  # type: ignore[arg-type]
        cache.get("a")
        cache.get("a")
        cache.get("missing")
        assert cache.hit_ratio() == pytest.approx(2 / 3)
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["capacity"] == 2
        assert stats["hits"] == 2 and stats["misses"] == 1

    def test_hit_ratio_with_no_traffic(self):
        assert SequenceCache(2).hit_ratio() == 0.0

    def test_evictions_counted(self):
        cache = SequenceCache(2)
        cache.put("a", 1)  # type: ignore[arg-type]
        cache.put("b", 2)  # type: ignore[arg-type]
        assert cache.evictions == 0
        cache.put("c", 3)  # type: ignore[arg-type]
        cache.put("d", 4)  # type: ignore[arg-type]
        assert cache.evictions == 2
        assert cache.stats()["evictions"] == 2
        assert "evictions=2" in repr(cache)

    def test_invalidate_and_clear_are_not_evictions(self):
        cache = SequenceCache(2)
        cache.put("a", 1)  # type: ignore[arg-type]
        cache.invalidate("a")
        cache.put("b", 2)  # type: ignore[arg-type]
        cache.clear()
        assert cache.evictions == 0


class TestCuboidRepository:
    def test_put_get_hit_stats(self):
        repo = CuboidRepository(capacity=4)
        cuboid = make_cuboid()
        repo.put("k", cuboid)
        assert repo.get("k") is cuboid
        assert repo.hits == 1 and repo.misses == 0
        assert repo.get("other") is None
        assert repo.misses == 1

    def test_lru_eviction_by_count(self):
        repo = CuboidRepository(capacity=2)
        repo.put("a", make_cuboid())
        repo.put("b", make_cuboid())
        repo.get("a")
        repo.put("c", make_cuboid())
        assert "b" not in repo
        assert "a" in repo

    def test_byte_budget_eviction(self):
        small = estimate_cuboid_bytes(make_cuboid(1))
        repo = CuboidRepository(capacity=100, byte_budget=int(small * 2.5))
        repo.put("a", make_cuboid(1))
        repo.put("b", make_cuboid(1))
        repo.put("c", make_cuboid(1))
        assert len(repo) == 2
        assert repo.bytes_used <= small * 2.5

    def test_replacing_updates_bytes(self):
        repo = CuboidRepository(capacity=4)
        repo.put("a", make_cuboid(1))
        first = repo.bytes_used
        repo.put("a", make_cuboid(10))
        assert repo.bytes_used > first
        assert len(repo) == 1

    def test_invalidate(self):
        repo = CuboidRepository()
        repo.put("a", make_cuboid())
        assert repo.invalidate("a")
        assert repo.bytes_used == 0
        assert not repo.invalidate("a")

    def test_clear(self):
        repo = CuboidRepository()
        repo.put("a", make_cuboid())
        repo.clear()
        assert len(repo) == 0 and repo.bytes_used == 0

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            CuboidRepository(capacity=0)

    def test_estimate_scales_with_cells(self):
        assert estimate_cuboid_bytes(make_cuboid(10)) > estimate_cuboid_bytes(
            make_cuboid(1)
        )

    def test_evictions_counted(self):
        repo = CuboidRepository(capacity=2)
        repo.put("a", make_cuboid())
        repo.put("b", make_cuboid())
        assert repo.evictions == 0
        repo.put("c", make_cuboid())
        assert repo.evictions == 1
        assert "evictions=1" in repr(repo)

    def test_byte_budget_evictions_counted(self):
        small = estimate_cuboid_bytes(make_cuboid(1))
        repo = CuboidRepository(capacity=100, byte_budget=int(small * 2.5))
        for key in ("a", "b", "c", "d"):
            repo.put(key, make_cuboid(1))
        assert repo.evictions == 2

    def test_invalidate_is_not_an_eviction(self):
        repo = CuboidRepository()
        repo.put("a", make_cuboid())
        repo.invalidate("a")
        assert repo.evictions == 0


class TestByteAccountingUnderMutation:
    """put() overwrites must not corrupt the byte ledger (regression).

    The old implementation re-estimated the *current* object on
    overwrite; since cell dicts are mutable and shared, an in-place
    mutation between two puts of the same cuboid made the subtraction
    use the post-mutation estimate — leaving ``bytes_used`` stale
    forever.  Entries now remember their insert-time estimate.
    """

    def test_overwrite_after_inplace_mutation_stays_exact(self):
        repo = CuboidRepository(capacity=4)
        cuboid = make_cuboid(2)
        repo.put("k", cuboid)
        # grow the cached object in place (e.g. a caller mutating cells)
        for i in range(20):
            cuboid.cells[((), (f"x{i}", f"y{i}"))] = {"COUNT(*)": i}
        repo.put("k", cuboid)
        assert repo.bytes_used == estimate_cuboid_bytes(cuboid)

    def test_shrinking_mutation_never_goes_negative(self):
        repo = CuboidRepository(capacity=4)
        cuboid = make_cuboid(10)
        repo.put("k", cuboid)
        cuboid.cells.clear()
        repo.put("k", cuboid)
        assert repo.bytes_used == estimate_cuboid_bytes(cuboid)
        assert repo.bytes_used >= 0

    def test_eviction_uses_insert_time_estimate(self):
        repo = CuboidRepository(capacity=1)
        cuboid = make_cuboid(5)
        repo.put("a", cuboid)
        cuboid.cells.clear()  # mutate after insert
        repo.put("b", make_cuboid(1))  # evicts "a"
        assert repo.bytes_used == estimate_cuboid_bytes(make_cuboid(1))


class TestPayloadAwareEstimate:
    def test_tuple_payloads_cost_more_than_scalars(self):
        spec = figure8_spec(("X", "Y"))
        scalar = SCuboid(spec, {((), ("a", "b")): {"COUNT(*)": 3}})
        paired = SCuboid(spec, {((), ("a", "b")): {"COUNT(*)": (3.0, 2)}})
        assert estimate_cuboid_bytes(paired) > estimate_cuboid_bytes(scalar)

    def test_estimate_tracks_actual_cell_contents(self):
        spec = figure8_spec(("X", "Y"))
        sparse = SCuboid(spec, {((), ("a", "b")): {}})
        dense = SCuboid(
            spec,
            {((), ("a", "b")): {"COUNT(*)": 1, "SUM(amount)": 2.0}},
        )
        assert estimate_cuboid_bytes(dense) > estimate_cuboid_bytes(sparse)


class TestBenefitWeightedEviction:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            CuboidRepository(policy="random")

    def test_cheapest_to_recompute_is_evicted_first(self):
        repo = CuboidRepository(capacity=2, policy="benefit")
        repo.put("cheap", make_cuboid(2), cost_seconds=0.001)
        repo.put("expensive", make_cuboid(2), cost_seconds=5.0)
        repo.get("cheap")  # recency would keep "cheap" under LRU...
        repo.put("new", make_cuboid(2), cost_seconds=0.5)
        # ...but benefit-weighting evicts the cheap-to-recompute entry
        assert "cheap" not in repo
        assert "expensive" in repo and "new" in repo

    def test_reuse_raises_retention_benefit(self):
        repo = CuboidRepository(capacity=2, policy="benefit")
        repo.put("a", make_cuboid(2), cost_seconds=1.0)
        repo.put("b", make_cuboid(2), cost_seconds=1.0)
        for __ in range(5):
            repo.get("a")  # frequently reused
        repo.put("c", make_cuboid(2), cost_seconds=1.0)
        assert "a" in repo
        assert "b" not in repo

    def test_new_entry_survives_its_own_put(self):
        # Regression: un-aged scores made a fresh entry (hits = 0) the
        # minimum of a full repository whose entries had been reused, so
        # every put evicted the cuboid it had just stored.
        repo = CuboidRepository(capacity=3, policy="benefit")
        for key in ("a", "b", "c"):
            repo.put(key, make_cuboid(2), cost_seconds=1.0)
            repo.get(key)
            repo.get(key)
        repo.put("new", make_cuboid(2), cost_seconds=1.0)
        assert "new" in repo
        assert len(repo) == 3
        assert repo.evictions == 1

    def test_reused_entry_ages_out_without_further_hits(self):
        # GreedyDual-Size aging: each victim raises the floor that new
        # entries start from, so an entry hit often long ago is
        # eventually outranked by newer ones.
        repo = CuboidRepository(capacity=2, policy="benefit")
        repo.put("hot", make_cuboid(2), cost_seconds=1.0)
        for __ in range(3):
            repo.get("hot")
        for i in range(6):
            repo.put(f"n{i}", make_cuboid(2), cost_seconds=1.0)
            assert f"n{i}" in repo
        assert "hot" not in repo

    def test_oversized_entry_is_its_own_victim_when_alone(self):
        repo = CuboidRepository(capacity=4, byte_budget=1, policy="benefit")
        repo.put("big", make_cuboid(2), cost_seconds=1.0)
        assert "big" not in repo
        assert repo.bytes_used == 0

    def test_lru_remains_default(self):
        repo = CuboidRepository(capacity=2)
        assert repo.policy == "lru"
        repo.put("a", make_cuboid(), cost_seconds=100.0)
        repo.put("b", make_cuboid())
        repo.put("c", make_cuboid())
        assert "a" not in repo  # high cost is ignored under LRU

    def test_entry_stats_and_items_snapshot(self):
        repo = CuboidRepository(capacity=4)
        cuboid = make_cuboid(3)
        repo.put("k", cuboid, cost_seconds=0.25)
        stats = repo.entry_stats("k")
        assert stats["cost_seconds"] == 0.25
        assert stats["bytes"] == estimate_cuboid_bytes(cuboid)
        assert stats["hits"] == 0
        repo.get("k")
        assert repo.entry_stats("k")["hits"] == 1
        items = repo.items()
        assert items == [("k", cuboid, 0.25)]
        assert repo.entry_stats("missing") is None
