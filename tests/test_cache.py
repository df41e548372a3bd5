"""Tests for the set-associative cache model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.config import CacheConfig
from repro.memory.cache import Cache


def tiny_cache(sets: int = 4, ways: int = 2) -> Cache:
    config = CacheConfig("T", sets * ways * 64, ways, 1)
    return Cache(config)


class TestLookupAndFill:
    def test_miss_then_hit(self):
        cache = tiny_cache()
        assert cache.lookup(0x100) is False
        cache.fill(0x100)
        assert cache.lookup(0x100) is True
        assert cache.stats.demand_hits == 1
        assert cache.stats.demand_misses == 1

    def test_resident_probe_does_not_count_access(self):
        cache = tiny_cache()
        cache.fill(0x5)
        assert cache.resident(0x5)
        assert cache.stats.demand_accesses == 0

    def test_eviction_on_conflict(self):
        cache = tiny_cache(sets=1, ways=2)
        cache.fill(0)
        cache.fill(1)
        eviction = cache.fill(2)
        assert eviction is not None
        assert cache.stats.evictions == 1
        assert not cache.resident(eviction.block_addr)

    def test_lru_eviction_order(self):
        cache = tiny_cache(sets=1, ways=2)
        cache.fill(0)
        cache.fill(1)
        cache.lookup(0)  # make 0 most recently used
        eviction = cache.fill(2)
        assert eviction.block_addr == 1

    def test_refill_existing_block_no_eviction(self):
        cache = tiny_cache()
        cache.fill(0x10)
        assert cache.fill(0x10) is None


class TestPrefetchTracking:
    def test_prefetch_fill_counts(self):
        cache = tiny_cache()
        cache.fill(0x20, prefetched=True)
        assert cache.stats.prefetch_fills == 1
        assert cache.unused_prefetched_blocks() == 1

    def test_demand_hit_marks_prefetch_useful(self):
        cache = tiny_cache()
        cache.fill(0x20, prefetched=True)
        cache.lookup(0x20)
        assert cache.stats.prefetch_hits == 1
        assert cache.unused_prefetched_blocks() == 0

    def test_useless_prefetch_eviction_counted(self):
        cache = tiny_cache(sets=1, ways=1)
        cache.fill(0x1, prefetched=True)
        cache.fill(0x2)
        assert cache.stats.useless_prefetch_evictions == 1

    def test_useful_prefetch_eviction_counted(self):
        cache = tiny_cache(sets=1, ways=1)
        cache.fill(0x1, prefetched=True)
        cache.lookup(0x1)
        cache.fill(0x2)
        assert cache.stats.useful_prefetch_evictions == 1

    def test_eviction_listener_invoked(self):
        seen = []
        config = CacheConfig("T", 64, 1, 1)
        cache = Cache(config, eviction_listener=seen.append)
        cache.fill(0x1, prefetched=True)
        cache.lookup(0x1)
        victim = cache.fill(0x2)
        # A prefetched victim goes to the listener itself, as fill returns it.
        assert seen == [victim]
        assert victim.block_addr == 0x1
        assert victim.prefetched and victim.prefetch_useful
        # A demand-filled victim is counted but not passed on.
        demand_victim = cache.fill(0x3)
        assert demand_victim.block_addr == 0x2
        assert not demand_victim.prefetched
        assert seen == [victim]
        assert cache.stats.evictions == 2


class TestDirtyAndInvalidate:
    def test_write_sets_dirty_and_writeback_on_eviction(self):
        cache = tiny_cache(sets=1, ways=1)
        cache.fill(0x1)
        cache.lookup(0x1, is_write=True)
        cache.fill(0x2)
        assert cache.stats.writebacks == 1

    def test_invalidate(self):
        cache = tiny_cache()
        cache.fill(0x9)
        assert cache.invalidate(0x9) is True
        assert not cache.resident(0x9)
        assert cache.invalidate(0x9) is False


class TestReadyCycle:
    def test_ready_cycle_recorded(self):
        cache = tiny_cache()
        cache.fill(0x30, cycle=10, ready_cycle=200)
        assert cache.get_block(0x30).ready_cycle == 200

    def test_second_fill_keeps_earliest_ready(self):
        cache = tiny_cache()
        cache.fill(0x30, cycle=10, ready_cycle=200)
        cache.fill(0x30, cycle=20, ready_cycle=100)
        assert cache.get_block(0x30).ready_cycle == 100


class TestStatsAndOccupancy:
    def test_occupancy_fraction(self):
        cache = tiny_cache(sets=2, ways=2)
        cache.fill(0)
        cache.fill(1)
        assert cache.occupancy() == pytest.approx(0.5)

    def test_reset_stats_keeps_contents(self):
        cache = tiny_cache()
        cache.fill(0x7)
        cache.lookup(0x7)
        cache.reset_stats()
        assert cache.stats.demand_accesses == 0
        assert cache.resident(0x7)

    def test_hit_rate(self):
        cache = tiny_cache()
        cache.fill(0x1)
        cache.lookup(0x1)
        cache.lookup(0x2)
        assert cache.stats.demand_hit_rate == pytest.approx(0.5)


class TestVictimResolution:
    """A full set evicts its least recently touched block."""

    def test_eviction_removes_policy_victim(self):
        cache = tiny_cache(sets=1, ways=4)
        for addr in range(4):
            cache.fill(addr)
        cache.lookup(0)
        cache.lookup(2)          # order (LRU -> MRU): 1, 3, 0, 2
        eviction = cache.fill(4)
        assert eviction.block_addr == 1
        assert not cache.resident(1)
        assert sorted(cache.resident_blocks()) == [0, 2, 3, 4]

    def test_addr_in_way_tracks_fills_and_evictions(self):
        cache = tiny_cache(sets=1, ways=2)
        cache.fill(10)
        cache.fill(20)
        assert set(cache.resident_blocks()) == {10, 20}
        cache.invalidate(10)
        assert cache.resident_blocks() == [20]
        assert cache.fill(30) is None          # the freed way is reused
        assert set(cache.resident_blocks()) == {20, 30}
        assert cache.fill(40).block_addr == 20
        assert set(cache.resident_blocks()) == {30, 40}

    def test_lru_sequence_eviction_order(self):
        cache = tiny_cache(sets=1, ways=3)
        cache.fill(1)
        cache.fill(2)
        cache.fill(3)
        cache.lookup(1)          # order (LRU -> MRU): 2, 3, 1
        assert cache.fill(4).block_addr == 2
        cache.lookup(3)          # order: 1, 4, 3
        assert cache.fill(5).block_addr == 1


_SETS = 2
# Six candidate blocks per set against at most four ways: hits, full-set
# evictions and re-fills of evicted blocks all stay frequent.  Invalidates
# are drawn less often so sets usually fill up.
_OPS = st.lists(
    st.tuples(
        st.sampled_from(["lookup", "lookup", "fill", "fill", "invalidate"]),
        st.integers(min_value=0, max_value=2 * 6 - 1),
    ),
    min_size=40,
    max_size=200,
)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=4), _OPS)
def test_matches_list_lru_model(ways, ops):
    """Drive the cache against a plain per-set list ordered LRU -> MRU.

    Every full-set fill must evict the model's LRU block -- a resident one,
    and never the set's most recently touched block when the set has more
    than one way -- and the resident blocks must match the model after
    every operation.
    """
    cache = tiny_cache(sets=_SETS, ways=ways)
    model: list[list[int]] = [[] for _ in range(_SETS)]
    for op, block in ops:
        order = model[block % _SETS]
        if op == "lookup":
            assert cache.lookup(block) is (block in order)
            if block in order:
                order.remove(block)
                order.append(block)
        elif op == "fill":
            eviction = cache.fill(block)
            if block in order or len(order) < ways:
                assert eviction is None
            else:
                assert eviction is not None
                assert eviction.block_addr == order[0]
                if ways > 1:
                    assert eviction.block_addr != order[-1]
                order.pop(0)
            if block not in order:
                order.append(block)
        else:
            assert cache.invalidate(block) is (block in order)
            if block in order:
                order.remove(block)
        resident = cache.resident_blocks()
        assert sorted(resident) == sorted(b for o in model for b in o)
        for set_idx in range(_SETS):
            in_set = [b for b in resident if b % _SETS == set_idx]
            assert len(in_set) <= ways


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.lists(st.integers(min_value=0, max_value=31), min_size=1, max_size=200),
)
def test_reverse_map_matches_set_contents(ways, block_stream):
    """Per-address metadata lookups agree with each set's contents."""
    cache = tiny_cache(sets=2, ways=ways)
    for block in block_stream:
        if not cache.lookup(block):
            cache.fill(block)
        resident = cache.resident_blocks()
        for set_idx in range(2):
            in_set = {b for b in resident if cache.set_index(b) == set_idx}
            mapped = {
                b for b in range(32)
                if b % 2 == set_idx and cache.get_block(b) is not None
            }
            assert mapped == in_set
            assert len(in_set) <= ways
        for b in resident:
            assert cache.resident(b)
            assert cache.get_block(b).block_addr == b


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=300))
def test_cache_never_exceeds_capacity(block_stream):
    cache = tiny_cache(sets=2, ways=2)
    for block in block_stream:
        if not cache.lookup(block):
            cache.fill(block)
    assert len(cache.resident_blocks()) <= 4
    assert cache.stats.demand_accesses == len(block_stream)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=31), min_size=1, max_size=200))
def test_immediate_rereference_always_hits(block_stream):
    cache = tiny_cache(sets=4, ways=2)
    for block in block_stream:
        if not cache.lookup(block):
            cache.fill(block)
        assert cache.lookup(block) is True
