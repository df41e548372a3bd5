"""Tests for the caches' LRU replacement (Table III uses LRU at every level)."""

from hypothesis import given, strategies as st

from repro.common.config import CacheConfig
from repro.memory.cache import Cache


def one_set(associativity: int) -> Cache:
    return Cache(CacheConfig("T", associativity * 64, associativity, 1))


class TestLRU:
    def test_victim_is_least_recently_used(self):
        cache = one_set(4)
        for block in range(4):
            cache.fill(block)
        cache.lookup(0)
        cache.lookup(1)
        cache.lookup(2)
        assert cache.fill(4).block_addr == 3

    def test_fill_makes_way_most_recent(self):
        cache = one_set(2)
        cache.fill(0)
        cache.fill(1)
        assert cache.fill(2).block_addr == 0
        assert cache.fill(3).block_addr == 1

    def test_hit_refreshes_recency(self):
        cache = one_set(3)
        cache.fill(0)
        cache.fill(1)
        cache.fill(2)
        cache.lookup(0)
        assert cache.fill(3).block_addr == 1


@given(
    st.integers(min_value=1, max_value=8),
    st.lists(st.integers(min_value=0, max_value=7), max_size=100),
)
def test_lru_victim_always_valid_way(associativity, hits):
    cache = one_set(associativity)
    for block in range(associativity):
        cache.fill(block)
    for hit in hits:
        assert cache.lookup(hit % associativity)
    eviction = cache.fill(associativity)
    assert 0 <= eviction.block_addr < associativity


@given(st.integers(min_value=2, max_value=8), st.data())
def test_lru_recently_touched_way_is_never_victim(associativity, data):
    cache = one_set(associativity)
    for block in range(associativity):
        cache.fill(block)
    touched = data.draw(st.integers(min_value=0, max_value=associativity - 1))
    cache.lookup(touched)
    assert cache.fill(associativity).block_addr != touched
