"""Set-associative cache model with prefetch-awareness.

Each cache level of the hierarchy (L1D, L2C, LLC) is an instance of
:class:`Cache`.  Besides the usual lookup/fill/evict behaviour the model keeps
per-block prefetch metadata so that the experiments can reproduce the paper's
prefetch-accuracy analysis (Figures 5, 6 and 12): every block filled by a
prefetcher remembers which prefetcher brought it and from which hierarchy
level it was served, and the cache reports whether the block was used by a
demand access before being evicted.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Optional

from repro.common.config import CacheConfig


@dataclass(slots=True)
class CacheBlock:
    """Metadata for one resident cache block.

    ``ready_cycle`` is the cycle at which the fill actually arrives; a demand
    access that hits the block earlier must wait for the remainder (this is
    how the model charges the latency of in-flight prefetches instead of
    making prefetched data magically available at issue time).
    """

    block_addr: int
    valid: bool = True
    dirty: bool = False
    prefetched: bool = False
    prefetch_useful: bool = False
    prefetch_source_level: Optional[int] = None
    fill_cycle: int = 0
    ready_cycle: int = 0


@dataclass
class CacheStats:
    """Counters exported by each cache level."""

    demand_accesses: int = 0
    demand_hits: int = 0
    demand_misses: int = 0
    prefetch_fills: int = 0
    demand_fills: int = 0
    evictions: int = 0
    useful_prefetch_evictions: int = 0
    useless_prefetch_evictions: int = 0
    prefetch_hits: int = 0
    writebacks: int = 0

    @property
    def demand_hit_rate(self) -> float:
        """Fraction of demand accesses that hit."""
        if self.demand_accesses == 0:
            return 0.0
        return self.demand_hits / self.demand_accesses

    @property
    def demand_miss_rate(self) -> float:
        """Fraction of demand accesses that miss."""
        if self.demand_accesses == 0:
            return 0.0
        return self.demand_misses / self.demand_accesses


class Cache:
    """A set-associative, write-back cache with LRU replacement (Table III).

    Each set is one :class:`~collections.OrderedDict` mapping block address
    to :class:`CacheBlock` in recency order, least recently used first: a
    demand hit moves the block to the end, a fill appends it, and a full
    set evicts its first key.  A fill of an already-resident block leaves
    the order untouched.

    Addresses handled by the cache are *block addresses* (byte address
    shifted right by 6); callers are responsible for the conversion, which
    keeps the hot path cheap.

    ``eviction_listener``, when given, is called with every *prefetched*
    victim :class:`CacheBlock` after it has left its set (its fields are
    final: nothing touches an evicted block again).  Demand-filled victims
    are only counted: the listeners resolve prefetch bookkeeping, which a
    demand block never has.
    """

    def __init__(
        self,
        config: CacheConfig,
        eviction_listener: Optional[Callable[[CacheBlock], None]] = None,
    ) -> None:
        self.config = config
        self.name = config.name
        self.num_sets = config.num_sets
        self.associativity = config.associativity
        self.latency = config.latency
        self._sets: list[OrderedDict[int, CacheBlock]] = [
            OrderedDict() for _ in range(self.num_sets)
        ]
        self.stats = CacheStats()
        self._eviction_listener = eviction_listener

    # ------------------------------------------------------------------
    # Indexing helpers
    # ------------------------------------------------------------------
    def set_index(self, block_addr: int) -> int:
        """Return the set index for a block address.

        The hot accessors (lookup/fill/resident/get_block) inline this
        computation; keep them in sync if the indexing scheme ever changes.
        """
        return block_addr % self.num_sets

    def resident(self, block_addr: int) -> bool:
        """Non-intrusive residency probe (does not update replacement state).

        Used by the Hermes prediction-breakdown analysis (Figure 4) to find
        where a block lives without perturbing the simulation.
        """
        return block_addr in self._sets[block_addr % self.num_sets]

    def get_block(self, block_addr: int) -> Optional[CacheBlock]:
        """Return the resident block metadata, if present (non-intrusive)."""
        return self._sets[block_addr % self.num_sets].get(block_addr)

    # ------------------------------------------------------------------
    # Access path
    # ------------------------------------------------------------------
    def lookup(self, block_addr: int, is_write: bool = False) -> bool:
        """Perform a demand lookup.

        Returns True on hit.  On a hit to a not-yet-used prefetched block the
        block is marked useful and the ``prefetch_hits`` counter incremented.
        """
        set_idx = block_addr % self.num_sets
        stats = self.stats
        stats.demand_accesses += 1
        block = self._sets[set_idx].get(block_addr)
        if block is None:
            stats.demand_misses += 1
            return False
        stats.demand_hits += 1
        if block.prefetched and not block.prefetch_useful:
            block.prefetch_useful = True
            stats.prefetch_hits += 1
        if is_write:
            block.dirty = True
        self._sets[set_idx].move_to_end(block_addr)
        return True

    def probe_prefetch(self, block_addr: int) -> bool:
        """Check whether a prefetch target is already resident.

        Unlike :meth:`lookup`, this does not count as a demand access and
        does not update replacement state.
        """
        return self.resident(block_addr)

    def fill(
        self,
        block_addr: int,
        cycle: int = 0,
        prefetched: bool = False,
        prefetch_source_level: Optional[int] = None,
        dirty: bool = False,
        ready_cycle: Optional[int] = None,
    ) -> Optional[CacheBlock]:
        """Install a block, evicting a victim if the set is full.

        ``ready_cycle`` is when the data actually arrives (defaults to
        ``cycle``, i.e. immediately).  Returns the evicted victim block (or
        None if the set had room or the block was already resident).
        """
        if ready_cycle is None:
            ready_cycle = cycle
        set_idx = block_addr % self.num_sets
        cache_set = self._sets[set_idx]
        existing = cache_set.get(block_addr)
        if existing is not None:
            # Fill races with an earlier fill of the same block: keep the
            # stronger attribution (a demand fill overrides prefetched).
            if not prefetched:
                existing.prefetched = False
            if dirty:
                existing.dirty = True
            if ready_cycle < existing.ready_cycle:
                existing.ready_cycle = ready_cycle
            return None

        victim: Optional[CacheBlock] = None
        if len(cache_set) >= self.associativity:
            victim = cache_set.popitem(last=False)[1]
            self._evicted(victim)

        block = CacheBlock(
            block_addr=block_addr,
            prefetched=prefetched,
            prefetch_source_level=prefetch_source_level,
            dirty=dirty,
            fill_cycle=cycle,
            ready_cycle=ready_cycle,
        )
        cache_set[block_addr] = block
        if prefetched:
            self.stats.prefetch_fills += 1
        else:
            self.stats.demand_fills += 1
        return victim

    def invalidate(self, block_addr: int) -> bool:
        """Remove a block (used for coherence-like invalidations in tests)."""
        block = self._sets[self.set_index(block_addr)].pop(block_addr, None)
        if block is None:
            return False
        self._evicted(block)
        return True

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _evicted(self, block: CacheBlock) -> None:
        """Account for ``block`` having left its set; notify the listener."""
        self.stats.evictions += 1
        if block.dirty:
            self.stats.writebacks += 1
        if block.prefetched:
            if block.prefetch_useful:
                self.stats.useful_prefetch_evictions += 1
            else:
                self.stats.useless_prefetch_evictions += 1
            if self._eviction_listener is not None:
                self._eviction_listener(block)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def reset_stats(self) -> None:
        """Zero the counters without touching cache contents (post warm-up)."""
        self.stats = CacheStats()

    def occupancy(self) -> float:
        """Fraction of cache capacity currently valid."""
        resident_blocks = sum(len(s) for s in self._sets)
        return resident_blocks / (self.num_sets * self.associativity)

    def resident_blocks(self) -> list[int]:
        """Return all resident block addresses (for inspection and tests)."""
        blocks: list[int] = []
        for cache_set in self._sets:
            blocks.extend(cache_set.keys())
        return blocks

    def unused_prefetched_blocks(self) -> int:
        """Count resident prefetched blocks never touched by a demand access."""
        count = 0
        for cache_set in self._sets:
            for block in cache_set.values():
                if block.prefetched and not block.prefetch_useful:
                    count += 1
        return count
