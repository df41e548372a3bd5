"""Batch-vectorized simulator core (opt-in, bit-identical to the scalar path).

The scalar reference path steps one trace record at a time through
:meth:`repro.cpu.core.CoreRunner.run_trace`, calling
:meth:`repro.memory.hierarchy.MemoryHierarchy.demand_access` per memory
record.  That per-record call chain (core -> hierarchy -> predictor ->
feature kernel -> cache -> DRAM) is the dominant simulation cost now that
traces are columnar.

This module restructures the hot path around trace *chunks*:

1. **Vectorized precompute** -- the recognised L1D prefetchers (IPCP,
   Berti) expose ``begin_batch``, which computes with numpy, before any
   state advances, the per-chunk columns of their demand ``(pc, vaddr)``
   stream that do not depend on cache contents or timing.

2. **Fused serialized loop** -- the stateful remainder (core dispatch/ROB
   timing, page translation, the L1D->L2C->LLC->DRAM walk with per-set
   recency updates and speculative DRAM requests) runs in one Python loop
   with the per-record bodies of ``CoreRunner.step_values``,
   ``MemoryHierarchy.demand_access``, ``MemoryHierarchy._walk_below_l1d``,
   ``Cache.lookup`` and ``DRAMModel.access`` inlined.  Pure counters
   accumulate in locals and flush once per chunk.  The off-chip predictor
   is called through its raw ``step`` (FLP/Hermes: feature history,
   :func:`~repro.predictors.perceptron.table_one_kernel` scoring and the
   threshold decision, with no decision object) and trained through
   ``HashedPerceptron.train``.  The prefetch machinery is fused too: the
   loop drives the IPCP/Berti ``step_batch`` kernels, SPP lookahead walks
   (``SPPPrefetcher.step``), PPF and SLP filter consults/training
   (``consult_step``/``train_step``; SLP scores with the same kernel) and
   cache fills (via :func:`_make_inline_fill`, a positional ``Cache.fill``
   clone) without crossing the per-request object boundary: no request,
   decision, feature-context or tracking-record objects per candidate, the
   victim block itself goes to the eviction listener, and the
   pending-prefetch map stores the serving level.  The object
   implementations stay the pinned bit-identical reference; unrecognised
   prefetcher/filter combinations keep the object-call path inside the
   fused loop.

3. **Chunk scheduler with scalar fallback** -- chunks only run fused when
   every component is one the fused loop models exactly (stock
   :class:`MemoryHierarchy`/:class:`Cache`, and a Null / Hermes / FLP
   off-chip predictor).
   Anything else -- custom subclasses, exotic predictors, and the
   per-instruction multi-core interleave -- drops to the pinned scalar
   reference path; :func:`batch_unsupported_reason` names the offending
   component, which is logged once per process and emitted as a
   ``sim.batch.fallback`` observability event on every fallback.

The batch core is selected with ``SystemConfig(sim_core="batch")`` /
``--core batch`` and is bit-identical to the scalar path by construction:
every counter, weight, recency order and cycle is updated in the same order
with the same arithmetic, which the batch-vs-scalar equivalence suite pins.
"""

from __future__ import annotations

import logging
from typing import Optional

from repro.common.types import MemLevel, RequestSource
from repro.core.flp import FirstLevelPerceptron
from repro.core.slp import SecondLevelPerceptron
from repro.cpu.core import CoreRunner
from repro.memory.cache import Cache, CacheBlock
from repro.memory.hierarchy import MemoryHierarchy
from repro.obs import tracer as obs_tracer
from repro.predictors.base import NullOffChipPredictor
from repro.predictors.hermes import HermesPredictor
from repro.prefetchers.berti import BertiPrefetcher
from repro.prefetchers.ipcp import IPCPPrefetcher
from repro.prefetchers.ppf import PerceptronPrefetchFilter
from repro.prefetchers.spp import SPPPrefetcher
from repro.traces.trace import KIND_NON_MEM

_LOG = logging.getLogger("repro.sim.batch")

#: Records per fused chunk.  Large enough to amortize the vectorized
#: precompute, small enough to keep its columns cache-resident.
DEFAULT_CHUNK_RECORDS = 8192


def batch_unsupported_reason(hierarchy: MemoryHierarchy) -> Optional[str]:
    """Why ``hierarchy`` cannot run fused, or None when it can.

    The reason string names the offending component so the fallback event
    and warning are actionable.  Anything rejected here still simulates
    correctly -- the batch runner falls back to the scalar reference path.
    """
    if type(hierarchy) is not MemoryHierarchy:
        return f"hierarchy subclass {type(hierarchy).__name__}"
    # The fused loop inlines Cache.lookup/fill: require the stock class.
    for cache in (hierarchy.l1d, hierarchy.l2c, hierarchy.llc):
        if type(cache) is not Cache:
            return (
                f"{cache.name}: unmodelled cache shape"
                f" ({type(cache).__name__})"
            )
    predictor = hierarchy.offchip_predictor
    if type(predictor) in (
        NullOffChipPredictor, HermesPredictor, FirstLevelPerceptron
    ):
        return None
    return f"unmodelled off-chip predictor {type(predictor).__name__}"


#: Fallback reasons already warned about (once per reason per process; the
#: obs event still fires on every fallback so campaigns can count them).
_FALLBACK_LOGGED: set[str] = set()


def _note_scalar_fallback(reason: str) -> None:
    obs_tracer.event("sim.batch.fallback", reason=reason)
    if reason not in _FALLBACK_LOGGED:
        _FALLBACK_LOGGED.add(reason)
        _LOG.warning(
            "--core batch fell back to the scalar reference path: %s", reason
        )


def _make_inline_fill(cache: Cache):
    """Positional fast-path clone of ``Cache.fill``.

    Only valid for stock :class:`Cache` instances (subclasses fall back in
    :func:`batch_unsupported_reason`) and for fills that never set
    ``dirty`` -- which is every fill the fused loop drives (demand fills
    and prefetch fills; writes dirty blocks via the lookup path, not
    fills).  Identical arithmetic and update order to
    ``Cache.fill`` + ``Cache._evicted``: the eviction listener, if any,
    gets a prefetched victim block itself, so an eviction allocates
    nothing.
    """
    sets = cache._sets
    num_sets = cache.num_sets
    associativity = cache.associativity
    stats = cache.stats
    listener = cache._eviction_listener

    def fill(
        block_addr: int,
        cycle: int,
        ready_cycle: int,
        prefetched: bool = False,
        prefetch_source_level: Optional[int] = None,
    ) -> None:
        set_idx = block_addr % num_sets
        cache_set = sets[set_idx]
        existing = cache_set.get(block_addr)
        if existing is not None:
            # Fill races with an earlier fill of the same block: keep the
            # stronger attribution (a demand fill overrides prefetched).
            if not prefetched:
                existing.prefetched = False
            if ready_cycle < existing.ready_cycle:
                existing.ready_cycle = ready_cycle
            return
        if len(cache_set) >= associativity:
            victim = cache_set.popitem(last=False)[1]
            stats.evictions += 1
            if victim.dirty:
                stats.writebacks += 1
            if victim.prefetched:
                if victim.prefetch_useful:
                    stats.useful_prefetch_evictions += 1
                else:
                    stats.useless_prefetch_evictions += 1
                if listener is not None:
                    listener(victim)
        # Positional CacheBlock args in field order: block_addr, valid,
        # dirty, prefetched, prefetch_useful, prefetch_source_level,
        # fill_cycle, ready_cycle.
        cache_set[block_addr] = CacheBlock(
            block_addr, True, False, prefetched, False,
            prefetch_source_level, cycle, ready_cycle,
        )
        if prefetched:
            stats.prefetch_fills += 1
        else:
            stats.demand_fills += 1

    return fill


def run_core_trace_batched(
    runner: CoreRunner,
    trace,
    hierarchy: MemoryHierarchy,
    chunk_records: int = DEFAULT_CHUNK_RECORDS,
    sample_hook=None,
    sample_interval: Optional[int] = None,
) -> bool:
    """Step ``trace`` through ``runner``/``hierarchy`` in fused chunks.

    Semantically identical to ``runner.run_trace(trace)`` with the runner's
    memory callback bound to ``hierarchy.demand_access``.  Returns True when
    the fused path ran, False when it fell back to the scalar reference.

    ``sample_hook(accesses, instructions, cycles)``, when given with a
    positive ``sample_interval``, is invoked at the first chunk boundary
    after every ``sample_interval`` cumulative demand accesses.  The hook
    only *reads* state, so it cannot perturb simulation metrics; callers
    wanting per-N-accesses granularity should also shrink
    ``chunk_records`` (chunking is result-invariant).
    """
    reason = batch_unsupported_reason(hierarchy)
    if reason is not None:
        _note_scalar_fallback(reason)
        runner.run_trace(trace)
        return False

    pc_col, vaddr_col, kind_col = trace.columns()
    total_records = len(pc_col)

    # ---- immutable-for-the-run bindings ------------------------------
    l1d = hierarchy.l1d
    l2c = hierarchy.l2c
    llc = hierarchy.llc
    dram = hierarchy.dram
    page_table = hierarchy.page_table
    page_map = page_table._mapping
    allocate_frame = page_table._allocate_frame
    l1_sets, l1_num_sets, l1_latency = l1d._sets, l1d.num_sets, l1d.latency
    l2_sets, l2_num_sets, l2_latency = l2c._sets, l2c.num_sets, l2c.latency
    llc_sets, llc_num_sets, llc_latency = llc._sets, llc.num_sets, llc.latency
    # Positional fast-path fills (Cache.fill inlined; sound because
    # batch_unsupported_reason already required the stock cache shapes).
    l1_fill = _make_inline_fill(l1d)
    l2_fill = _make_inline_fill(l2c)
    llc_fill = _make_inline_fill(llc)
    record_location = hierarchy._record_offchip_prediction_location
    resolve_l1_prefetch_use = hierarchy._resolve_l1d_prefetch_use
    resolve_l2_prefetch_use = hierarchy._resolve_l2c_prefetch_use
    run_l2_prefetcher = hierarchy._run_l2_prefetcher
    issue_l1d_prefetch = hierarchy._issue_l1d_prefetch
    prefetcher = hierarchy.l1d_prefetcher
    on_demand_access = (
        prefetcher.on_demand_access if prefetcher is not None else None
    )
    predictor_latency = hierarchy._predictor_latency
    cycles_per_transaction = dram._cycles_per_transaction
    dram_access_latency = dram.config.access_latency
    LEVEL_L1D = MemLevel.L1D
    LEVEL_L2C = MemLevel.L2C
    LEVEL_LLC = MemLevel.LLC
    LEVEL_DRAM = MemLevel.DRAM
    KIND_COMPUTE = KIND_NON_MEM

    # Stats objects are stable within one call: reset_stats replaces them
    # only between the warm-up and measured phases, i.e. between calls.
    hstats = hierarchy.stats
    l1_stats = l1d.stats
    l2_stats = l2c.stats
    llc_stats = llc.stats
    dram_stats = dram.stats

    # ---- inline prefetch kernels (exact-type gated) ------------------
    # The fused paths below replicate _issue_l1d_prefetch /
    # _issue_l2c_prefetch for the exact component types whose kernels they
    # inline (IPCP/Berti + SLP above the L1D, SPP + PPF behind the L2C).
    # Any other combination keeps the object-call serialization points, so
    # nothing loses batch support -- it just runs the slower fused loop.
    l2pf = hierarchy.l2_prefetcher
    l2flt = hierarchy.l2_prefetch_filter
    l1flt = hierarchy.l1d_prefetch_filter
    inline_l2 = (
        (l2pf is None or type(l2pf) is SPPPrefetcher)
        and (l2flt is None or type(l2flt) is PerceptronPrefetchFilter)
    )
    inline_l1 = (
        inline_l2
        and type(prefetcher) in (IPCPPrefetcher, BertiPrefetcher)
        and (l1flt is None or type(l1flt) is SecondLevelPerceptron)
    )

    if inline_l2 and l2pf is not None:
        # _run_l2_prefetcher + _issue_l2c_prefetch fused over SPP's raw
        # prediction tuples: no PrefetchRequest/FilterDecision objects and
        # no metadata dicts on this path.  DRAM keeps its object calls
        # (prefetch DRAM transactions are rare) so its stats merge with the
        # chunk-local demand counters.  Default arguments re-bind the
        # shared state as closure locals, keeping the enclosing loop's
        # names plain fast locals rather than cells.
        def spp_inline(
            trigger_pc: int,
            tblock: int,
            cycle: int,
            spp_step=l2pf.step,
            ppf_consult=(l2flt.consult_step if l2flt is not None else None),
            hstats=hstats,
            l2_sets=l2_sets,
            l2_num_sets=l2_num_sets,
            llc_sets=llc_sets,
            llc_num_sets=llc_num_sets,
            l2_fill=l2_fill,
            llc_fill=llc_fill,
            base_latency=l2_latency + llc_latency,
            dram=dram,
            dram_access=dram.access,
            drop_cycles=hierarchy._prefetch_drop_queue_cycles,
            SRC_L2C_PREFETCH=RequestSource.L2C_PREFETCH,
            INT_DRAM=int(MemLevel.DRAM),
            pending_l2c=hierarchy._pending_l2c_prefetches,
        ) -> None:
            predictions = spp_step(tblock, trigger_pc)
            if not predictions:
                return
            for pblock, fill_l2, sig, pdelta, pdepth, pconf in predictions:
                hstats.l2c_prefetch_candidates += 1
                if pblock in l2_sets[pblock % l2_num_sets]:
                    hstats.l2c_prefetches_dropped_resident += 1
                    continue
                if ppf_consult is not None:
                    issue, ptotal, pindices = ppf_consult(
                        trigger_pc, pblock, sig, pdelta, pdepth, pconf
                    )
                    if not issue:
                        hstats.l2c_prefetches_filtered += 1
                        continue
                fill_latency = base_latency
                if pblock not in llc_sets[pblock % llc_num_sets]:
                    if dram._busy_until - cycle > drop_cycles:
                        hstats.l2c_prefetches_dropped_queue_full += 1
                        continue
                    fill_latency += dram_access(cycle, SRC_L2C_PREFETCH)
                    llc_fill(pblock, cycle, cycle + fill_latency, True, INT_DRAM)
                hstats.l2c_prefetches_issued += 1
                if fill_l2:
                    l2_fill(pblock, cycle, cycle + fill_latency, True, INT_DRAM)
                if ppf_consult is not None:
                    # PPF training metadata travels as a raw (indices,
                    # confidence) tuple; the eviction/use hooks hand it
                    # back to PerceptronPrefetchFilter.train unchanged.
                    pending_l2c[pblock] = (pindices, ptotal)
    else:
        spp_inline = None

    if inline_l1:
        pf_begin = prefetcher.begin_batch
        pf_step = prefetcher.step_batch
        slp_consult = l1flt.consult_step if l1flt is not None else None
        slp_train = l1flt.perceptron.train if l1flt is not None else None
        pending_l1 = hierarchy._pending_l1d_prefetches
        finalize_l1 = hierarchy._finalize_l1d_prefetch
        pf_served_by = hstats.l1d_prefetch_served_by
        dram_access = dram.access
        drop_cycles = hierarchy._prefetch_drop_queue_cycles
        SRC_L1D_PREFETCH = RequestSource.L1D_PREFETCH
    else:
        pf_begin = pf_step = None

    # Off-chip prediction goes through the predictor's raw step and its
    # perceptron's train (FLP/Hermes); the Null predictor is skipped.
    predictor = hierarchy.offchip_predictor
    if type(predictor) is NullOffChipPredictor:
        predictor_step = predictor_train = None
        last_prediction = False
    else:
        predictor_step = predictor.step
        predictor_train = predictor.perceptron.train
        last_prediction = predictor.last_prediction

    # ---- core-runner state (carried across chunks) -------------------
    retire_times = runner._retire_times
    rob_size = runner.rob_size
    dispatch_interval = runner.dispatch_interval
    dispatch_cycle = runner._dispatch_cycle
    last_retire = runner._last_retire
    popleft = retire_times.popleft
    append_retire = retire_times.append
    instructions = loads = stores = 0
    total_load_latency = 0.0
    next_sample = (
        sample_interval
        if sample_hook is not None and sample_interval
        else None
    )

    for start in range(0, total_records, chunk_records):
        stop = min(start + chunk_records, total_records)
        pcs_chunk = pc_col[start:stop]
        vaddrs_chunk = vaddr_col[start:stop]
        kinds_chunk = kind_col[start:stop]
        pcs = pcs_chunk.tolist()
        vaddrs = vaddrs_chunk.tolist()
        kinds = kinds_chunk.tolist()

        # Vectorized precompute of the L1D prefetcher's pure columns over
        # this chunk's demand records.
        if pf_begin is not None:
            demand_mask = kinds_chunk != KIND_COMPUTE
            pf_begin(pcs_chunk[demand_mask], vaddrs_chunk[demand_mask])

        # Pure counters accumulate in locals below and flush once per
        # chunk; the delegated calls never touch these specific fields
        # (demand lookups happen only at the sites inlined here).
        demand_loads = demand_stores = offchip_predictions = 0
        speculative_requests = delayed_speculative = delayed_saved = 0
        prefetch_candidates = 0
        l1_pf_dropped_resident = l1_pf_filtered = 0
        l1_pf_dropped_queue = l1_pf_issued = 0
        served_l1d = served_l2c = served_llc = served_dram = 0
        l1_accesses = l1_hits = l1_misses = l1_pf_hits = 0
        l2_accesses = l2_hits = l2_misses = l2_pf_hits = 0
        llc_accesses = llc_hits = llc_misses = llc_pf_hits = 0
        dram_transactions = dram_demand = dram_speculative = 0
        dram_queue_cycles = dram_max_queue = 0

        # ---- fused serialized loop -----------------------------------
        for pc, vaddr, kind in zip(pcs, vaddrs, kinds):
            dispatch = dispatch_cycle
            if len(retire_times) >= rob_size:
                rob_constraint = popleft()
                if rob_constraint > dispatch:
                    dispatch = rob_constraint

            if kind == KIND_COMPUTE:
                latency = 1
            else:
                cycle = int(dispatch)
                is_write = kind == 1

                # -- page translation (PageTable.translate inlined) --
                vpage = vaddr >> 12
                frame = page_map.get(vpage)
                if frame is None:
                    frame = allocate_frame(vpage)
                paddr = (frame << 12) | (vaddr & 4095)
                block = paddr >> 6
                if is_write:
                    demand_stores += 1
                else:
                    demand_loads += 1

                # -- off-chip prediction --
                if predictor_step is None:
                    action = 0
                else:
                    action, confidence, indices = predictor_step(pc, vaddr)
                    last_prediction = action != 0
                    if last_prediction:
                        offchip_predictions += 1

                # -- immediate speculative DRAM request --
                speculative_ready = None
                if action == 1:
                    speculative_requests += 1
                    record_location(block)
                    issue_at = cycle + predictor_latency
                    queue_delay = dram._busy_until - issue_at
                    if queue_delay < 0.0:
                        queue_delay = 0.0
                    dram._busy_until = issue_at + queue_delay + cycles_per_transaction
                    dram_transactions += 1
                    dram_speculative += 1
                    queue_cycles = int(queue_delay)
                    dram_queue_cycles += queue_cycles
                    if queue_cycles > dram_max_queue:
                        dram_max_queue = queue_cycles
                    speculative_ready = predictor_latency + int(
                        queue_delay + dram_access_latency
                    )

                # -- L1D probe + lookup (Cache.lookup inlined) --
                latency = l1_latency
                set_index = block % l1_num_sets
                resident = l1_sets[set_index].get(block)
                l1_accesses += 1
                if resident is None:
                    prefetch_hit = False
                    l1d_hit = False
                    l1_misses += 1
                else:
                    prefetch_hit = resident.prefetched and not resident.prefetch_useful
                    ready = resident.ready_cycle
                    if ready > cycle and ready - cycle > latency:
                        latency = ready - cycle
                    l1d_hit = True
                    l1_hits += 1
                    if prefetch_hit:
                        resident.prefetch_useful = True
                        l1_pf_hits += 1
                    if is_write:
                        resident.dirty = True
                    l1_sets[set_index].move_to_end(block)
                    if prefetch_hit:
                        resolve_l1_prefetch_use(block)

                # -- L1D prefetcher --
                if pf_step is not None:
                    # Fused kernel path (IPCP/Berti): raw target vaddrs off
                    # the chunk cursor, _issue_l1d_prefetch inlined below.
                    targets = pf_step(l1d_hit)
                    if targets:
                        for tvaddr in targets:
                            prefetch_candidates += 1
                            tvpage = tvaddr >> 12
                            tframe = page_map.get(tvpage)
                            if tframe is None:
                                tframe = allocate_frame(tvpage)
                            tpaddr = (tframe << 12) | (tvaddr & 4095)
                            tblock = tpaddr >> 6
                            if tblock in l1_sets[tblock % l1_num_sets]:
                                l1_pf_dropped_resident += 1
                                continue
                            if slp_consult is not None:
                                s_issue, s_conf, s_indices = slp_consult(
                                    pc, tpaddr, last_prediction
                                )
                                if not s_issue:
                                    l1_pf_filtered += 1
                                    continue
                            # The L2 prefetcher observes the prefetch
                            # arriving from the level above.
                            if spp_inline is not None and (
                                tblock not in l2_sets[tblock % l2_num_sets]
                            ):
                                spp_inline(pc, tblock, cycle)
                            # _fetch_for_prefetch inlined (L1D source).  The
                            # L2 residency re-check matters: spp_inline may
                            # have just filled this block into the L2.
                            if tblock in l2_sets[tblock % l2_num_sets]:
                                served_level = LEVEL_L2C
                                fetch_latency = l1_latency + l2_latency
                            elif tblock in llc_sets[tblock % llc_num_sets]:
                                served_level = LEVEL_LLC
                                fetch_latency = (
                                    l1_latency + l2_latency + llc_latency
                                )
                                l2_fill(tblock, cycle, cycle + fetch_latency)
                            else:
                                if dram._busy_until - cycle > drop_cycles:
                                    l1_pf_dropped_queue += 1
                                    continue
                                served_level = LEVEL_DRAM
                                fetch_latency = (
                                    l1_latency + l2_latency + llc_latency
                                    + dram_access(cycle, SRC_L1D_PREFETCH)
                                )
                                ready = cycle + fetch_latency
                                llc_fill(tblock, cycle, ready)
                                l2_fill(tblock, cycle, ready)
                            l1_pf_issued += 1
                            pf_served_by[served_level] += 1
                            l1_fill(
                                tblock,
                                cycle,
                                cycle + fetch_latency,
                                True,
                                int(served_level),
                            )
                            # on_fill is the L1DPrefetcher base no-op for
                            # IPCP/Berti; SLP trains as soon as the serve
                            # level is known.
                            if slp_consult is not None:
                                slp_train(
                                    s_indices,
                                    served_level is LEVEL_DRAM,
                                    s_conf,
                                )
                            previous = pending_l1.get(tblock)
                            if previous is not None:
                                finalize_l1(previous, False)
                            pending_l1[tblock] = served_level
                elif on_demand_access is not None:
                    # Serialization point: object call for prefetcher types
                    # the fused path does not model.
                    candidates = on_demand_access(pc, vaddr, l1d_hit, cycle)
                    if candidates:
                        for request in candidates:
                            prefetch_candidates += 1
                            issue_l1d_prefetch(request, last_prediction, cycle)

                # -- selective delay (FLP) --
                if action == 2:
                    if l1d_hit:
                        delayed_saved += 1
                    else:
                        speculative_requests += 1
                        delayed_speculative += 1
                        record_location(block, True)
                        issue_at = cycle + l1_latency + predictor_latency
                        queue_delay = dram._busy_until - issue_at
                        if queue_delay < 0.0:
                            queue_delay = 0.0
                        dram._busy_until = (
                            issue_at + queue_delay + cycles_per_transaction
                        )
                        dram_transactions += 1
                        dram_speculative += 1
                        queue_cycles = int(queue_delay)
                        dram_queue_cycles += queue_cycles
                        if queue_cycles > dram_max_queue:
                            dram_max_queue = queue_cycles
                        speculative_ready = l1_latency + predictor_latency + int(
                            queue_delay + dram_access_latency
                        )

                if l1d_hit:
                    served_l1d += 1
                    went_offchip = False
                    effective_latency = latency
                else:
                    # -- below-L1D walk (_walk_below_l1d inlined; SPP and
                    #    cache fills stay object calls) --
                    latency += l2_latency
                    set_index = block % l2_num_sets
                    l2_block = l2_sets[set_index].get(block)
                    l2_accesses += 1
                    if l2_block is None:
                        l2_hit = False
                        l2_misses += 1
                    else:
                        l2_prefetch_hit = (
                            l2_block.prefetched and not l2_block.prefetch_useful
                        )
                        ready = l2_block.ready_cycle
                        if ready > cycle and ready - cycle > latency:
                            latency = ready - cycle
                        l2_hit = True
                        l2_hits += 1
                        if l2_prefetch_hit:
                            l2_block.prefetch_useful = True
                            l2_pf_hits += 1
                        if is_write:
                            l2_block.dirty = True
                        l2_sets[set_index].move_to_end(block)
                        if l2_prefetch_hit:
                            resolve_l2_prefetch_use(block)

                    # SPP observes L2 demand accesses.
                    if spp_inline is not None:
                        spp_inline(pc, block, cycle)
                    else:
                        run_l2_prefetcher(pc, paddr, l2_hit, cycle)

                    if l2_hit:
                        l1_fill(block, cycle, cycle + latency)
                        served_l2c += 1
                        went_offchip = False
                    else:
                        latency += llc_latency
                        set_index = block % llc_num_sets
                        llc_block = llc_sets[set_index].get(block)
                        llc_accesses += 1
                        if llc_block is None:
                            llc_hit = False
                            llc_misses += 1
                        else:
                            ready = llc_block.ready_cycle
                            if ready > cycle and ready - cycle > latency:
                                latency = ready - cycle
                            llc_hit = True
                            llc_hits += 1
                            if llc_block.prefetched and not llc_block.prefetch_useful:
                                llc_block.prefetch_useful = True
                                llc_pf_hits += 1
                            if is_write:
                                llc_block.dirty = True
                            llc_sets[set_index].move_to_end(block)
                        if llc_hit:
                            l1_fill(block, cycle, cycle + latency)
                            l2_fill(block, cycle, cycle + latency)
                            served_llc += 1
                            went_offchip = False
                        else:
                            if speculative_ready is not None:
                                # Merged with the in-flight speculative fetch
                                # at the memory controller: no second DRAM
                                # transaction.
                                dram_latency = dram_access_latency
                            else:
                                issue_at = cycle + latency
                                queue_delay = dram._busy_until - issue_at
                                if queue_delay < 0.0:
                                    queue_delay = 0.0
                                dram._busy_until = (
                                    issue_at + queue_delay + cycles_per_transaction
                                )
                                dram_transactions += 1
                                dram_demand += 1
                                queue_cycles = int(queue_delay)
                                dram_queue_cycles += queue_cycles
                                if queue_cycles > dram_max_queue:
                                    dram_max_queue = queue_cycles
                                dram_latency = int(
                                    queue_delay + dram_access_latency
                                )
                            latency += dram_latency
                            ready = cycle + latency
                            llc_fill(block, cycle, ready)
                            l2_fill(block, cycle, ready)
                            l1_fill(block, cycle, ready)
                            served_dram += 1
                            went_offchip = True

                    effective_latency = latency
                    if speculative_ready is not None and went_offchip:
                        effective_latency = (
                            speculative_ready
                            if speculative_ready > l1_latency
                            else l1_latency
                        )

                if predictor_train is not None:
                    predictor_train(indices, went_offchip, confidence)

                if kind == 0:
                    latency = effective_latency
                    loads += 1
                    total_load_latency += effective_latency
                else:
                    latency = 1
                    stores += 1

            completion = dispatch + latency
            retire = last_retire + dispatch_interval
            if completion > retire:
                retire = completion
            append_retire(retire)
            last_retire = retire
            dispatch_cycle = dispatch + dispatch_interval
            instructions += 1

        # ---- chunk flush ---------------------------------------------
        hstats.demand_loads += demand_loads
        hstats.demand_stores += demand_stores
        hstats.offchip_predictions += offchip_predictions
        hstats.speculative_requests += speculative_requests
        hstats.delayed_speculative_requests += delayed_speculative
        hstats.delayed_predictions_saved += delayed_saved
        hstats.l1d_prefetch_candidates += prefetch_candidates
        hstats.l1d_prefetches_dropped_resident += l1_pf_dropped_resident
        hstats.l1d_prefetches_filtered += l1_pf_filtered
        hstats.l1d_prefetches_dropped_queue_full += l1_pf_dropped_queue
        hstats.l1d_prefetches_issued += l1_pf_issued
        served = hstats.served_by
        served[LEVEL_L1D] += served_l1d
        served[LEVEL_L2C] += served_l2c
        served[LEVEL_LLC] += served_llc
        served[LEVEL_DRAM] += served_dram
        l1_stats.demand_accesses += l1_accesses
        l1_stats.demand_hits += l1_hits
        l1_stats.demand_misses += l1_misses
        l1_stats.prefetch_hits += l1_pf_hits
        l2_stats.demand_accesses += l2_accesses
        l2_stats.demand_hits += l2_hits
        l2_stats.demand_misses += l2_misses
        l2_stats.prefetch_hits += l2_pf_hits
        llc_stats.demand_accesses += llc_accesses
        llc_stats.demand_hits += llc_hits
        llc_stats.demand_misses += llc_misses
        llc_stats.prefetch_hits += llc_pf_hits
        dram_stats.total_transactions += dram_transactions
        dram_stats.demand_transactions += dram_demand
        dram_stats.speculative_transactions += dram_speculative
        dram_stats.total_queue_cycles += dram_queue_cycles
        if dram_max_queue > dram_stats.max_queue_cycles:
            dram_stats.max_queue_cycles = dram_max_queue

        if next_sample is not None:
            accesses = hstats.demand_loads + hstats.demand_stores
            if accesses >= next_sample:
                sample_hook(
                    accesses, runner.instructions + instructions, last_retire
                )
                next_sample = (accesses // sample_interval + 1) * sample_interval

    runner._dispatch_cycle = dispatch_cycle
    runner._last_retire = last_retire
    runner.instructions += instructions
    runner.loads += loads
    runner.stores += stores
    runner.total_load_latency += total_load_latency
    return True


def run_single_core_batched(
    trace,
    hierarchy: MemoryHierarchy,
    core_config,
    warmup_fraction: float,
    chunk_records: Optional[int] = None,
    sample_hook=None,
    sample_interval: Optional[int] = None,
) -> CoreRunner:
    """Warm-up + measured run of one trace on the batch core.

    Mirrors the scalar driver exactly: a fresh runner per phase, statistics
    reset after warm-up, returns the measured-phase runner (call
    ``finish()`` for the :class:`~repro.cpu.core.CoreResult`).

    ``sample_hook``/``sample_interval`` apply to the measured phase only
    (warm-up statistics are discarded); with sampling active the chunk
    size is capped near the interval so snapshots land close to every
    ``sample_interval`` demand accesses.  Chunking is result-invariant,
    so sampling never changes metrics.
    """
    chunk = chunk_records if chunk_records else DEFAULT_CHUNK_RECORDS
    warmup, measured = trace.split(warmup_fraction)
    if len(warmup):
        warmup_runner = CoreRunner(core_config, hierarchy.demand_access)
        run_core_trace_batched(warmup_runner, warmup, hierarchy, chunk)
        hierarchy.reset_stats(include_shared=True)

    measured_chunk = chunk
    if sample_hook is not None and sample_interval:
        measured_chunk = max(1024, min(chunk, sample_interval))
    runner = CoreRunner(core_config, hierarchy.demand_access)
    run_core_trace_batched(
        runner, measured, hierarchy, measured_chunk,
        sample_hook=sample_hook, sample_interval=sample_interval,
    )
    return runner
