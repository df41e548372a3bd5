"""Tests for the composed memory hierarchy."""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.common.config import (
    CacheConfig,
    cascade_lake_multi_core,
    cascade_lake_single_core,
)
from repro.common.types import MemLevel
from repro.core.slp import SecondLevelPerceptron
from repro.core.tlp import TwoLevelPerceptron
from repro.memory.hierarchy import MemoryHierarchy, SharedMemory
from repro.predictors.base import (
    OffChipAction,
    OffChipDecision,
    OffChipPredictor,
)
from repro.prefetchers.next_line import NextLinePrefetcher
from repro.sim.scenarios import build_hierarchy, build_scenario
from repro.sim.single_core import run_single_core
from repro.traces.trace import KIND_LOAD, KIND_NON_MEM, KIND_STORE, Trace


class ForcedPredictor(OffChipPredictor):
    """Test double that always returns a fixed action."""

    name = "forced"

    def __init__(self, action):
        self.action = action
        self.trained = []
        self.last_prediction = action is not OffChipAction.NONE

    def predict(self, pc, vaddr, cycle):
        return OffChipDecision(
            action=self.action,
            predicted_offchip=self.action is not OffChipAction.NONE,
            confidence=10,
            metadata={"token": (pc, vaddr)},
        )

    def train(self, metadata, went_offchip):
        self.trained.append((metadata.get("token"), went_offchip))


def make_hierarchy(**kwargs):
    return MemoryHierarchy(cascade_lake_single_core(), **kwargs)


class TestDemandPath:
    def test_cold_miss_goes_to_dram(self):
        hierarchy = make_hierarchy()
        outcome = hierarchy.demand_access(0x400, 0x10_0000, cycle=0)
        assert outcome.served_by is MemLevel.DRAM
        assert hierarchy.dram.stats.demand_transactions == 1

    def test_second_access_hits_l1d(self):
        hierarchy = make_hierarchy()
        hierarchy.demand_access(0x400, 0x10_0000, cycle=0)
        outcome = hierarchy.demand_access(0x400, 0x10_0000, cycle=1000)
        assert outcome.served_by is MemLevel.L1D
        assert outcome.latency >= hierarchy.l1d.latency

    def test_latency_accumulates_down_the_hierarchy(self):
        hierarchy = make_hierarchy()
        outcome = hierarchy.demand_access(0x400, 0x20_0000, cycle=0)
        expected_minimum = (
            hierarchy.l1d.latency
            + hierarchy.l2c.latency
            + hierarchy.llc.latency
            + hierarchy.dram.config.access_latency
        )
        assert outcome.latency >= expected_minimum

    def test_served_by_statistics(self):
        hierarchy = make_hierarchy()
        hierarchy.demand_access(0x400, 0x30_0000, cycle=0)
        hierarchy.demand_access(0x400, 0x30_0000, cycle=10)
        assert hierarchy.stats.served_by[MemLevel.DRAM] == 1
        assert hierarchy.stats.served_by[MemLevel.L1D] == 1

    def test_stores_counted_separately(self):
        hierarchy = make_hierarchy()
        hierarchy.demand_access(0x400, 0x40_0000, cycle=0, is_write=True)
        assert hierarchy.stats.demand_stores == 1
        assert hierarchy.stats.demand_loads == 0

    def test_mpki_helper(self):
        hierarchy = make_hierarchy()
        hierarchy.demand_access(0x400, 0x40_0000, cycle=0)
        assert hierarchy.mpki(MemLevel.L1D, 1000) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            hierarchy.mpki(MemLevel.DRAM, 1000)
        with pytest.raises(ValueError):
            hierarchy.mpki(MemLevel.L1D, 0)


class TestSpeculativeRequests:
    def test_immediate_prediction_counts_speculative_transaction(self):
        predictor = ForcedPredictor(OffChipAction.IMMEDIATE)
        hierarchy = make_hierarchy(offchip_predictor=predictor)
        outcome = hierarchy.demand_access(0x400, 0x50_0000, cycle=0)
        assert outcome.speculative_dram_issued
        assert hierarchy.dram.stats.speculative_transactions == 1
        # The demand merges with the speculative request: no demand transaction.
        assert hierarchy.dram.stats.demand_transactions == 0

    def test_correct_speculation_reduces_effective_latency(self):
        predictor = ForcedPredictor(OffChipAction.IMMEDIATE)
        hierarchy = make_hierarchy(offchip_predictor=predictor)
        outcome = hierarchy.demand_access(0x400, 0x50_0000, cycle=0)
        assert outcome.served_by is MemLevel.DRAM
        assert outcome.effective_latency < outcome.latency

    def test_wrong_speculation_wastes_a_transaction(self):
        predictor = ForcedPredictor(OffChipAction.IMMEDIATE)
        hierarchy = make_hierarchy(offchip_predictor=predictor)
        hierarchy.demand_access(0x400, 0x60_0000, cycle=0)
        before = hierarchy.dram.stats.total_transactions
        outcome = hierarchy.demand_access(0x400, 0x60_0000, cycle=1000)
        assert outcome.served_by is MemLevel.L1D
        assert hierarchy.dram.stats.total_transactions == before + 1

    def test_delayed_prediction_saved_on_l1d_hit(self):
        predictor = ForcedPredictor(OffChipAction.DELAYED)
        hierarchy = make_hierarchy(offchip_predictor=predictor)
        hierarchy.demand_access(0x400, 0x70_0000, cycle=0)
        before = hierarchy.dram.stats.speculative_transactions
        hierarchy.demand_access(0x400, 0x70_0000, cycle=1000)
        assert hierarchy.dram.stats.speculative_transactions == before
        assert hierarchy.stats.delayed_predictions_saved == 1

    def test_delayed_prediction_fires_on_l1d_miss(self):
        predictor = ForcedPredictor(OffChipAction.DELAYED)
        hierarchy = make_hierarchy(offchip_predictor=predictor)
        hierarchy.demand_access(0x400, 0x80_0000, cycle=0)
        assert hierarchy.stats.delayed_speculative_requests == 1
        assert hierarchy.dram.stats.speculative_transactions == 1

    def test_offchip_prediction_location_breakdown(self):
        predictor = ForcedPredictor(OffChipAction.IMMEDIATE)
        hierarchy = make_hierarchy(offchip_predictor=predictor)
        hierarchy.demand_access(0x400, 0x90_0000, cycle=0)   # DRAM resident
        hierarchy.demand_access(0x400, 0x90_0000, cycle=500)  # L1D resident
        locations = hierarchy.stats.offchip_prediction_location
        assert locations[MemLevel.DRAM] == 1
        assert locations[MemLevel.L1D] == 1

    def test_predictor_trained_with_true_outcome(self):
        predictor = ForcedPredictor(OffChipAction.NONE)
        hierarchy = make_hierarchy(offchip_predictor=predictor)
        hierarchy.demand_access(0x400, 0xA0_0000, cycle=0)
        hierarchy.demand_access(0x400, 0xA0_0000, cycle=100)
        assert predictor.trained[0][1] is True
        assert predictor.trained[1][1] is False


class TestPrefetchPath:
    def test_next_line_prefetch_issued_and_tracked(self):
        hierarchy = make_hierarchy(l1d_prefetcher=NextLinePrefetcher(degree=1))
        hierarchy.demand_access(0x400, 0xB0_0000, cycle=0)
        assert hierarchy.stats.l1d_prefetches_issued == 1
        assert hierarchy.dram.stats.l1d_prefetch_transactions >= 1

    def test_prefetch_hit_marks_useful(self):
        hierarchy = make_hierarchy(l1d_prefetcher=NextLinePrefetcher(degree=1))
        hierarchy.demand_access(0x400, 0xB0_0000, cycle=0)
        outcome = hierarchy.demand_access(0x400, 0xB0_0040, cycle=1000)
        assert outcome.served_by is MemLevel.L1D
        assert outcome.prefetch_hit
        assert hierarchy.stats.useful_l1d_prefetches == 1

    def test_unused_prefetch_counts_inaccurate_at_finalize(self):
        hierarchy = make_hierarchy(l1d_prefetcher=NextLinePrefetcher(degree=1))
        hierarchy.demand_access(0x400, 0xC0_0000, cycle=0)
        hierarchy.finalize()
        assert hierarchy.stats.useless_l1d_prefetches == 1

    def test_prefetch_already_resident_dropped(self):
        hierarchy = make_hierarchy(l1d_prefetcher=NextLinePrefetcher(degree=1))
        hierarchy.demand_access(0x400, 0xD0_0040, cycle=0)
        hierarchy.demand_access(0x400, 0xD0_0000, cycle=100)
        assert hierarchy.stats.l1d_prefetches_dropped_resident >= 1

    def test_in_flight_prefetch_charges_remaining_latency(self):
        hierarchy = make_hierarchy(l1d_prefetcher=NextLinePrefetcher(degree=1))
        hierarchy.demand_access(0x400, 0xE0_0000, cycle=0)
        # Access the prefetched block immediately: the fill has not arrived.
        outcome = hierarchy.demand_access(0x400, 0xE0_0040, cycle=1)
        assert outcome.served_by is MemLevel.L1D
        assert outcome.latency > hierarchy.l1d.latency

    def test_slp_filter_blocks_prefetches_when_trained(self):
        slp = SecondLevelPerceptron(tau_pref=0)
        hierarchy = make_hierarchy(
            l1d_prefetcher=NextLinePrefetcher(degree=1), l1d_prefetch_filter=slp
        )
        base = 0xF0_0000
        for index in range(60):
            hierarchy.demand_access(0x400, base + index * 0x10_0000, cycle=index * 500)
        assert hierarchy.stats.l1d_prefetches_filtered > 0

    def test_prefetch_accuracy_sources_tracked(self):
        hierarchy = make_hierarchy(l1d_prefetcher=NextLinePrefetcher(degree=1))
        hierarchy.demand_access(0x400, 0x11_0000, cycle=0)
        hierarchy.demand_access(0x400, 0x11_0040, cycle=1000)
        hierarchy.finalize()
        total_accurate = sum(hierarchy.stats.accurate_prefetch_source.values())
        assert total_accurate == hierarchy.stats.useful_l1d_prefetches


class TestSharedMemory:
    def test_two_cores_share_llc_and_dram(self):
        config = cascade_lake_multi_core(2)
        shared = SharedMemory(config)
        core0 = MemoryHierarchy(config, shared=shared, core_id=0)
        core1 = MemoryHierarchy(config, shared=shared, core_id=1)
        core0.demand_access(0x400, 0x12_0000, cycle=0)
        core1.demand_access(0x400, 0x13_0000, cycle=0)
        assert shared.dram.stats.total_transactions == 2
        assert core0.llc is core1.llc

    def test_llc_scaled_by_core_count(self):
        config = cascade_lake_multi_core(4)
        shared = SharedMemory(config)
        assert shared.llc.config.size_bytes == 4 * 1408 * 1024

    def test_reset_stats_keeps_cache_contents(self):
        hierarchy = make_hierarchy()
        hierarchy.demand_access(0x400, 0x14_0000, cycle=0)
        hierarchy.reset_stats()
        assert hierarchy.stats.demand_loads == 0
        outcome = hierarchy.demand_access(0x400, 0x14_0000, cycle=10)
        assert outcome.served_by is MemLevel.L1D


class TestTLPIntegration:
    def test_tlp_attached_hierarchy_runs(self):
        tlp = TwoLevelPerceptron()
        hierarchy = make_hierarchy(l1d_prefetcher=NextLinePrefetcher(degree=1))
        tlp.attach(hierarchy)
        for index in range(50):
            hierarchy.demand_access(0x400 + index % 3, 0x20_0000 + index * 0x1000, cycle=index * 50)
        assert hierarchy.stats.demand_loads == 50
        assert tlp.flp.perceptron.stats.predictions == 50


# ----------------------------------------------------------------------
# Prefetch bookkeeping invariants (both simulator cores)
# ----------------------------------------------------------------------
@st.composite
def _strided_trace(draw):
    """Per-PC strided streams with random jumps over a small region.

    Strides feed IPCP/Berti/SPP (so prefetches are issued); the small
    region and the jumps make prefetched blocks get demanded, overwritten
    and evicted unused.
    """
    strides = draw(st.lists(st.integers(min_value=-3, max_value=4),
                            min_size=4, max_size=4))
    records = draw(st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=0, max_value=1023),  # jump target
            st.sampled_from((KIND_LOAD, KIND_LOAD, KIND_STORE, KIND_NON_MEM)),
        ),
        min_size=100,
        max_size=600,
    ))
    cursors = [256 * i for i in range(4)]
    pcs, vaddrs, kinds = [], [], []
    for pc_index, target, kind in records:
        if target % 8 == 0:  # one record in eight jumps
            cursors[pc_index] = target
        else:
            cursors[pc_index] = (cursors[pc_index] + strides[pc_index]) % 1024
        pcs.append(0x40_0000 + 4 * pc_index)
        vaddrs.append(0x1000_0000 + 64 * cursors[pc_index] + 8 * pc_index)
        kinds.append(kind)
    return Trace.from_columns("strided", pcs, vaddrs, kinds)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    trace=_strided_trace(),
    core=st.sampled_from(("scalar", "batch")),
    scheme=st.sampled_from(("baseline", "tlp", "ppf", "hermes_ppf", "slp")),
    l1d_prefetcher=st.sampled_from(("ipcp", "berti")),
    l1d_sets=st.sampled_from((1, 2, 4)),
    l1d_ways=st.sampled_from((1, 2, 4)),
    l2c_sets=st.sampled_from((4, 8)),
    llc_sets=st.sampled_from((8, 16)),
)
def test_prefetch_bookkeeping_invariants(
    trace, core, scheme, l1d_prefetcher, l1d_sets, l1d_ways, l2c_sets, llc_sets
):
    """Every resolved L1D prefetch is attributed to exactly one serving
    level, and no more prefetches are resolved than were issued."""
    system = dataclasses.replace(
        cascade_lake_single_core(),
        sim_core=core,
        l1d=CacheConfig("L1D", l1d_sets * l1d_ways * 64, l1d_ways, 4),
        l2c=CacheConfig("L2C", l2c_sets * 2 * 64, 2, 10),
        llc=CacheConfig("LLC", llc_sets * 2 * 64, 2, 36),
    )
    scenario = build_scenario(scheme, l1d_prefetcher=l1d_prefetcher)
    hierarchy = build_hierarchy(scenario, config=system)
    run_single_core(trace, scenario, config=system, hierarchy=hierarchy)

    stats = hierarchy.stats
    resolved = stats.useful_l1d_prefetches + stats.useless_l1d_prefetches
    attributed = (sum(stats.accurate_prefetch_source.values())
                  + sum(stats.inaccurate_prefetch_source.values()))
    assert resolved == attributed
    assert resolved <= stats.l1d_prefetches_issued
    assert stats.useful_l1d_prefetches == sum(stats.accurate_prefetch_source.values())
    assert not hierarchy._pending_l1d_prefetches  # finalize() drained it
