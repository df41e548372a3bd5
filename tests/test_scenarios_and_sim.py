"""Integration tests: scenario building, single-core and multi-core drivers."""

from dataclasses import asdict, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.common.config import (
    CoreConfig,
    cascade_lake_multi_core,
    cascade_lake_single_core,
)
from repro.core.flp import FirstLevelPerceptron
from repro.core.slp import SecondLevelPerceptron
from repro.memory.hierarchy import MemoryHierarchy
from repro.predictors.hermes import HermesPredictor
from repro.prefetchers.berti import BertiPrefetcher
from repro.prefetchers.ipcp import IPCPPrefetcher
from repro.prefetchers.ppf import PerceptronPrefetchFilter
from repro.sim import multi_core
from repro.sim.multi_core import run_multicore_mix
from repro.sim.scenarios import SCHEMES, Scenario, build_hierarchy, build_scenario
from repro.sim.single_core import run_single_core
from repro.traces.trace import KIND_LOAD, KIND_NON_MEM, KIND_STORE, Trace, trace_lists


def argmin_interleave(runners, traces):
    """Reference multi-core order: before every record, rescan the cores and
    step the active one with the lowest ``(next_dispatch_cycle, core id)``."""
    columns = [trace_lists(trace) for trace in traces]
    positions = [0] * len(traces)
    lengths = [len(pcs) for pcs, _, _ in columns]
    active = [length > 0 for length in lengths]
    while any(active):
        best_core = -1
        best_cycle = float("inf")
        for core_id, runner in enumerate(runners):
            if not active[core_id]:
                continue
            cycle = runner.next_dispatch_cycle
            if cycle < best_cycle:
                best_cycle = cycle
                best_core = core_id
        position = positions[best_core]
        pcs, vaddrs, kinds = columns[best_core]
        runners[best_core].step_values(pcs[position], vaddrs[position], kinds[position])
        positions[best_core] = position + 1
        if position + 1 >= lengths[best_core]:
            active[best_core] = False


class ScriptedRunner:
    """Stand-in core whose next dispatch cycle grows by scripted steps.

    Small integer steps (zero included) make dispatch-cycle ties between
    cores the common case.  Each step logs ``(core_id, pc)``.
    """

    def __init__(self, core_id, start, increments, log):
        self.core_id = core_id
        self.next_dispatch_cycle = start
        self.increments = increments
        self.log = log

    def step_values(self, pc, vaddr, kind):
        self.log.append((self.core_id, pc))
        self.next_dispatch_cycle += self.increments[pc]
        return self.next_dispatch_cycle


# Short traces over 16 blocks: first touches go to DRAM and later ones hit,
# so the cores' load latencies, and hence their dispatch cycles, differ.
RECORDS = st.lists(
    st.tuples(
        st.sampled_from([KIND_LOAD, KIND_LOAD, KIND_STORE, KIND_NON_MEM]),
        st.integers(0, 3),
        st.integers(0, 15),
    ),
    max_size=40,
)


def records_trace(name, records):
    kinds = [kind for kind, _, _ in records]
    pcs = [0x400 + 4 * pc for _, pc, _ in records]
    vaddrs = [
        0 if kind == KIND_NON_MEM else 0x10000 + 64 * block
        for kind, _, block in records
    ]
    return Trace.from_columns(
        name, np.array(pcs), np.array(vaddrs), np.array(kinds)
    )


class TestScenarioBuilding:
    def test_all_schemes_buildable(self):
        for scheme in SCHEMES:
            hierarchy = build_hierarchy(build_scenario(scheme))
            assert hierarchy is not None

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            build_scenario("magic")

    def test_scenario_name(self):
        scenario = build_scenario("tlp", l1d_prefetcher="berti")
        assert scenario.name == "tlp/berti"

    def test_baseline_has_no_predictor_or_filter(self):
        hierarchy = build_hierarchy(build_scenario("baseline"))
        from repro.predictors.base import NullOffChipPredictor

        assert isinstance(hierarchy.offchip_predictor, NullOffChipPredictor)
        assert hierarchy.l1d_prefetch_filter is None
        assert hierarchy.l2_prefetch_filter is None
        assert isinstance(hierarchy.l1d_prefetcher, IPCPPrefetcher)

    def test_hermes_scheme_attaches_hermes(self):
        hierarchy = build_hierarchy(build_scenario("hermes"))
        assert isinstance(hierarchy.offchip_predictor, HermesPredictor)

    def test_ppf_scheme_attaches_filter_at_l2(self):
        hierarchy = build_hierarchy(build_scenario("ppf"))
        assert isinstance(hierarchy.l2_prefetch_filter, PerceptronPrefetchFilter)

    def test_tlp_scheme_attaches_flp_and_slp(self):
        hierarchy = build_hierarchy(build_scenario("tlp"))
        assert isinstance(hierarchy.offchip_predictor, FirstLevelPerceptron)
        assert isinstance(hierarchy.l1d_prefetch_filter, SecondLevelPerceptron)

    def test_berti_prefetcher_selected(self):
        hierarchy = build_hierarchy(build_scenario("baseline", l1d_prefetcher="berti"))
        assert isinstance(hierarchy.l1d_prefetcher, BertiPrefetcher)

    def test_prefetcher_7kb_enlarges_tables(self):
        hierarchy = build_hierarchy(build_scenario("prefetcher_7kb"))
        assert hierarchy.l1d_prefetcher.ip_table_entries > IPCPPrefetcher().ip_table_entries

    def test_hermes_7kb_enlarges_tables(self):
        small = HermesPredictor()
        hierarchy = build_hierarchy(build_scenario("hermes_7kb"))
        assert hierarchy.offchip_predictor.storage_kib() > small.storage_kib()

    def test_ablation_schemes_attach_expected_components(self):
        slp_only = build_hierarchy(build_scenario("slp"))
        from repro.predictors.base import NullOffChipPredictor

        assert isinstance(slp_only.offchip_predictor, NullOffChipPredictor)
        assert isinstance(slp_only.l1d_prefetch_filter, SecondLevelPerceptron)
        tsp = build_hierarchy(build_scenario("selective_tsp"))
        assert tsp.offchip_predictor.selective_delay is True


class TestSingleCoreDriver:
    def test_baseline_run_produces_sane_metrics(self, small_random_trace):
        result = run_single_core(small_random_trace, build_scenario("baseline"))
        assert result.instructions > 0
        assert 0.0 < result.ipc < 4.0
        assert result.dram_transactions > 0
        assert result.mpki_by_level["L1D"] >= result.mpki_by_level["LLC"]

    def test_warmup_fraction_validated(self, small_random_trace):
        with pytest.raises(ValueError):
            run_single_core(small_random_trace, build_scenario("baseline"), warmup_fraction=1.0)

    def test_results_deterministic(self, small_random_trace):
        first = run_single_core(small_random_trace, build_scenario("baseline"))
        second = run_single_core(small_random_trace, build_scenario("baseline"))
        assert first.ipc == pytest.approx(second.ipc)
        assert first.dram_transactions == second.dram_transactions

    def test_hermes_issues_speculative_requests(self, small_chase_trace):
        result = run_single_core(small_chase_trace, build_scenario("hermes"))
        assert result.speculative_requests > 0

    def test_tlp_filters_prefetches(self, small_random_trace):
        baseline = run_single_core(small_random_trace, build_scenario("baseline"))
        tlp = run_single_core(small_random_trace, build_scenario("tlp"))
        assert (
            tlp.l1d_prefetches_filtered > 0
            or tlp.l1d_prefetches_issued <= baseline.l1d_prefetches_issued
        )

    def test_gap_trace_runs_all_schemes(self, small_gap_trace):
        for scheme in ("baseline", "hermes", "ppf", "tlp"):
            result = run_single_core(small_gap_trace, build_scenario(scheme))
            assert result.instructions > 0

    def test_prefetch_accuracy_in_unit_range(self, small_stream_trace):
        result = run_single_core(small_stream_trace, build_scenario("baseline"))
        assert 0.0 <= result.l1d_prefetch_accuracy <= 1.0

    def test_served_by_accounts_for_all_loads(self, small_random_trace):
        result = run_single_core(small_random_trace, build_scenario("baseline"))
        served = sum(result.served_by.values())
        assert served > 0


class TestMultiCoreDriver:
    def test_four_core_mix_runs(self, small_random_trace, small_stream_trace):
        traces = [small_random_trace, small_stream_trace] * 2
        result = run_multicore_mix(traces, build_scenario("baseline"))
        assert len(result.ipcs) == 4
        assert all(ipc > 0 for ipc in result.ipcs)
        assert result.dram_transactions > 0

    def test_empty_mix_rejected(self):
        with pytest.raises(ValueError):
            run_multicore_mix([], build_scenario("baseline"))

    def test_shared_bandwidth_slows_cores_down(self, small_chase_trace):
        single = run_single_core(
            small_chase_trace,
            build_scenario("baseline"),
            config=cascade_lake_multi_core(4),
        )
        mix = run_multicore_mix(
            [small_chase_trace] * 4,
            build_scenario("baseline"),
            config=cascade_lake_multi_core(4),
        )
        assert max(mix.ipcs) <= single.ipc * 1.05

    def test_weighted_speedup_helper(self, small_random_trace):
        mix = run_multicore_mix([small_random_trace] * 2, build_scenario("baseline"))
        ws = mix.weighted_speedup([1.0, 1.0])
        assert ws == pytest.approx(sum(mix.ipcs))

    def test_scheme_comparison_runs(self, small_random_trace):
        traces = [small_random_trace] * 2
        baseline = run_multicore_mix(traces, build_scenario("baseline"))
        tlp = run_multicore_mix(traces, build_scenario("tlp"))
        assert tlp.dram_transactions > 0
        assert baseline.dram_transactions > 0

    @given(
        cores=st.lists(
            st.tuples(st.integers(0, 3), st.lists(st.integers(0, 2), max_size=12)),
            min_size=1,
            max_size=4,
        )
    )
    def test_interleave_order_matches_argmin_on_tied_cycles(self, cores):
        def order(interleave):
            log = []
            runners = [
                ScriptedRunner(core_id, start, increments, log)
                for core_id, (start, increments) in enumerate(cores)
            ]
            traces = [
                Trace.from_columns(
                    "scripted",
                    np.arange(len(increments)),
                    np.zeros(len(increments)),
                    np.full(len(increments), KIND_NON_MEM),
                )
                for _, increments in cores
            ]
            interleave(runners, traces)
            return log

        assert order(multi_core._interleave) == order(argmin_interleave)

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        num_cores=st.integers(1, 4),
        rob_size=st.integers(4, 32),
        width=st.integers(1, 4),
        identical=st.booleans(),
        records=st.lists(RECORDS, min_size=4, max_size=4),
    )
    def test_interleave_matches_per_record_argmin(
        self, num_cores, rob_size, width, identical, records
    ):
        # Identical traces on every core make dispatch-cycle ties common,
        # which pins the lowest-core-id tie rule.
        if identical:
            records = [records[0]] * 4
        traces = [
            records_trace(f"t{core}", records[core]) for core in range(num_cores)
        ]
        system = replace(
            cascade_lake_multi_core(num_cores),
            core=CoreConfig(width=width, rob_size=rob_size),
        )
        original = MemoryHierarchy.demand_access

        def simulate(interleave):
            accesses = []

            def demand_access(hierarchy, pc, vaddr, cycle, is_write=False):
                accesses.append((hierarchy.core_id, pc, vaddr, cycle, is_write))
                return original(hierarchy, pc, vaddr, cycle, is_write)

            with mock.patch.object(
                MemoryHierarchy, "demand_access", demand_access
            ), mock.patch.object(multi_core, "_interleave", interleave):
                result = run_multicore_mix(
                    traces, build_scenario("baseline"), config=system
                )
            return accesses, asdict(result)

        expected_accesses, expected = simulate(argmin_interleave)
        accesses, result = simulate(multi_core._interleave)
        assert accesses == expected_accesses
        assert result == expected
