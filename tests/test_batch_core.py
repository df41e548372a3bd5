"""Batch core equivalence: the chunked fused loop vs. the scalar reference.

The batch core of :mod:`repro.sim.batch` is an optimization, not a model
change: for every supported component combination it must produce results
**bit-identical** to the record-at-a-time scalar path, and it must silently
fall back to that path for combinations it does not model.  These tests pin
both properties across every scheme, every L1D prefetcher, every trace
family (GAP generator, SPEC-like generator, imported ChampSim fixture),
FLP/Hermes threshold and table settings away from the defaults, and the
plumbing that routes ``core="batch"`` through configs and the API
facade without perturbing cache keys.
"""

from __future__ import annotations

import dataclasses
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.common.config import (
    CacheConfig,
    SystemConfig,
    cascade_lake_multi_core,
    cascade_lake_single_core,
    system_config_from_dict,
    system_config_to_dict,
)
from repro.core.flp import FirstLevelPerceptron
from repro.memory.cache import Cache
from repro.memory.hierarchy import MemoryHierarchy
from repro.obs import tracer
from repro.predictors.hermes import HermesPredictor
from repro.prefetchers.ipcp import IPCPPrefetcher
from repro.prefetchers.ppf import PerceptronPrefetchFilter
from repro.prefetchers.spp import SPPPrefetcher
from repro.sim.batch import batch_unsupported_reason, run_single_core_batched
from repro.sim.engine import single_core_point
from repro.sim.multi_core import run_multicore_mix
from repro.sim.scenarios import SCHEMES, build_hierarchy, build_scenario
from repro.sim.single_core import run_single_core
from repro.traces.ingest import import_champsim_trace, read_champsim_trace
from repro.traces.store import TraceStore
from repro.traces.trace import KIND_LOAD, KIND_NON_MEM, KIND_STORE, Trace
from repro.workloads import gap_trace, spec_like_trace
from repro.workloads.catalog import default_catalog

FIXTURES = Path(__file__).parent / "fixtures"
CHAMPSIM_FIXTURE = FIXTURES / "champsim_small.trace"

L1D_PREFETCHERS = ("ipcp", "berti", "next_line", "stride", "none")

ACCESSES = 1_500


def _system(core: str) -> SystemConfig:
    return dataclasses.replace(cascade_lake_single_core(), sim_core=core)


def _run_pair(trace, scheme: str, l1d_prefetcher: str = "ipcp"):
    scenario = build_scenario(scheme, l1d_prefetcher=l1d_prefetcher)
    scalar = run_single_core(trace, scenario, config=_system("scalar"))
    batch = run_single_core(trace, scenario, config=_system("batch"))
    return scalar, batch


def _assert_identical(scalar, batch) -> None:
    assert dataclasses.asdict(batch) == dataclasses.asdict(scalar)


@pytest.fixture(scope="module")
def gap_bfs_trace():
    return gap_trace("bfs", graph="urand", scale="medium",
                     max_memory_accesses=ACCESSES)


@pytest.fixture(scope="module")
def spec_mcf_trace():
    return spec_like_trace("mcf_like", num_memory_accesses=ACCESSES)


class TestSchemePrefetcherEquivalence:
    """Every scheme x every L1D prefetcher: batch == scalar, bit for bit.

    Schemes whose components the batch core does not model (e.g.
    ``delayed_tsp``'s always-delay predictor subclass) exercise the silent
    scalar fallback here -- the equality then pins that the fallback is
    complete, not partial.
    """

    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    @pytest.mark.parametrize("l1d_prefetcher", L1D_PREFETCHERS)
    def test_bit_identical(self, gap_bfs_trace, scheme, l1d_prefetcher):
        scalar, batch = _run_pair(gap_bfs_trace, scheme, l1d_prefetcher)
        _assert_identical(scalar, batch)


class TestTraceFamilyEquivalence:
    """Batch == scalar on every trace family the repo can produce."""

    @pytest.mark.parametrize("scheme", ("baseline", "hermes", "tlp"))
    def test_spec_like_generator(self, spec_mcf_trace, scheme):
        scalar, batch = _run_pair(spec_mcf_trace, scheme)
        _assert_identical(scalar, batch)

    def test_gap_generator_all_kernels_tlp(self):
        for kernel in ("bfs", "pr", "sssp"):
            trace = gap_trace(kernel, graph="kron", scale="medium",
                              max_memory_accesses=1_000)
            scalar, batch = _run_pair(trace, "tlp")
            _assert_identical(scalar, batch)

    def test_champsim_fixture(self):
        trace = read_champsim_trace(CHAMPSIM_FIXTURE, name="fixture")
        scalar, batch = _run_pair(trace, "tlp")
        _assert_identical(scalar, batch)

    @pytest.mark.parametrize(
        "scheme,l1d_prefetcher",
        (("tlp", "berti"), ("ppf", "ipcp"), ("ppf", "berti")),
    )
    def test_champsim_fixture_batch_kernels(self, scheme, l1d_prefetcher):
        """The imported-trace path through every newly fused kernel:

        Berti's batch delta kernel and the aggressive-SPP + PPF L2 path
        (the ``tlp``/IPCP combination is pinned by ``test_champsim_fixture``).
        """
        trace = read_champsim_trace(CHAMPSIM_FIXTURE, name="fixture")
        scalar, batch = _run_pair(trace, scheme, l1d_prefetcher)
        _assert_identical(scalar, batch)

    def test_tiny_chunks_hit_every_boundary(self, spec_mcf_trace):
        """A 7-record chunk forces lead-window/boundary code on every chunk."""
        scenario = build_scenario("tlp")
        system = _system("scalar")
        scalar_hierarchy = build_hierarchy(scenario, config=system)
        scalar = run_single_core(spec_mcf_trace, scenario, config=system,
                                 hierarchy=scalar_hierarchy)
        batch_hierarchy = build_hierarchy(scenario, config=system)
        runner = run_single_core_batched(
            spec_mcf_trace, batch_hierarchy, system.core, 0.2, chunk_records=7
        )
        result = runner.finish()
        batch_hierarchy.finalize()
        assert result.instructions > 0
        assert batch_hierarchy.stats.demand_loads == (
            scalar_hierarchy.stats.demand_loads
        )
        assert batch_hierarchy.dram.stats.total_transactions == (
            scalar_hierarchy.dram.stats.total_transactions
        )
        assert result.ipc == pytest.approx(scalar.ipc)


class TestChunkBoundarySweep:
    """Chunk size must never change results: every boundary is mid-stream.

    Sweeps chunk sizes from the degenerate 1-record chunk (every record
    crosses a boundary) through primes that misalign with internal windows
    up to one chunk covering the whole trace, against the same scalar
    reference.  Runs under ``ppf`` so the boundary also cuts through the
    fused SPP lookahead + PPF filter state.
    """

    @pytest.fixture(scope="class")
    def scalar_reference(self):
        trace = spec_like_trace("mcf_like", num_memory_accesses=600)
        scenario = build_scenario("ppf", l1d_prefetcher="ipcp")
        system = _system("scalar")
        hierarchy = build_hierarchy(scenario, config=system)
        result = run_single_core(trace, scenario, config=system,
                                 hierarchy=hierarchy)
        return trace, scenario, result, hierarchy

    @pytest.mark.parametrize("chunk_records", (1, 7, 61, 600, 10_000))
    def test_chunk_size_invariance(self, scalar_reference, chunk_records):
        trace, scenario, scalar, scalar_hierarchy = scalar_reference
        system = _system("scalar")
        hierarchy = build_hierarchy(scenario, config=system)
        runner = run_single_core_batched(
            trace, hierarchy, system.core, 0.2, chunk_records=chunk_records
        )
        result = runner.finish()
        hierarchy.finalize()
        assert dataclasses.asdict(hierarchy.stats) == (
            dataclasses.asdict(scalar_hierarchy.stats)
        )
        assert dataclasses.asdict(hierarchy.dram.stats) == (
            dataclasses.asdict(scalar_hierarchy.dram.stats)
        )
        assert result.ipc == pytest.approx(scalar.ipc)


class TestEvictionHeavyEquivalence:
    """Tiny caches make most fills evict: batch == scalar.

    With 2x2 L1D, 4x2 L2C and 8x2 LLC (sets x ways), a skewed stream over
    256 blocks (a hot 4, a warm 20, a cold tail) hits and evicts at every
    level, so the fused recency updates, victim choice, eviction counters
    and eviction listeners run on most accesses instead of rarely, as they
    do at the Table III sizes.
    """

    @staticmethod
    def _system(core: str) -> SystemConfig:
        return dataclasses.replace(
            _system(core),
            l1d=CacheConfig("L1D", 2 * 2 * 64, 2, 4),
            l2c=CacheConfig("L2C", 4 * 2 * 64, 2, 10),
            llc=CacheConfig("LLC", 8 * 2 * 64, 2, 36),
        )

    @pytest.fixture(scope="class")
    def skewed_trace(self):
        rng = np.random.default_rng(7)
        count = 3_000
        tier = rng.choice(3, size=count, p=(0.4, 0.35, 0.25))
        blocks = np.where(
            tier == 0,
            rng.integers(0, 4, count),
            np.where(tier == 1, rng.integers(4, 24, count),
                     rng.integers(24, 256, count)),
        )
        vaddr = 0x1000_0000 + blocks * 64 + rng.integers(0, 64, count)
        pc = 0x40_0000 + rng.integers(0, 16, count) * 4
        kind = rng.choice(
            [KIND_LOAD, KIND_STORE, KIND_NON_MEM], size=count,
            p=(0.55, 0.1, 0.35),
        )
        return Trace.from_columns("eviction-heavy", pc, vaddr, kind)

    @pytest.mark.parametrize(
        "scheme,l1d_prefetcher",
        (("tlp", "ipcp"), ("ppf", "ipcp"), ("tlp", "berti")),
    )
    def test_bit_identical(self, skewed_trace, scheme, l1d_prefetcher):
        scenario = build_scenario(scheme, l1d_prefetcher=l1d_prefetcher)
        results = {}
        for core in ("scalar", "batch"):
            system = self._system(core)
            hierarchy = build_hierarchy(scenario, config=system)
            assert batch_unsupported_reason(hierarchy) is None
            results[core] = run_single_core(
                skewed_trace, scenario, config=system, hierarchy=hierarchy
            )
            for cache in (hierarchy.l1d, hierarchy.l2c, hierarchy.llc):
                assert cache.stats.demand_hits > 0, (core, cache.name)
                assert cache.stats.evictions > 0, (core, cache.name)
        _assert_identical(results["scalar"], results["batch"])


class TestTableCollisionStress:
    """Tiny predictor tables force index collisions on every structure.

    With 4-entry SPP signature tables, 8-entry pattern tables and a
    16-entry PPF weight table, distinct streams constantly alias into the
    same entries; the fused kernels must replay exactly the same collision
    and saturation behaviour as the object reference.
    """

    def _hierarchy(self):
        return MemoryHierarchy(
            cascade_lake_single_core(),
            l1d_prefetcher=IPCPPrefetcher(ip_table_entries=8,
                                          cplx_table_entries=16,
                                          region_entries=4),
            l2_prefetcher=SPPPrefetcher(signature_table_entries=4,
                                        pattern_table_entries=8,
                                        aggressive=True),
            l2_prefetch_filter=PerceptronPrefetchFilter(table_entries=16),
        )

    def test_collisions_bit_identical(self, spec_mcf_trace):
        scenario = build_scenario("ppf", l1d_prefetcher="ipcp")
        results = {}
        for core in ("scalar", "batch"):
            hierarchy = self._hierarchy()
            assert batch_unsupported_reason(hierarchy) is None
            results[core] = run_single_core(
                spec_mcf_trace, scenario, config=_system(core),
                hierarchy=hierarchy,
            )
        _assert_identical(results["scalar"], results["batch"])


class TestOffChipPredictorSettings:
    """The fused loop's FLP/Hermes calls match the scalar core away from
    the defaults: every threshold band, selective delay on and off, and
    resized weight tables.  Compares results, weights, perceptron stats,
    decision counters and the last prediction after the measured phase."""

    @pytest.mark.parametrize(
        "scheme,make",
        (
            ("tlp", lambda: FirstLevelPerceptron(tau_high=4, tau_low=-4)),
            ("tlp", lambda: FirstLevelPerceptron(
                tau_high=4, tau_low=-4, selective_delay=False)),
            ("tlp", lambda: FirstLevelPerceptron(tau_high=30, tau_low=10)),
            ("tlp", lambda: FirstLevelPerceptron(table_entries=64)),
            ("flp", lambda: FirstLevelPerceptron(
                tau_high=0, tau_low=0, table_entries=2048)),
            ("hermes", lambda: HermesPredictor(activation_threshold=-2)),
            ("hermes", lambda: HermesPredictor(activation_threshold=12)),
            ("hermes_ppf", lambda: HermesPredictor(table_entries=64)),
        ),
    )
    def test_bit_identical(self, gap_bfs_trace, scheme, make):
        scenario = build_scenario(scheme)
        results, predictors = {}, {}
        for core in ("scalar", "batch"):
            hierarchy = build_hierarchy(scenario, config=_system(core))
            hierarchy.offchip_predictor = predictors[core] = make()
            assert batch_unsupported_reason(hierarchy) is None
            results[core] = run_single_core(
                gap_bfs_trace, scenario, config=_system(core),
                hierarchy=hierarchy,
            )
        _assert_identical(results["scalar"], results["batch"])
        scalar, batch = predictors["scalar"], predictors["batch"]
        assert batch.perceptron.stats == scalar.perceptron.stats
        # bfs mixes on- and off-chip loads, so both signs get predicted.
        stats = batch.perceptron.stats
        assert 0 < stats.positive_predictions < stats.predictions
        assert batch.perceptron._weights.tolist() == (
            scalar.perceptron._weights.tolist()
        )
        assert batch.last_prediction is scalar.last_prediction
        for name in (
            "immediate_decisions", "delayed_decisions", "negative_decisions",
        ):
            assert getattr(batch, name, None) == getattr(scalar, name, None)


class TestFallbacks:
    def test_supported_schemes(self):
        for scheme in ("baseline", "hermes", "tlp", "flp", "ppf"):
            hierarchy = build_hierarchy(build_scenario(scheme))
            assert batch_unsupported_reason(hierarchy) is None, scheme

    def test_predictor_subclass_falls_back(self):
        hierarchy = build_hierarchy(build_scenario("delayed_tsp"))
        assert batch_unsupported_reason(hierarchy) is not None

    def test_hierarchy_subclass_falls_back(self):
        class InstrumentedHierarchy(MemoryHierarchy):
            pass

        hierarchy = InstrumentedHierarchy(cascade_lake_single_core())
        assert batch_unsupported_reason(hierarchy) is not None

    def test_fallback_reason_names_component(self):
        for scheme in ("baseline", "hermes", "tlp", "ppf"):
            hierarchy = build_hierarchy(build_scenario(scheme))
            assert batch_unsupported_reason(hierarchy) is None, scheme

        reason = batch_unsupported_reason(
            build_hierarchy(build_scenario("delayed_tsp"))
        )
        assert reason is not None
        assert "unmodelled off-chip predictor" in reason

        class InstrumentedHierarchy(MemoryHierarchy):
            pass

        reason = batch_unsupported_reason(
            InstrumentedHierarchy(cascade_lake_single_core())
        )
        assert reason == "hierarchy subclass InstrumentedHierarchy"

    def test_fallback_reason_names_cache_subclass(self):
        class InstrumentedCache(Cache):
            pass

        hierarchy = build_hierarchy(build_scenario("tlp"))
        hierarchy.shared.llc = InstrumentedCache(hierarchy.llc.config)
        reason = batch_unsupported_reason(hierarchy)
        assert reason == "LLC: unmodelled cache shape (InstrumentedCache)"

    def test_fallback_emits_obs_event_and_warns_once(
        self, tmp_path, spec_mcf_trace, caplog
    ):
        """A ``--core batch`` fallback is never silent: it emits one
        ``sim.batch.fallback`` obs event per run naming the offending
        component, and logs a warning once per reason per process."""
        tracer.configure(tmp_path, proc="t-fallback")
        try:
            scenario = build_scenario("delayed_tsp")
            with caplog.at_level("WARNING", logger="repro.sim.batch"):
                for _ in range(2):
                    run_single_core(
                        spec_mcf_trace, scenario, config=_system("batch")
                    )
            tracer.shutdown()
        finally:
            tracer.disable()
        events = [
            record for record in tracer.load_run(tmp_path)
            if record.get("name") == "sim.batch.fallback"
        ]
        # One event per fallback occurrence (the warmup and measured phases
        # fall back separately), so two runs emit at least two events.
        assert len(events) >= 2
        for event in events:
            assert "unmodelled off-chip predictor" in event["attrs"]["reason"]
        warning_lines = [
            message for message in caplog.messages
            if "fell back to the scalar reference path" in message
        ]
        assert len(warning_lines) <= 1

    def test_warning_fires_once_per_reason(self, caplog):
        from repro.sim.batch import _note_scalar_fallback

        reason = "test-only synthetic reason (once-per-reason check)"
        with caplog.at_level("WARNING", logger="repro.sim.batch"):
            _note_scalar_fallback(reason)
            _note_scalar_fallback(reason)
        warnings_seen = [m for m in caplog.messages if reason in m]
        assert len(warnings_seen) == 1

    def test_multicore_runs_scalar_regardless_of_core(self, spec_mcf_trace):
        traces = [spec_mcf_trace, spec_mcf_trace]
        scenario = build_scenario("tlp")
        results = {}
        for core in ("scalar", "batch"):
            config = dataclasses.replace(
                cascade_lake_multi_core(num_cores=2), sim_core=core
            )
            results[core] = run_multicore_mix(
                traces, scenario, config=config, mix_name="mix"
            )
        assert dataclasses.asdict(results["batch"]) == (
            dataclasses.asdict(results["scalar"])
        )


class TestSimCoreConfig:
    def test_rejects_unknown_core(self):
        with pytest.raises(ValueError):
            dataclasses.replace(cascade_lake_single_core(), sim_core="simd")

    def test_round_trip_defaults_to_scalar(self):
        payload = system_config_to_dict(cascade_lake_single_core())
        assert "sim_core" not in payload
        assert system_config_from_dict(payload).sim_core == "scalar"

    def test_cache_keys_shared_between_cores(self):
        """core="batch" is bit-identical, so it must not fork the cache."""
        points = {
            core: single_core_point(
                "bfs.urand", "tlp", "ipcp", 1_000, 0.2, system=_system(core)
            )
            for core in ("scalar", "batch")
        }
        assert points["scalar"].key() == points["batch"].key()
        assert json.loads(points["scalar"].system_json) == (
            json.loads(points["batch"].system_json)
        )


class TestTraceStoreKeywordRename:
    def test_catalog_build_store_alias_warns(self, tmp_path):
        store = TraceStore(tmp_path / "traces")
        catalog = default_catalog()
        with pytest.warns(DeprecationWarning, match="trace_store"):
            via_alias = catalog.build("spec.mcf_like", 400, store=store)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            canonical = catalog.build("spec.mcf_like", 400, trace_store=store)
        assert via_alias.as_lists() == canonical.as_lists()

    def test_catalog_build_rejects_both_keywords(self, tmp_path):
        store = TraceStore(tmp_path / "traces")
        with pytest.raises(TypeError):
            default_catalog().build(
                "spec.mcf_like", 400, trace_store=store, store=store
            )

    def test_import_champsim_store_alias_warns(self, tmp_path):
        store = TraceStore(tmp_path / "traces")
        with pytest.warns(DeprecationWarning, match="trace_store"):
            workload, _, _ = import_champsim_trace(
                CHAMPSIM_FIXTURE, store=store, name="alias"
            )
        assert workload == "imported.alias"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            workload, _, _ = import_champsim_trace(
                CHAMPSIM_FIXTURE, trace_store=store, name="canonical"
            )
        assert workload == "imported.canonical"


class TestApiFacade:
    def test_all_names_resolve(self):
        from repro import api

        missing = [name for name in api.__all__ if not hasattr(api, name)]
        assert not missing

    def test_simulate_point_cores_identical(self):
        from repro import api

        results = {
            core: api.simulate_point(
                "spec.mcf_like", "tlp", memory_accesses=1_000, core=core
            )
            for core in ("scalar", "batch")
        }
        assert dataclasses.asdict(results["batch"]) == (
            dataclasses.asdict(results["scalar"])
        )

    def test_run_sweep_smoke(self):
        from repro import api

        spec = api.SweepSpec(
            single_core=(
                api.SingleCoreSweep(
                    workloads=("spec.mcf_like",),
                    schemes=("baseline", "tlp"),
                    l1d_prefetchers=("ipcp",),
                ),
            )
        )
        config = api.ExperimentConfig(memory_accesses=1_000)
        results = api.run_sweep(
            spec, config=config, core="batch", use_result_cache=False, jobs=1
        )
        tlp = results.single_core("spec.mcf_like", "tlp", l1d_prefetcher="ipcp")
        baseline = results.single_core(
            "spec.mcf_like", "baseline", l1d_prefetcher="ipcp"
        )
        assert tlp.ipc > 0 and baseline.ipc > 0

    def test_load_trace(self):
        from repro import api

        trace = api.load_trace("spec.omnetpp_like", memory_accesses=500)
        assert trace.num_memory_accesses == 500
