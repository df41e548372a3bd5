"""The benchmark's four workloads and how each one is measured.

Each workload has three phases:

* ``setup`` -- trace generation (or trace-store prewarm) and hierarchy
  construction, repeated :data:`SETUP_REPEATS` times so ``setup_s`` is a
  median;
* ``measure`` -- the untraced run that yields the end-to-end metrics: the
  workload's points are simulated round-robin until the time budget is
  spent, and every result is checked (conservation laws, golden digest);
* ``trace_layers`` -- the separate traced run that yields the per-layer
  metrics: one untraced reference pass, then the same pass with every
  layer boundary wrapped (see :mod:`spans`), with each wrapper's call count
  cross-checked against the component's own exact counter.

Workload choice (why each exists) is recorded in ``README.md``.
"""

from __future__ import annotations

import gc
import hashlib
import math
import os
import shutil
import statistics
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter, thread_time, sleep

import repro.sim.engine as sim_engine
import repro.sim.multi_core as sim_multi_core
import repro.sim.single_core as sim_single_core
from repro import api
from repro.common.types import MemLevel
from repro.cpu.core import CoreRunner
from repro.experiments.common import quick_experiment_config
from repro.memory.cache import Cache
from repro.predictors.perceptron import HashedPerceptron
from repro.sim.batch import DEFAULT_CHUNK_RECORDS, batch_unsupported_reason
from repro.sim.result_cache import ResultCache
from repro.sim.scenarios import build_hierarchy
from repro.workloads.graphs import clear_graph_memo

import checks
from hostspeed import HostSpeed
from spans import SpanRecorder, patched

#: Setup is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 3
#: Per-trace budget of the untimed warm-up run of every simulation point,
#: which takes first-call costs (lazy imports, first allocations) out of the
#: first timed repetition.
WARMUP_RUN_BUDGET = 4_000
#: Warm-cache passes per cold pass of the campaign, and the pause after
#: each.  A warm pass takes about 10 ms and the host's speed shifts over
#: seconds; without the pause, the passes after one cold pass all land in
#: the same 0.1 s window.
WARM_PASSES = 10
WARM_GAP_S = 0.1
#: Warm result-cache reads of the simulation workloads: after each timed
#: point, every cached result is read back in this many rounds of
#: :data:`WARM_READS_PER_ROUND` reads each.  A result's reads in one round
#: are one timing sample.  One read takes well under a millisecond, so a
#: sample averages several (and the garbage collections they trigger), and
#: the host's speed shifts over seconds, so the rounds are spread over the
#: whole run rather than taken in one burst.  Each round costs a host-speed
#: probe (about 25 ms).
WARM_ROUNDS_PER_POINT = 12
WARM_READS_PER_ROUND = 30
#: Warm passes in the traced run.
TRACED_WARM_PASSES = 4
#: Single-core per-point budget: the ROADMAP's 100k-access regime, where
#: spec.mcf_like's demand footprint exceeds the LLC's 22,528 blocks.
SC_BUDGET = 100_000
#: Per-core budget of the 4-core mix: about 7 s per point on the 2-CPU
#: build host, so a 25-second run times each scheme once or twice.
MC_BUDGET = 20_000
WARMUP_FRACTION = 0.2
GAP_SCALE = "medium"

SC_TRACES = ("spec.mcf_like", "bfs.urand")
MC_TRACES = ("spec.mcf_like", "spec.omnetpp_like", "bfs.urand", "pr.urand")
FIG10_SCHEMES = ("baseline", "hermes", "ppf", "hermes_ppf", "tlp")


def golden_budgets() -> dict:
    """The input settings the committed golden digests were generated at."""
    return {
        "sc_budget": SC_BUDGET, "mc_budget": MC_BUDGET,
        "warmup_fraction": WARMUP_FRACTION, "gap_scale": GAP_SCALE,
        "sc_traces": list(SC_TRACES), "mc_traces": list(MC_TRACES),
    }


def build_trace(workload: str, budget: int, seed: int):
    """Generate one workload trace from the benchmark seed."""
    suite, name = workload.split(".", 1)
    if suite == "spec":
        return api.spec_like_trace(name, num_memory_accesses=budget, seed=seed)
    return api.gap_trace(
        suite, graph=name, scale=GAP_SCALE, max_memory_accesses=budget,
        seed=seed,
    )


def memory_records(trace) -> int:
    return trace.num_memory_accesses


def measured_records(trace) -> int:
    return len(trace) - int(len(trace) * WARMUP_FRACTION)


@dataclass(frozen=True)
class Point:
    """One (workload, scheme, L1D prefetcher) simulation of a workload."""

    workload: str
    scheme: str
    prefetcher: str

    @property
    def label(self) -> str:
        return f"{self.workload}/{self.scheme}/{self.prefetcher}"


@dataclass
class Outcome:
    """What one run measured, checked and counted."""

    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    samples: dict = field(default_factory=dict)  # name -> raw samples
    attempted: int = 0
    failures: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)  # label -> exact counters
    digests: dict = field(default_factory=dict)  # label -> result digest
    notes: list = field(default_factory=list)
    warm_problems: set = field(default_factory=set)
    recorder: SpanRecorder | None = None

    def check(self, label: str, problems) -> None:
        """Count one attempted point; record it as failed on any problem."""
        self.attempted += 1
        if problems:
            self.failures.append(f"{label}: " + "; ".join(problems))

    def record(self, label: str, digest: str, counters: dict) -> list[str]:
        """Pin a point's digest and counters; a repeat must match exactly."""
        problems = []
        if self.digests.setdefault(label, digest) != digest:
            problems.append("result digest changed between repetitions")
        if self.counters.setdefault(label, counters) != counters:
            problems.append("work counters changed between repetitions")
        return problems


class Clock:
    """The run's measurement budget, in wall seconds."""

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self.start = perf_counter()

    def fits(self, estimate: float) -> bool:
        return perf_counter() - self.start + estimate <= self.seconds


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def resident_mb() -> float:
    """Resident memory of this process now, after a full collection.

    ``getrusage``'s high-water mark is not used: the kernel updates it
    lazily, so it caught or missed the same transient peak from run to run
    of identical work (200 vs 262 MB).  Settled checkpoints repeat.
    """
    gc.collect()
    with open("/proc/self/statm", "r", encoding="ascii") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def hierarchy_counters(hierarchy) -> dict:
    """Deterministic work counters read from a hierarchy's public stats.

    Hierarchy, cache and DRAM counters cover the measured phase (they are
    reset after warm-up); predictor, filter and prefetcher counters cover
    the whole run.
    """
    stats = hierarchy.stats
    counters = {
        name: getattr(stats, name)
        for name in (
            "demand_loads", "demand_stores", "offchip_predictions",
            "speculative_requests", "l1d_prefetch_candidates",
            "l1d_prefetches_dropped_resident", "l1d_prefetches_filtered",
            "l1d_prefetches_issued", "l2c_prefetch_candidates",
            "l2c_prefetches_dropped_resident", "l2c_prefetches_filtered",
            "l2c_prefetches_issued", "useful_l1d_prefetches",
            "useless_l1d_prefetches",
        )
    }
    for level, cache in (("l1d", hierarchy.l1d), ("l2c", hierarchy.l2c),
                         ("llc", hierarchy.llc)):
        cstats = cache.stats
        for name in ("demand_accesses", "demand_hits", "demand_fills",
                     "prefetch_fills", "evictions"):
            counters[f"{level}.{name}"] = getattr(cstats, name)
    dram = hierarchy.dram.stats
    counters["dram.transactions"] = dram.total_transactions
    counters["dram.queue_cycles"] = dram.total_queue_cycles
    slp = hierarchy.l1d_prefetch_filter
    if slp is not None:
        counters["slp.consultations"] = slp.consultations
        counters["slp.discarded"] = slp.discarded
    ppf = hierarchy.l2_prefetch_filter
    if ppf is not None:
        counters["ppf.consultations"] = ppf.consultations
        counters["ppf.rejected"] = ppf.rejected
    if hierarchy.l2_prefetcher is not None:
        counters["spp.lookahead_prefetches"] = (
            hierarchy.l2_prefetcher.lookahead_prefetches
        )
    for tag, perceptron in perceptrons(hierarchy):
        counters[f"{tag}.trains"] = perceptron.stats.training_events
        counters[f"{tag}.weight_updates"] = perceptron.stats.weight_updates
    return counters


def perceptrons(hierarchy):
    """``(tag, HashedPerceptron)`` of the off-chip predictor and L1D filter."""
    found = []
    predictor = getattr(hierarchy.offchip_predictor, "perceptron", None)
    if predictor is not None:
        found.append(("offchip.perceptron", predictor))
    slp = hierarchy.l1d_prefetch_filter
    if slp is not None and getattr(slp, "perceptron", None) is not None:
        found.append(("slp.perceptron", slp.perceptron))
    return found


def cross_check(expected: dict) -> list[str]:
    """``{what: (wrapper count, exact counter)}`` -> mismatches."""
    return [
        f"{what}: wrapper counted {seen}, exact counter says {exact}"
        for what, (seen, exact) in expected.items()
        if seen != exact
    ]


def model_metrics(results: dict, baselines: dict) -> dict:
    """Reported model outputs over a workload's points.

    ``results`` maps labels to single- or multi-core results; ``baselines``
    maps the label of each TLP point to the result of its baseline, for
    the TLP deltas.
    """
    ipcs, drams, accuracies = [], [], []
    for result in results.values():
        ipcs.extend(getattr(result, "ipcs", None) or [result.ipc])
        drams.append(result.dram_transactions)
        if hasattr(result, "l1d_prefetch_accuracy"):
            accuracies.append(result.l1d_prefetch_accuracy)
    gains, deltas = [], []
    for label, base in baselines.items():
        tlp = results.get(label)
        if tlp is None:
            continue
        tlp_ipc = statistics.fmean(getattr(tlp, "ipcs", None) or [tlp.ipc])
        base_ipc = statistics.fmean(getattr(base, "ipcs", None) or [base.ipc])
        gains.append(100.0 * (tlp_ipc / base_ipc - 1.0))
        deltas.append(
            100.0 * (tlp.dram_transactions / base.dram_transactions - 1.0))
    return {
        "model.ipc": statistics.fmean(ipcs) if ipcs else 0.0,
        "model.dram_txn": statistics.fmean(drams) if drams else 0.0,
        "model.tlp_ipc_gain_pct": statistics.fmean(gains) if gains else 0.0,
        "model.tlp_dram_delta_pct": statistics.fmean(deltas) if deltas else 0.0,
        "model.l1d_prefetch_accuracy": (
            statistics.fmean(accuracies) if accuracies else 0.0
        ),
    }


def result_cache_key(workload: str, seed: int, label: str, budget: int) -> str:
    text = f"{workload}|seed={seed}|budget={budget}|{label}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]


class Workload:
    """Shared plumbing: setup repeats, goldens, warm result-cache passes."""

    name = ""

    def __init__(self, seed: int, workdir: Path, goldens: dict) -> None:
        self.seed = seed
        self.workdir = workdir
        self.goldens = goldens
        self.setup_samples: list[float] = []
        #: Raw CPU and wall seconds of every timed call, by label.
        self.raw: dict[str, list[float]] = {}
        self.wall: dict[str, list[float]] = {}
        self.host = HostSpeed()
        #: The traced run times without host-speed probes, which would
        #: otherwise land inside its spans.
        self.tracing = False
        self.build_samples: list[float] = []
        self.hierarchy_build_ms: list[float] = []
        #: Resident memory at each settled checkpoint (after set-up, after
        #: every timed point); ``peak_rss_mb`` is their maximum.
        self.rss_mb: list[float] = []

    def timed(self, label: str, call, *args, **kwargs):
        """Call once; return ``(result, seconds, raw cpu seconds)``.

        Every timing the benchmark reports is CPU seconds of the main
        thread, normalised to the reference host speed (:mod:`hostspeed`).
        The benchmark does all of its work in this one thread (the campaign
        runs with ``jobs=1``), so on an idle host CPU and wall time agree;
        the report gives the CPU time of any other thread.  On a shared
        host, wall time also counts the time the process waited for a CPU:
        behind other processes, or while the hypervisor ran other guests
        (steal time, which a Linux guest with paravirtual steal-time
        accounting leaves out of a task's CPU time).  Raw CPU and wall
        seconds are kept under ``label`` and reported alongside.  In the
        traced run ``seconds`` is raw CPU time.
        """
        if self.tracing:
            wall, cpu = perf_counter(), thread_time()
            result = call(*args, **kwargs)
            raw = thread_time() - cpu
            seconds, wall = raw, perf_counter() - wall
        else:
            result, seconds, raw, wall = self.host.timed(call, *args, **kwargs)
        self.raw.setdefault(label, []).append(raw)
        self.wall.setdefault(label, []).append(wall)
        return result, seconds, raw

    def forget_points(self) -> None:
        """Drop the raw and wall times of the untimed warm-up runs."""
        for point in self.points:
            self.raw.pop(point.label, None)
            self.wall.pop(point.label, None)

    def golden_for(self, label: str):
        return (
            self.goldens.get("seeds", {}).get(str(self.seed), {})
            .get(self.name, {}).get(label)
        )

    def has_goldens(self) -> bool:
        return bool(
            self.goldens.get("seeds", {}).get(str(self.seed), {}).get(self.name)
        )

    def setup(self) -> None:
        for _ in range(SETUP_REPEATS):
            clear_graph_memo()
            gc.collect()
            _, seconds, _ = self.timed("setup", self.setup_once)
            self.setup_samples.append(seconds)
            self.rss_mb.append(resident_mb())

    def setup_once(self) -> None:
        raise NotImplementedError

    def round_robin(self, seconds: float, out: Outcome, run_point) -> dict:
        """Run the points in turn until the budget would be exceeded.

        Every point runs at least once; after the first pass a point runs
        again only when its median wall duration still fits in the budget.
        ``run_point(point)`` simulates and checks one point and returns its
        seconds (see :meth:`timed`).  Returns ``{label: [seconds, ...]}``.
        """
        clock = Clock(seconds)
        durations = {point.label: [] for point in self.points}
        first = True
        while True:
            for point in self.points:
                if not first and not clock.fits(
                        median(self.wall.get(point.label, []))):
                    return durations
                try:
                    elapsed = run_point(point)
                except Exception as error:  # noqa: BLE001 -- counted as failed
                    out.check(point.label, [f"raised {error!r}"])
                    continue
                durations[point.label].append(elapsed)
                self.rss_mb.append(resident_mb())
            first = False

    def end_to_end(self, out: Outcome, durations: dict, accesses: dict,
                   warm: dict) -> None:
        """The point-batch metrics: sums of per-point medians."""
        batch_s = sum(median(durations[p.label]) for p in self.points)
        total = sum(accesses[p.label] for p in self.points)
        out.metrics["sim_acc_per_s"] = (ratio(total, batch_s), "1/s")
        out.metrics["cold_figure_s"] = (batch_s, "s")
        out.metrics["warm_figure_ms"] = (
            sum(median(warm[p.label]) for p in self.points), "ms")
        # Per-pass samples: pass k sums the k-th repetition of every point.
        passes = [
            sum(durations[p.label][k] for p in self.points)
            for k in range(min(len(v) for v in durations.values()))
        ]
        out.samples["sim_acc_per_s"] = [total / s for s in passes]
        out.samples["cold_figure_s"] = passes
        out.samples["warm_figure_ms"] = [
            sum(warm[p.label][-k] for p in self.points)
            for k in range(1, min(len(v) for v in warm.values()) + 1)
        ]
        out.notes.append(
            "repetitions per point: "
            + ", ".join(f"{k}={len(v)}" for k, v in durations.items())
        )
        for kind, table in (("raw cpu", self.raw), ("wall clock", self.wall)):
            seconds = sum(median(table.get(p.label, [])) for p in self.points)
            out.notes.append(
                f"{kind}: {ratio(total, seconds):.6g} acc/s, batch"
                f" {seconds:.4f} s (sums of per-point medians)")

    def warm_reads(self, out: Outcome, cache_dir: Path, keys: dict,
                   samples: dict) -> None:
        """Read every cached result back; one sample is ms per read of a round.

        In each round every result is read :data:`WARM_READS_PER_ROUND`
        times from a freshly opened cache, as a new process would, and the
        last read is checked to be bit-identical to the simulated result.
        Each round is normalised by the host-speed probes on either side of
        it.  The reads start on a settled heap: the timed point's garbage is
        collected first, so no collection of it lands inside a read.
        """

        def read_round() -> dict:
            times = {}
            for label, key in keys.items():
                cache = ResultCache(cache_dir)
                start = thread_time()
                for _ in range(WARM_READS_PER_ROUND):
                    result = cache.get(key)
                times[label] = thread_time() - start
                if result is None or cache.misses:
                    out.warm_problems.add(f"{label}: warm result cache missed")
                elif checks.digest(result) != out.digests.get(label):
                    out.warm_problems.add(
                        f"{label}: served result differs from the simulated one")
            return times

        gc.collect()
        for times, seconds, raw in self.host.timed_rounds(
                read_round, WARM_ROUNDS_PER_POINT):
            scale = seconds / raw if raw else 1.0
            for label, elapsed in times.items():
                samples[label].append(
                    elapsed * scale * 1e3 / WARM_READS_PER_ROUND)

    def timed_points(self, seconds: float, out: Outcome, simulate_point):
        """Round-robin timed points plus the interleaved warm-cache reads.

        ``simulate_point(point)`` simulates and checks one point and returns
        ``(result, seconds)``.  The first result of each point is committed
        to a result cache; after every timed point, all committed results
        are read back (:meth:`warm_reads`).
        """
        cache_dir = self.workdir / f"{self.name}-results"
        keys = {}
        warm = {point.label: [] for point in self.points}

        def run_point(point: Point) -> float:
            result, elapsed = simulate_point(point)
            if point.label not in keys:
                keys[point.label] = result_cache_key(
                    self.name, self.seed, point.label, self.budget)
                ResultCache(cache_dir).put(keys[point.label], result,
                                           point={"label": point.label})
            self.warm_reads(out, cache_dir, keys, warm)
            return elapsed

        durations = self.round_robin(seconds, out, run_point)
        out.check("warm result cache reads", sorted(out.warm_problems))
        return durations, warm


# ----------------------------------------------------------------------
# Single-core workloads (batch core)
# ----------------------------------------------------------------------
class SingleCore(Workload):
    """Single-core points on the batch core, at the 100k-access budget."""

    budget = SC_BUDGET
    points: tuple = ()

    def __init__(self, seed, workdir, goldens) -> None:
        super().__init__(seed, workdir, goldens)
        self.system = replace(api.cascade_lake_single_core(), sim_core="batch")
        self.traces = {}
        self.first_hierarchies = {}

    def setup_once(self) -> None:
        start = thread_time()
        self.traces = {
            workload: build_trace(workload, self.budget, self.seed)
            for workload in SC_TRACES
        }
        self.build_samples.append(thread_time() - start)
        self.first_hierarchies = {
            point.label: self.new_hierarchy(point) for point in self.points
        }

    def new_hierarchy(self, point: Point, scheme: str | None = None):
        scenario = api.build_scenario(scheme or point.scheme, point.prefetcher)
        start = thread_time()
        hierarchy = build_hierarchy(scenario, config=self.system)
        self.hierarchy_build_ms.append((thread_time() - start) * 1e3)
        return hierarchy

    def simulate(self, point: Point, hierarchy, scheme: str | None = None,
                 run=None, trace=None):
        """One timed batch-core run; raises when it would not run fused.

        Returns ``(result, seconds)``, seconds as from :meth:`timed`.
        """
        reason = batch_unsupported_reason(hierarchy)
        if reason is not None:
            raise RuntimeError(f"would fall back to the scalar core: {reason}")
        scenario = api.build_scenario(scheme or point.scheme, point.prefetcher)
        result, seconds, _ = self.timed(
            point.label, run or api.run_single_core,
            trace or self.traces[point.workload], scenario, config=self.system,
            warmup_fraction=WARMUP_FRACTION, hierarchy=hierarchy,
        )
        return result, seconds

    def warm_up(self) -> None:
        """Run every point once, untimed, on a short trace of its workload."""
        for point in self.points:
            self.simulate(
                point, self.new_hierarchy(point),
                trace=build_trace(point.workload, WARMUP_RUN_BUDGET, self.seed))
        self.forget_points()

    def reference_digest(self, point: Point) -> str:
        """Digest from the scalar reference core (seeds without goldens)."""
        result = api.run_single_core(
            self.traces[point.workload],
            api.build_scenario(point.scheme, point.prefetcher),
            config=api.cascade_lake_single_core(),
            warmup_fraction=WARMUP_FRACTION,
        )
        return checks.digest(result)

    def check_point(self, out: Outcome, point: Point, result, hierarchy,
                    extra_problems=()) -> None:
        width = self.system.core.width
        problems = list(extra_problems)
        problems += checks.single_core_laws(result, width, hierarchy)
        digest = checks.digest(result)
        golden = self.golden_for(point.label)
        if golden is not None and golden != digest:
            problems.append("result digest differs from the scalar golden")
        problems += out.record(point.label, digest, hierarchy_counters(hierarchy))
        out.check(point.label, problems)

    def finish_goldens(self, out: Outcome) -> None:
        if self.has_goldens():
            out.notes.append(
                f"golden digests: committed scalar-core goldens for seed {self.seed}"
            )
            return
        out.notes.append(
            f"golden digests: seed {self.seed} has no committed goldens;"
            " computed from the scalar reference core after the timed loop"
        )
        for point in self.points:
            if point.label in out.digests:
                mismatch = self.reference_digest(point) != out.digests[point.label]
                out.check(
                    f"{point.label} (scalar reference)",
                    ["batch result differs from the scalar reference"]
                    if mismatch else [],
                )

    # -- untraced run ---------------------------------------------------
    def measure(self, seconds: float) -> Outcome:
        out = Outcome()

        def simulate_point(point: Point):
            hierarchy = self.first_hierarchies.pop(point.label, None)
            if hierarchy is None:
                hierarchy = self.new_hierarchy(point)
            result, elapsed = self.simulate(point, hierarchy)
            self.check_point(out, point, result, hierarchy)
            return result, elapsed

        self.warm_up()
        durations, warm = self.timed_points(seconds, out, simulate_point)
        self.finish_goldens(out)
        accesses = {p.label: memory_records(self.traces[p.workload])
                    for p in self.points}
        self.end_to_end(out, durations, accesses, warm)
        return out

    # -- traced run -----------------------------------------------------
    def instrument(self, recorder: SpanRecorder, hierarchy, phases: dict):
        """Instance-level wrappers for one hierarchy's components."""
        targets = []
        prefetcher = hierarchy.l1d_prefetcher
        kind = type(prefetcher).__name__.replace("Prefetcher", "").lower()
        targets.append((prefetcher, "begin_batch", recorder.wrap(
            f"prefetchers.{kind}.begin_batch", prefetcher.begin_batch)))
        targets.append((prefetcher, "step_batch", recorder.wrap(
            f"prefetchers.{kind}.step", prefetcher.step_batch, count_items=len)))
        spp = hierarchy.l2_prefetcher
        nonempty = phases.setdefault("spp_nonempty", [0])

        def spp_items(predictions):
            nonempty[0] += 1
            return len(predictions)

        targets.append((spp, "step", recorder.wrap(
            "prefetchers.spp.step", spp.step, count_items=spp_items)))
        slp = hierarchy.l1d_prefetch_filter
        if slp is not None:
            targets.append((slp, "consult_step", recorder.wrap(
                "core.slp.consult", slp.consult_step)))
            targets.append((slp.perceptron, "train", recorder.wrap(
                "core.slp.train", slp.perceptron.train)))
        ppf = hierarchy.l2_prefetch_filter
        if ppf is not None:
            targets.append((ppf, "consult_step", recorder.wrap(
                "prefetchers.ppf.consult", ppf.consult_step)))
            targets.append((ppf, "train_step", recorder.wrap(
                "prefetchers.ppf.train", ppf.train_step)))
        original_reset = hierarchy.reset_stats

        def reset_stats(*args, **kwargs):
            phases["reset"] = recorder.snapshot()
            return original_reset(*args, **kwargs)

        targets.append((hierarchy, "reset_stats", reset_stats))
        return targets, kind

    def trace_layers(self) -> Outcome:
        out = Outcome()
        accesses = {p.label: memory_records(self.traces[p.workload])
                    for p in self.points}
        total_accesses = sum(accesses.values())

        # Untraced reference pass, plus the baseline and flp rungs of the
        # TLP points (the fused loop inlines the off-chip predictor, so its
        # cost is a rung difference, not a span).
        untraced = {}
        for point in self.points:
            _, untraced[point.label] = self.simulate(point, self.new_hierarchy(point))
        rungs = {}  # tlp label -> {scheme: seconds}
        baselines = {}  # tlp label -> baseline result
        for point in self.points:
            if point.scheme == "tlp":
                rungs[point.label] = {"tlp": untraced[point.label]}
                for scheme in ("baseline", "flp"):
                    result, elapsed = self.simulate(
                        point, self.new_hierarchy(point, scheme), scheme=scheme)
                    rungs[point.label][scheme] = elapsed
                    if scheme == "baseline":
                        baselines[point.label] = result

        recorder = SpanRecorder()
        run = recorder.wrap("sim.batch.run", api.run_single_core)
        results = {}
        measured_accesses = 0
        agg = {}
        traced_s = 0.0
        for point in self.points:
            hierarchy = self.new_hierarchy(point)
            phases = {}
            targets, kind = self.instrument(recorder, hierarchy, phases)
            before = recorder.snapshot()
            with patched(targets):
                try:
                    result, elapsed = self.simulate(point, hierarchy, run=run)
                except Exception as error:  # noqa: BLE001 -- counted as failed
                    out.check(point.label, [f"raised {error!r}"])
                    continue
            traced_s += elapsed
            after = recorder.snapshot()
            results[point.label] = result
            problems = self.cross_checks(point, hierarchy, kind, before,
                                         phases, after)
            self.check_point(out, point, result, hierarchy, problems)
            stats = hierarchy.stats
            measured_accesses += stats.demand_loads + stats.demand_stores
            self.accumulate(agg, hierarchy)
        self.finish_goldens(out)

        m = {}
        us = 1e6 / total_accesses
        for kind in ("ipcp", "berti"):
            m[f"prefetchers.{kind}.us_per_acc"] = us * (
                recorder.seconds(f"prefetchers.{kind}.begin_batch")
                + recorder.seconds(f"prefetchers.{kind}.step"))
            m[f"prefetchers.{kind}.candidates_per_acc"] = (
                recorder.item_count(f"prefetchers.{kind}.step") / total_accesses)
        m["prefetchers.ipcp.calls"] = recorder.count("prefetchers.ipcp.step")
        m["prefetchers.spp.us_per_acc"] = us * recorder.seconds("prefetchers.spp.step")
        m["prefetchers.spp.calls"] = recorder.count("prefetchers.spp.step")
        m["prefetchers.spp.l2_candidates_per_acc"] = (
            recorder.item_count("prefetchers.spp.step") / total_accesses)
        m["sim.batch.self_us_per_acc"] = us * recorder.self_seconds("sim.batch.run")
        self.layer_common(m, recorder, agg, total_accesses, measured_accesses)
        m["core.slp.rung_us_per_acc"] = us * sum(
            r["tlp"] - r["flp"] for r in rungs.values())
        m["core.flp.rung_us_per_acc"] = us * sum(
            r["flp"] - r["baseline"] for r in rungs.values())
        m.update(model_metrics(results, baselines))
        untraced_s = sum(untraced.values())
        m["bench.tracing_overhead"] = ratio(traced_s, untraced_s)
        out.metrics = m
        out.notes.append(
            f"tracing overhead: traced pass {traced_s:.3f} s / untraced pass"
            f" {untraced_s:.3f} s = {ratio(traced_s, untraced_s):.3f}x"
        )
        out.recorder = recorder
        return out

    def cross_checks(self, point, hierarchy, kind, before, phases, after):
        """Wrapper call counts against the components' exact counters."""
        trace = self.traces[point.workload]
        warm_records = int(len(trace) * WARMUP_FRACTION)
        measured = len(trace) - warm_records
        chunks = (math.ceil(warm_records / DEFAULT_CHUNK_RECORDS)
                  + math.ceil(measured / DEFAULT_CHUNK_RECORDS))
        reset = phases.get("reset", before)

        def delta(name, start, end=after, index=0):
            return end.get(name, (0, 0))[index] - start.get(name, (0, 0))[index]

        stats = hierarchy.stats
        expected = {
            f"{kind}.begin_batch calls vs trace chunks": (
                delta(f"prefetchers.{kind}.begin_batch", before), chunks),
            f"{kind}.step_batch calls vs demand records": (
                delta(f"prefetchers.{kind}.step", before),
                memory_records(trace)),
            f"{kind} measured candidates vs l1d_prefetch_candidates": (
                delta(f"prefetchers.{kind}.step", reset, index=1),
                stats.l1d_prefetch_candidates),
            "spp measured candidates vs l2c_prefetch_candidates": (
                delta("prefetchers.spp.step", reset, index=1),
                stats.l2c_prefetch_candidates),
            "spp depth>0 predictions vs lookahead_prefetches": (
                delta("prefetchers.spp.step", before, index=1)
                - phases["spp_nonempty"][0],
                hierarchy.l2_prefetcher.lookahead_prefetches),
        }
        slp = hierarchy.l1d_prefetch_filter
        if slp is not None:
            expected["slp consult calls vs consultations"] = (
                delta("core.slp.consult", before), slp.consultations)
            expected["slp measured consults vs unfiltered candidates"] = (
                delta("core.slp.consult", reset),
                stats.l1d_prefetch_candidates
                - stats.l1d_prefetches_dropped_resident)
            expected["slp train calls vs perceptron training_events"] = (
                delta("core.slp.train", before),
                slp.perceptron.stats.training_events)
        ppf = hierarchy.l2_prefetch_filter
        if ppf is not None:
            expected["ppf consult calls vs consultations"] = (
                delta("prefetchers.ppf.consult", before), ppf.consultations)
            expected["ppf measured consults vs unfiltered candidates"] = (
                delta("prefetchers.ppf.consult", reset),
                stats.l2c_prefetch_candidates
                - stats.l2c_prefetches_dropped_resident)
        if delta(f"prefetchers.{kind}.begin_batch", before) == 0:
            return ["the fused batch loop never ran"]
        return cross_check(expected)

    @staticmethod
    def accumulate(agg: dict, hierarchy) -> None:
        """Sum one hierarchy's counters into the workload aggregate."""
        for name, value in hierarchy_counters(hierarchy).items():
            agg[name] = agg.get(name, 0) + value
        location = hierarchy.stats.offchip_prediction_location
        agg["flp.located"] = agg.get("flp.located", 0) + sum(location.values())
        agg["flp.located_dram"] = (
            agg.get("flp.located_dram", 0) + location[MemLevel.DRAM]
        )

    @staticmethod
    def layer_common(m, recorder, agg, total_accesses, measured_accesses):
        """Per-layer metrics shared by the single- and multi-core paths."""
        us = 1e6 / total_accesses
        m["prefetchers.ppf.consult_us_per_acc"] = us * recorder.seconds(
            "prefetchers.ppf.consult")
        m["prefetchers.ppf.train_us_per_acc"] = us * recorder.seconds(
            "prefetchers.ppf.train")
        m["prefetchers.ppf.consults_per_acc"] = (
            recorder.count("prefetchers.ppf.consult") / total_accesses)
        m["prefetchers.ppf.reject_ratio"] = ratio(
            agg.get("ppf.rejected", 0), agg.get("ppf.consultations", 0))
        m["core.slp.consult_us_per_acc"] = us * recorder.seconds("core.slp.consult")
        m["core.slp.train_us_per_acc"] = us * recorder.seconds("core.slp.train")
        m["core.slp.consults_per_acc"] = (
            recorder.count("core.slp.consult") / total_accesses)
        m["core.slp.discard_ratio"] = ratio(
            agg.get("slp.discarded", 0), agg.get("slp.consultations", 0))
        m["core.flp.predictions_per_acc"] = ratio(
            agg.get("offchip_predictions", 0), measured_accesses)
        m["core.flp.precision"] = ratio(
            agg.get("flp.located_dram", 0), agg.get("flp.located", 0))
        m["predictors.perceptron.trains_per_acc"] = ratio(
            agg.get("offchip.perceptron.trains", 0)
            + agg.get("slp.perceptron.trains", 0), total_accesses)
        m["predictors.perceptron.weight_updates_per_acc"] = ratio(
            agg.get("offchip.perceptron.weight_updates", 0)
            + agg.get("slp.perceptron.weight_updates", 0), total_accesses)
        for level in ("l1d", "l2c", "llc"):
            m[f"memory.cache.{level}.fills_per_acc"] = ratio(
                agg.get(f"{level}.demand_fills", 0)
                + agg.get(f"{level}.prefetch_fills", 0), measured_accesses)
            m[f"memory.cache.{level}.evictions_per_acc"] = ratio(
                agg.get(f"{level}.evictions", 0), measured_accesses)
            m[f"memory.cache.{level}.hit_ratio"] = ratio(
                agg.get(f"{level}.demand_hits", 0),
                agg.get(f"{level}.demand_accesses", 0))
        m["memory.dram.txn_per_kacc"] = 1000.0 * ratio(
            agg.get("dram.transactions", 0), measured_accesses)
        m["memory.dram.queue_delay_cycles"] = ratio(
            agg.get("dram.queue_cycles", 0), agg.get("dram.transactions", 0))
        m["bench.simulated_accesses"] = total_accesses


class SCFilter(SingleCore):
    name = "sc-filter"
    points = tuple(
        Point(workload, scheme, "ipcp")
        for workload in SC_TRACES for scheme in ("tlp", "ppf")
    )


class SCLean(SingleCore):
    name = "sc-lean"
    points = tuple(Point(workload, "baseline", "berti") for workload in SC_TRACES)


# ----------------------------------------------------------------------
# 4-core mix (scalar object hierarchy)
# ----------------------------------------------------------------------
class MultiCore(Workload):
    name = "mc-mix4"
    budget = MC_BUDGET
    points = tuple(Point("mix4", scheme, "ipcp") for scheme in ("baseline", "tlp"))

    def __init__(self, seed, workdir, goldens) -> None:
        super().__init__(seed, workdir, goldens)
        self.system = api.cascade_lake_multi_core(num_cores=len(MC_TRACES))
        self.traces = []

    def setup_once(self) -> None:
        start = thread_time()
        self.traces = [build_trace(w, self.budget, self.seed) for w in MC_TRACES]
        self.build_samples.append(thread_time() - start)

    def simulate(self, point: Point, scheme: str | None = None, run=None,
                 traces=None):
        """One timed 4-core run; returns ``(result, seconds)``, as :meth:`timed`."""
        scenario = api.build_scenario(scheme or point.scheme, point.prefetcher)
        result, seconds, _ = self.timed(
            point.label, run or api.run_multicore_mix, traces or self.traces,
            scenario, config=self.system, warmup_fraction=WARMUP_FRACTION,
            mix_name="mix4")
        return result, seconds

    def warm_up(self) -> None:
        """Run every point once, untimed, on short traces of the mix."""
        traces = [build_trace(w, WARMUP_RUN_BUDGET // len(MC_TRACES), self.seed)
                  for w in MC_TRACES]
        for point in self.points:
            self.simulate(point, traces=traces)
        self.forget_points()

    def accesses(self) -> int:
        return sum(memory_records(trace) for trace in self.traces)

    def check_point(self, out, point, result, extra_problems=()) -> None:
        problems = list(extra_problems)
        problems += checks.multi_core_laws(
            result, self.system.core.width,
            [measured_records(trace) for trace in self.traces])
        digest = checks.digest(result)
        golden = self.golden_for(point.label)
        if golden is not None and golden != digest:
            problems.append("result digest differs from the golden")
        counters = {
            "dram.transactions": result.dram_transactions,
            "dram.by_source": dict(result.dram_transactions_by_source),
            "instructions": list(result.instructions),
            "per_core_dram_demand": list(result.per_core_dram_demand),
        }
        problems += out.record(point.label, digest, counters)
        out.check(point.label, problems)

    def golden_note(self, out: Outcome) -> None:
        if self.has_goldens():
            out.notes.append(
                f"golden digests: committed goldens for seed {self.seed}")
        else:
            out.notes.append(
                f"golden digests: seed {self.seed} has no committed goldens;"
                " mc-mix4 already runs the scalar reference, so only"
                " repetitions within the run are compared")

    def measure(self, seconds: float) -> Outcome:
        out = Outcome()

        def simulate_point(point: Point):
            result, elapsed = self.simulate(point)
            self.check_point(out, point, result)
            return result, elapsed

        self.warm_up()
        durations, warm = self.timed_points(seconds, out, simulate_point)
        self.golden_note(out)
        self.end_to_end(out, durations,
                        {p.label: self.accesses() for p in self.points}, warm)
        return out

    def trace_layers(self) -> Outcome:
        out = Outcome()
        untraced = {p.label: self.simulate(p)[1] for p in self.points}
        tlp = next(p for p in self.points if p.scheme == "tlp")
        flp_s = self.simulate(tlp, scheme="flp")[1]
        base_s = untraced[next(p.label for p in self.points
                               if p.scheme == "baseline")]

        recorder = SpanRecorder()
        captured = []
        phases = {}
        wrap = recorder.wrap
        original_reset = sim_multi_core.MemoryHierarchy.reset_stats

        def reset_stats(hierarchy, *args, **kwargs):
            if not captured:
                phases["reset"] = recorder.snapshot()
            captured.append(hierarchy)
            return original_reset(hierarchy, *args, **kwargs)

        hierarchy_cls = sim_multi_core.MemoryHierarchy
        ipcp_cls = api.IPCPPrefetcher
        targets = [
            (CoreRunner, "step_values", wrap("cpu.core.step_values",
                                             CoreRunner.step_values)),
            (CoreRunner, "run_trace", wrap("cpu.core.run_trace",
                                           CoreRunner.run_trace)),
            (hierarchy_cls, "demand_access", wrap(
                "memory.hierarchy.demand_access", hierarchy_cls.demand_access)),
            (hierarchy_cls, "reset_stats", reset_stats),
            (Cache, "lookup", wrap("memory.cache.lookup", Cache.lookup)),
            (Cache, "fill", wrap("memory.cache.fill", Cache.fill)),
            (ipcp_cls, "on_demand_access", wrap(
                "prefetchers.ipcp.step", ipcp_cls.on_demand_access,
                count_items=len)),
            (api.SPPPrefetcher, "on_access", wrap(
                "prefetchers.spp.step", api.SPPPrefetcher.on_access,
                count_items=len)),
            (api.SecondLevelPerceptron, "consult_step", wrap(
                "core.slp.consult", api.SecondLevelPerceptron.consult_step)),
            (api.SecondLevelPerceptron, "train", wrap(
                "core.slp.train", api.SecondLevelPerceptron.train)),
            (HashedPerceptron, "train", wrap(
                "predictors.perceptron.train", HashedPerceptron.train)),
            (sim_multi_core, "build_hierarchy", wrap(
                "sim.scenarios.build_hierarchy", sim_multi_core.build_hierarchy)),
        ]
        run = wrap("sim.multi_core.run", api.run_multicore_mix)
        results = {}
        agg = {}
        measured_accesses = 0
        traced_s = 0.0
        with patched(targets):
            for point in self.points:
                captured.clear()
                phases.clear()
                before = recorder.snapshot()
                try:
                    result, elapsed = self.simulate(point, run=run)
                except Exception as error:  # noqa: BLE001 -- counted as failed
                    out.check(point.label, [f"raised {error!r}"])
                    continue
                traced_s += elapsed
                after = recorder.snapshot()
                results[point.label] = result
                problems = self.cross_checks(captured, before, phases, after)
                problems += checks.served_by_law(captured)
                self.check_point(out, point, result, problems)
                for index, hierarchy in enumerate(captured):
                    counters = hierarchy_counters(hierarchy)
                    if index > 0:
                        # The LLC and DRAM channel are shared: count once.
                        for name in list(counters):
                            if name.startswith(("llc.", "dram.")):
                                del counters[name]
                    for name, value in counters.items():
                        agg[name] = agg.get(name, 0) + value
                    location = hierarchy.stats.offchip_prediction_location
                    agg["flp.located"] = (
                        agg.get("flp.located", 0) + sum(location.values()))
                    agg["flp.located_dram"] = (
                        agg.get("flp.located_dram", 0) + location[MemLevel.DRAM])
                    stats = hierarchy.stats
                    measured_accesses += stats.demand_loads + stats.demand_stores
        self.golden_note(out)

        total_accesses = self.accesses() * len(self.points)
        us = 1e6 / total_accesses
        m = {}
        m["prefetchers.ipcp.us_per_acc"] = us * recorder.seconds(
            "prefetchers.ipcp.step")
        m["prefetchers.ipcp.calls"] = recorder.count("prefetchers.ipcp.step")
        m["prefetchers.ipcp.candidates_per_acc"] = (
            recorder.item_count("prefetchers.ipcp.step") / total_accesses)
        m["prefetchers.spp.us_per_acc"] = us * recorder.seconds(
            "prefetchers.spp.step")
        m["prefetchers.spp.calls"] = recorder.count("prefetchers.spp.step")
        m["prefetchers.spp.l2_candidates_per_acc"] = (
            recorder.item_count("prefetchers.spp.step") / total_accesses)
        SingleCore.layer_common(m, recorder, agg, total_accesses,
                                measured_accesses)
        m["memory.cache.us_per_acc"] = us * (
            recorder.seconds("memory.cache.lookup")
            + recorder.seconds("memory.cache.fill"))
        m["memory.hierarchy.demand_access.self_us_per_acc"] = us * (
            recorder.self_seconds("memory.hierarchy.demand_access"))
        m["cpu.core.step.self_us_per_acc"] = us * (
            recorder.self_seconds("cpu.core.step_values")
            + recorder.self_seconds("cpu.core.run_trace"))
        m["sim.multi_core.interleave.self_us_per_acc"] = us * (
            recorder.self_seconds("sim.multi_core.run"))
        m["sim.scenarios.build_hierarchy_ms"] = 1e3 * ratio(
            recorder.seconds("sim.scenarios.build_hierarchy"),
            recorder.count("sim.scenarios.build_hierarchy"))
        per_point = us * len(self.points)
        m["core.slp.rung_us_per_acc"] = per_point * (
            untraced[tlp.label] - flp_s) / len(self.points)
        m["core.flp.rung_us_per_acc"] = per_point * (
            flp_s - base_s) / len(self.points)
        base_label = next(p.label for p in self.points if p.scheme == "baseline")
        m.update(model_metrics(
            results, {tlp.label: results[base_label]}
            if base_label in results else {}))
        m["model.l1d_prefetch_accuracy"] = ratio(
            agg.get("useful_l1d_prefetches", 0),
            agg.get("useful_l1d_prefetches", 0)
            + agg.get("useless_l1d_prefetches", 0))
        untraced_s = sum(untraced.values())
        m["bench.tracing_overhead"] = ratio(traced_s, untraced_s)
        out.metrics = m
        out.notes.append(
            f"tracing overhead: traced pass {traced_s:.3f} s / untraced pass"
            f" {untraced_s:.3f} s = {ratio(traced_s, untraced_s):.3f}x")
        out.recorder = recorder
        return out

    def cross_checks(self, hierarchies, before, phases, after):
        reset = phases.get("reset", before)

        def delta(name, start, index=0):
            return after.get(name, (0, 0))[index] - start.get(name, (0, 0))[index]

        def total(attribute):
            return sum(getattr(h.stats, attribute) for h in hierarchies)

        demand = total("demand_loads") + total("demand_stores")
        lookups = sum(h.l1d.stats.demand_accesses + h.l2c.stats.demand_accesses
                      for h in hierarchies)
        lookups += hierarchies[0].llc.stats.demand_accesses if hierarchies else 0
        expected = {
            "captured hierarchies vs cores": (len(hierarchies), len(self.traces)),
            "demand_access calls vs trace memory records": (
                delta("memory.hierarchy.demand_access", before), self.accesses()),
            "measured demand_access calls vs demand loads+stores": (
                delta("memory.hierarchy.demand_access", reset), demand),
            "measured step_values calls vs measured trace records": (
                delta("cpu.core.step_values", reset),
                sum(measured_records(trace) for trace in self.traces)),
            "measured cache lookups vs demand_accesses": (
                delta("memory.cache.lookup", reset), lookups),
            "measured ipcp calls vs demand accesses": (
                delta("prefetchers.ipcp.step", reset), demand),
            "measured ipcp candidates vs l1d_prefetch_candidates": (
                delta("prefetchers.ipcp.step", reset, index=1),
                total("l1d_prefetch_candidates")),
            "measured spp candidates vs l2c_prefetch_candidates": (
                delta("prefetchers.spp.step", reset, index=1),
                total("l2c_prefetch_candidates")),
        }
        slps = [h.l1d_prefetch_filter for h in hierarchies
                if h.l1d_prefetch_filter is not None]
        if slps:
            expected["slp consult calls vs consultations"] = (
                delta("core.slp.consult", before),
                sum(slp.consultations for slp in slps))
            expected["measured slp consults vs unfiltered candidates"] = (
                delta("core.slp.consult", reset),
                total("l1d_prefetch_candidates")
                - total("l1d_prefetches_dropped_resident"))
        trains = sum(p.stats.training_events
                     for h in hierarchies for _, p in perceptrons(h))
        expected["perceptron train calls vs training_events"] = (
            delta("predictors.perceptron.train", before), trains)
        return cross_check(expected)


# ----------------------------------------------------------------------
# Figure campaign (engine, result cache, trace store, experiments)
# ----------------------------------------------------------------------
class CampaignWorkload(Workload):
    name = "campaign"
    figure = "fig10"

    def __init__(self, seed, workdir, goldens) -> None:
        super().__init__(seed, workdir, goldens)
        self.config = quick_experiment_config()
        self.budget = self.config.memory_accesses
        self.store = None
        self.pass_accesses = 0
        self._setups = 0
        self._passes = 0

    def setup_once(self) -> None:
        self._setups += 1
        store = api.TraceStore(self.workdir / f"traces-{self._setups}")
        start = thread_time()
        records = [
            api.load_trace(workload, self.budget, self.config.gap_scale,
                           trace_store=store).num_memory_accesses
            for workload in self.config.workloads()
        ]
        self.build_samples.append(thread_time() - start)
        self.store = store
        self.pass_accesses = len(FIG10_SCHEMES) * sum(records)

    def fresh_result_cache(self) -> Path:
        """Point ``REPRO_CACHE_DIR`` at a new, empty directory."""
        self._passes += 1
        directory = self.workdir / f"results-{self._passes}"
        os.environ["REPRO_CACHE_DIR"] = str(directory)
        return directory

    def campaign(self):
        return api.CampaignCache(self.config, jobs=1, trace_store=self.store,
                                 sim_core="batch")

    def run_pass(self, cache, label: str, figure=None):
        """One figure pass; returns ``(figure, seconds, raw cpu seconds)``."""
        return self.timed(label, figure or api.run_figure, self.figure,
                          cache=cache, jobs=1)

    def golden(self) -> dict:
        return self.goldens.get("campaign", {})

    def check_cold(self, out: Outcome, cache, directory: Path, figure) -> dict:
        """Check every point of a cold pass; returns ``{label: result}``."""
        results = {}
        store = ResultCache(directory)
        for key in store.entries():
            result = store.get(key)
            results[f"{result.workload}/{result.scenario}"] = result
        golden = self.golden().get("points", {})
        engine = cache.engine
        report = engine.last_report
        out.check("campaign engine", [
            f"{report.quarantined} points quarantined"
        ] if report.quarantined else [])
        width = api.cascade_lake_single_core().core.width
        for label, result in sorted(results.items()):
            problems = checks.single_core_laws(result, width)
            digest = checks.digest(result)
            if golden and golden.get(label) != digest:
                problems.append("result digest differs from the scalar golden")
            problems += out.record(label, digest, {})
            out.check(label, problems)
        expected = len(FIG10_SCHEMES) * len(self.config.workloads())
        out.check("campaign point set", [] if len(results) == expected else [
            f"expected {expected} points, got {len(results)}"])
        counters = {
            "simulations_run": engine.simulations_run,
            "cache_hits": engine.cache_hits,
            "retries": report.total_retries,
        }
        problems = out.record("campaign/cold", checks.digest(figure), counters)
        fig_golden = self.golden().get("figure")
        if fig_golden is not None and fig_golden != checks.digest(figure):
            problems.append("figure digest differs from the scalar golden")
        out.check("campaign/cold figure", problems)
        return results

    def warm_problems(self, out: Outcome, cache, figure) -> list[str]:
        """Problems of one warm pass (aggregated by the caller)."""
        engine = cache.engine
        problems = []
        if engine.simulations_run:
            problems.append(f"{engine.simulations_run} points re-simulated")
        expected = len(FIG10_SCHEMES) * len(self.config.workloads())
        if engine.cache_hits != expected:
            problems.append(f"{engine.cache_hits} cache hits, expected {expected}")
        if checks.digest(figure) != out.digests.get("campaign/cold"):
            problems.append("warm figure differs from the cold figure")
        return problems

    def measure(self, seconds: float) -> Outcome:
        out = Outcome()
        clock = Clock(seconds)
        cold, warm = [], []
        while not cold or clock.fits(
                median(self.wall["cold"])
                + WARM_PASSES * (median(self.wall["warm"]) + WARM_GAP_S)):
            directory = self.fresh_result_cache()
            cache = self.campaign()
            figure, elapsed, _ = self.run_pass(cache, "cold")
            cold.append(elapsed)
            self.rss_mb.append(resident_mb())
            self.check_cold(out, cache, directory, figure)
            problems = set()
            for _ in range(WARM_PASSES):
                cache = self.campaign()
                figure, elapsed, _ = self.run_pass(cache, "warm")
                warm.append(elapsed)
                problems.update(self.warm_problems(out, cache, figure))
                sleep(WARM_GAP_S)
            out.check(f"campaign warm passes ({WARM_PASSES})", sorted(problems))
            shutil.rmtree(directory, ignore_errors=True)
        out.metrics["sim_acc_per_s"] = (
            ratio(self.pass_accesses, median(cold)), "1/s")
        out.metrics["cold_figure_s"] = (median(cold), "s")
        out.metrics["warm_figure_ms"] = (1e3 * median(warm), "ms")
        out.samples["sim_acc_per_s"] = [self.pass_accesses / s for s in cold]
        out.samples["cold_figure_s"] = cold
        out.samples["warm_figure_ms"] = [1e3 * s for s in warm]
        out.notes.append(
            f"inputs: {self.figure} at quick_experiment_config() uses the"
            " catalog's fixed trace seeds; --seed does not change them")
        out.notes.append(f"cold passes: {len(cold)}, warm passes: {len(warm)}")
        for kind, table in (("raw cpu", self.raw), ("wall clock", self.wall)):
            out.notes.append(
                f"{kind}: cold figure {median(table['cold']):.4f} s, warm"
                f" figure {1e3 * median(table['warm']):.4f} ms (medians)")
        return out

    def trace_layers(self) -> Outcome:
        out = Outcome()
        # Untraced reference: one cold pass and the traced number of warm.
        self.fresh_result_cache()
        untraced_s = self.run_pass(self.campaign(), "cold")[1]
        for _ in range(TRACED_WARM_PASSES):
            untraced_s += self.run_pass(self.campaign(), "warm")[1]

        recorder = SpanRecorder()
        wrap = recorder.wrap
        figure_call = wrap("experiments.figure", api.run_figure)

        def instrumented(cache):
            engine = cache.engine
            return [
                (cache, "run_points", wrap("experiments.run_points",
                                           cache.run_points)),
                (engine, "run", wrap("sim.engine.run", engine.run)),
                (engine.result_cache, "get", wrap("sim.result_cache.get",
                                                  engine.result_cache.get)),
                (engine.result_cache, "put", wrap("sim.result_cache.put",
                                                  engine.result_cache.put)),
            ]

        module_targets = [
            (sim_engine, "run_single_core", wrap(
                "sim.simulate", sim_engine.run_single_core)),
            (sim_single_core, "build_hierarchy", wrap(
                "sim.scenarios.build_hierarchy", sim_single_core.build_hierarchy)),
            (self.store, "get_or_build", wrap("traces.store.load",
                                              self.store.get_or_build)),
        ]
        traced_s = 0.0
        hits = misses = points = retries = 0
        with patched(module_targets):
            directory = self.fresh_result_cache()
            cache = self.campaign()
            with patched(instrumented(cache)):
                figure, elapsed, _ = self.run_pass(cache, "traced", figure_call)
            traced_s += elapsed
            cold_run_s = recorder.seconds("sim.engine.run")
            cold_points = cache.engine.simulations_run
            store_load_s = recorder.seconds("traces.store.load")
            results = self.check_cold(out, cache, directory, figure)
            hits += cache.engine.result_cache.hits
            misses += cache.engine.result_cache.misses
            points += cache.engine.simulations_run + cache.engine.cache_hits
            retries += cache.engine.last_report.total_retries
            warm_get_before = (recorder.seconds("sim.result_cache.get"),
                               recorder.count("sim.result_cache.get"))
            problems = set()
            for _ in range(TRACED_WARM_PASSES):
                cache = self.campaign()
                with patched(instrumented(cache)):
                    figure, elapsed, _ = self.run_pass(cache, "traced", figure_call)
                traced_s += elapsed
                problems.update(self.warm_problems(out, cache, figure))
                hits += cache.engine.result_cache.hits
                misses += cache.engine.result_cache.misses
                points += cache.engine.simulations_run + cache.engine.cache_hits
                retries += cache.engine.last_report.total_retries

        out.check(f"campaign warm passes ({TRACED_WARM_PASSES})",
                  sorted(problems))
        expected = {
            "result_cache get calls vs hits+misses": (
                recorder.count("sim.result_cache.get"), hits + misses),
            "result_cache put calls vs cold simulations": (
                recorder.count("sim.result_cache.put"), cold_points),
            "simulate calls vs cold simulations": (
                recorder.count("sim.simulate"), cold_points),
        }
        out.check("campaign cross-checks", cross_check(expected))

        m = {}
        m["traces.store.load_s"] = store_load_s
        m["sim.engine.point_overhead_ms"] = 1e3 * ratio(
            cold_run_s - recorder.seconds("sim.simulate"), cold_points)
        m["sim.engine.points"] = points
        m["sim.engine.retries"] = retries
        warm_get_s = recorder.seconds("sim.result_cache.get") - warm_get_before[0]
        warm_gets = recorder.count("sim.result_cache.get") - warm_get_before[1]
        m["sim.result_cache.get_ms"] = 1e3 * ratio(warm_get_s, warm_gets)
        m["sim.result_cache.put_ms"] = 1e3 * ratio(
            recorder.seconds("sim.result_cache.put"),
            recorder.count("sim.result_cache.put"))
        m["sim.result_cache.hit_ratio"] = ratio(hits, hits + misses)
        m["sim.scenarios.build_hierarchy_ms"] = 1e3 * ratio(
            recorder.seconds("sim.scenarios.build_hierarchy"),
            recorder.count("sim.scenarios.build_hierarchy"))
        compile_ms, reduce_ms = [], []
        runs = {span[3]: span for span in recorder.logged_spans(
            "experiments.run_points")}
        for span_id, start, end, _ in recorder.logged_spans("experiments.figure"):
            inner = runs.get(span_id)
            if inner is not None:
                compile_ms.append(1e3 * (inner[1] - start))
                reduce_ms.append(1e3 * (end - inner[2]))
        m["experiments.compile_ms"] = median(compile_ms)
        m["experiments.reduce_ms"] = median(reduce_ms)
        m.update(model_metrics(results, {
            label: results[label.replace("/tlp/", "/baseline/")]
            for label in results if "/tlp/" in label
        }))
        m["bench.simulated_accesses"] = self.pass_accesses
        m["bench.tracing_overhead"] = ratio(traced_s, untraced_s)
        out.metrics = m
        out.notes.append(
            f"tracing overhead: traced passes {traced_s:.3f} s / untraced"
            f" passes {untraced_s:.3f} s = {ratio(traced_s, untraced_s):.3f}x")
        out.notes.append(
            f"inputs: {self.figure} uses the catalog's fixed trace seeds")
        out.recorder = recorder
        return out


WORKLOADS = {cls.name: cls for cls in (SCFilter, SCLean, MultiCore,
                                        CampaignWorkload)}
