"""Single-core simulation driver.

Mirrors the paper's single-core methodology (Section V-C): each workload is
run for a warm-up phase (caches and predictors learn, statistics discarded)
followed by a measured phase from which IPC, DRAM transaction counts, MPKIs
and prefetch statistics are reported.

The warm-up/measured split is a zero-copy view into the trace's columns and
the core consumes the record stream column-wise (see
:meth:`repro.cpu.core.CoreRunner.run_trace`); no per-record objects are
materialized anywhere on the simulation path.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.common.config import SystemConfig, cascade_lake_single_core
from repro.cpu.core import CoreRunner
from repro.memory.hierarchy import MemoryHierarchy
from repro.obs import sample as obs_sample
from repro.sim.batch import run_single_core_batched
from repro.sim.results import SingleCoreResult, collect_single_core_result
from repro.sim.scenarios import Scenario, build_hierarchy
from repro.traces.trace import KIND_NON_MEM, Trace


def run_single_core(
    trace: Trace,
    scenario: Scenario,
    config: Optional[SystemConfig] = None,
    warmup_fraction: float = 0.2,
    hierarchy: Optional[MemoryHierarchy] = None,
) -> SingleCoreResult:
    """Run one workload trace under one scenario and collect the results.

    Args:
        trace: the workload trace to simulate.
        scenario: which prefetcher/predictor/filter combination to run.
        config: system configuration; defaults to the single-core Cascade
            Lake-like baseline of Table III.
        warmup_fraction: fraction of the trace used to warm caches and train
            predictors before statistics are reset.
        hierarchy: optionally, a pre-built hierarchy (used by tests that want
            to inspect or instrument specific components).

    When ``config.sim_core == "batch"``, the trace is stepped through the
    chunked fused loop of :mod:`repro.sim.batch` instead of the per-record
    scalar path.  Both produce bit-identical results; the batch core merely
    gets there faster (and silently drops back to the scalar path for
    component combinations it does not model).
    """
    if not 0.0 <= warmup_fraction < 1.0:
        raise ValueError(f"warmup_fraction must be in [0, 1), got {warmup_fraction}")
    system = config if config is not None else cascade_lake_single_core()
    memory = (
        hierarchy
        if hierarchy is not None
        else build_hierarchy(scenario, config=system)
    )

    # Opt-in per-N-accesses telemetry snapshots (None when off).  The
    # sampling paths below are stepped restructurings of the plain runs --
    # state accumulates identically, so metrics stay bit-identical; the
    # samples themselves go to the tracer sink, never into the result.
    sample_interval = obs_sample.sample_interval()

    def emit_sample(accesses: int, instructions: int, cycles: float) -> None:
        obs_sample.emit(
            trace_name=trace.name,
            scenario=scenario.name,
            core=system.sim_core,
            accesses=accesses,
            instructions=instructions,
            cycles=cycles,
            hierarchy=memory,
        )

    if system.sim_core == "batch":
        runner = run_single_core_batched(
            trace, memory, system.core, warmup_fraction,
            sample_hook=emit_sample if sample_interval else None,
            sample_interval=sample_interval,
        )
        result = runner.finish()
    else:
        warmup, measured = trace.split(warmup_fraction)
        if len(warmup):
            CoreRunner(system.core, memory.demand_access).run_trace(warmup)
            memory.reset_stats(include_shared=True)

        runner = CoreRunner(system.core, memory.demand_access)
        if sample_interval:
            _run_scalar_sampled(runner, measured, sample_interval, emit_sample)
        else:
            runner.run_trace(measured)
        result = runner.finish()
    memory.finalize()
    if sample_interval:
        # A final snapshot at the end of the measured phase closes the
        # time series at exactly the reported end-of-run metrics.
        emit_sample(
            memory.stats.demand_loads + memory.stats.demand_stores,
            result.instructions,
            result.cycles,
        )
    return collect_single_core_result(
        workload=trace.name,
        scenario=scenario.name,
        instructions=max(1, result.instructions),
        cycles=result.cycles,
        average_load_latency=result.average_load_latency,
        hierarchy=memory,
    )


def _run_scalar_sampled(
    runner: CoreRunner,
    measured: Trace,
    interval: int,
    emit_sample,
) -> None:
    """Measured-phase scalar run emitting a snapshot every ``interval``
    memory accesses.

    Bit-identical to ``runner.run_trace(measured)``: the runner steps
    zero-copy trace slices cut just after every ``interval``-th
    load/store, and ``run_trace`` accumulates across slices exactly as it
    does across one whole trace.
    """
    _, _, kind = measured.columns()
    positions = np.flatnonzero(kind != KIND_NON_MEM)
    cuts = (positions[interval - 1 :: interval] + 1).tolist()
    previous = 0
    accesses = 0
    for cut in cuts:
        runner.run_trace(measured[previous:cut])
        previous = cut
        accesses += interval
        emit_sample(accesses, runner.instructions, runner.done_cycles)
    if previous < len(measured):
        runner.run_trace(measured[previous:])
