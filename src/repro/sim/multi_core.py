"""Multi-core simulation driver.

The paper's multi-core evaluation runs 4-core mixes sharing the LLC and a
DRAM channel whose per-core bandwidth is one quarter of the single-core
configuration (3.2 GB/s per core, Table III).  The driver below builds one
:class:`~repro.memory.hierarchy.SharedMemory` back-end, one private hierarchy
and one incremental core model per trace, and always steps the core with
the smallest ``(next dispatch cycle, core id)`` so that the cores contend
for the shared LLC and DRAM bandwidth in time order.

The cores are interleaved *run until overtaken* (see :func:`_interleave`):
the driver picks the leading core and the runner-up once, then steps the
leader record after record until its key passes the runner-up's.  Stepping
one core never changes another core's dispatch state, so the runner-up's
key stays exact for the whole run and every record goes to the same core
the per-record argmin would pick, ties to the lowest core id included.  A
core's next dispatch cycle never decreases (its retire times are appended
in non-decreasing order), so once the leader's key passes the runner-up's
it stays past it: the leader keeps the shared back-end for a whole run of
records (tens of them on the benchmark mixes), and the core choice is made
once per run instead of once per record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.common.config import SystemConfig, cascade_lake_multi_core
from repro.common.types import MemLevel
from repro.cpu.core import CoreResult, CoreRunner
from repro.memory.hierarchy import MemoryHierarchy, SharedMemory
from repro.sim.scenarios import Scenario, build_hierarchy
from repro.stats.metrics import weighted_speedup
from repro.traces.trace import Trace, trace_lists


@dataclass
class MultiCoreResult:
    """Outcome of one multi-core mix simulation."""

    mix_name: str
    scenario: str
    workloads: list[str]
    ipcs: list[float]
    instructions: list[int]
    dram_transactions: int
    dram_transactions_by_source: dict[str, int]
    per_core_dram_demand: list[int] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def weighted_speedup(self, single_core_ipcs: list[float]) -> float:
        """Weighted speedup against per-workload isolated IPCs."""
        return weighted_speedup(self.ipcs, single_core_ipcs)


def run_multicore_mix(
    traces: list[Trace],
    scenario: Scenario,
    config: Optional[SystemConfig] = None,
    warmup_fraction: float = 0.2,
    mix_name: Optional[str] = None,
) -> MultiCoreResult:
    """Simulate one multi-core mix (one trace per core).

    After a warm-up slice per core, the measured records are interleaved in
    dispatch-time order: the core with the lowest ``(next dispatch cycle,
    core id)`` runs until another core overtakes it (see the module
    docstring for why this is exactly the per-record order).

    Always runs on the scalar reference path regardless of
    ``config.sim_core``: the cores interleave on the shared LLC/DRAM
    back-end a few dozen records at a time, so there is no chunk of
    accesses free of cross-core dependencies for the batch core of
    :mod:`repro.sim.batch` to fuse.
    """
    if not traces:
        raise ValueError("a multi-core mix needs at least one trace")
    if not 0.0 <= warmup_fraction < 1.0:
        raise ValueError(f"warmup_fraction must be in [0, 1), got {warmup_fraction}")
    system = (
        config if config is not None else cascade_lake_multi_core(num_cores=len(traces))
    )
    shared = SharedMemory(system)
    hierarchies: list[MemoryHierarchy] = [
        build_hierarchy(scenario, config=system, shared=shared, core_id=core_id)
        for core_id in range(len(traces))
    ]

    warmups = []
    measured = []
    for trace in traces:
        warm, meas = trace.split(warmup_fraction)
        warmups.append(warm)
        measured.append(meas)

    # Warm-up: run each core's warm-up slice (shared caches and predictors
    # learn; timing contention during warm-up is irrelevant).
    for hierarchy, warm in zip(hierarchies, warmups):
        CoreRunner(system.core, hierarchy.demand_access).run_trace(warm)
    for index, hierarchy in enumerate(hierarchies):
        hierarchy.reset_stats(include_shared=(index == 0))

    # Measured phase: interleave the cores in dispatch-time order so that
    # they contend for the shared DRAM channel.
    runners = [
        CoreRunner(system.core, hierarchy.demand_access) for hierarchy in hierarchies
    ]
    _interleave(runners, measured)

    results: list[CoreResult] = [runner.finish() for runner in runners]
    for hierarchy in hierarchies:
        hierarchy.finalize()

    dram_stats = shared.dram.stats
    return MultiCoreResult(
        mix_name=mix_name or "+".join(trace.name for trace in traces),
        scenario=scenario.name,
        workloads=[trace.name for trace in traces],
        ipcs=[result.ipc for result in results],
        instructions=[result.instructions for result in results],
        dram_transactions=dram_stats.total_transactions,
        dram_transactions_by_source=dram_stats.by_source(),
        per_core_dram_demand=[
            hierarchy.stats.served_by[MemLevel.DRAM] for hierarchy in hierarchies
        ],
    )


def _interleave(runners: list[CoreRunner], traces: list[Trace]) -> None:
    """Step every record of ``traces[i]`` through ``runners[i]``, always
    stepping the core with the lowest ``(next dispatch cycle, core id)``.

    The core choice is made once per run: one scan over the active cores
    finds the leader and the runner-up, then the leader is stepped while
    its key stays below the runner-up's.  ``step_values`` returns the
    leader's new next dispatch cycle, so the run costs one call per
    record.  The record streams are consumed as column lists (pc, vaddr,
    kind); no record objects are materialized on this path.
    """
    steps = [runner.step_values for runner in runners]
    cycles = [runner.next_dispatch_cycle for runner in runners]
    streams = [zip(*trace_lists(trace)) for trace in traces]
    active = list(range(len(runners)))
    while active:
        leader = rival = -1
        leader_cycle = bound = float("inf")
        for core in active:
            cycle = cycles[core]
            if cycle < leader_cycle:
                rival, bound = leader, leader_cycle
                leader, leader_cycle = core, cycle
            elif cycle < bound:
                rival, bound = core, cycle
        step = steps[leader]
        for pc, vaddr, kind in streams[leader]:
            cycle = step(pc, vaddr, kind)
            # Overtaken once (cycle, leader) no longer sorts before
            # (bound, rival); ties go to the lower core id.
            if cycle >= bound and (cycle > bound or leader > rival):
                cycles[leader] = cycle
                break
        else:
            active.remove(leader)
