"""Output checks: conservation laws and golden result digests.

Every simulated point is checked twice.  The conservation laws must hold
on the result (and on the hierarchy that produced it, where the benchmark
holds one), and the ``asdict`` digest of the result must equal the golden
digest committed in ``goldens.json``.  The goldens come from the scalar
reference core (``make_goldens.py``), so on the batch-core workloads the
digest check is also a batch-versus-scalar equivalence check.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

GOLDENS_PATH = Path(__file__).resolve().parent / "goldens.json"


def digest(result) -> str:
    """SHA-256 of the canonical JSON of a result dataclass."""
    payload = dataclasses.asdict(result)
    canonical = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def load_goldens() -> dict:
    """The committed golden digests (an empty table when absent)."""
    if not GOLDENS_PATH.is_file():
        return {}
    with GOLDENS_PATH.open("r", encoding="utf-8") as fh:
        return json.load(fh)


def single_core_laws(result, width: int, hierarchy=None) -> list[str]:
    """Violated conservation laws of one single-core result (empty: all hold)."""
    problems = []
    by_source = sum(result.dram_transactions_by_source.values())
    if by_source != result.dram_transactions:
        problems.append(
            f"DRAM transactions by source sum to {by_source},"
            f" total is {result.dram_transactions}"
        )
    resolved = result.useful_l1d_prefetches + result.useless_l1d_prefetches
    if resolved > result.l1d_prefetches_issued:
        problems.append(
            f"useful+useless L1D prefetches {resolved} exceed the"
            f" {result.l1d_prefetches_issued} issued"
        )
    if not 0.0 < result.ipc <= width:
        problems.append(f"IPC {result.ipc} outside (0, {width}]")
    if hierarchy is not None:
        demand = hierarchy.stats.demand_loads + hierarchy.stats.demand_stores
        served = sum(result.served_by.values())
        if served != demand:
            problems.append(
                f"served_by sums to {served}, demand loads+stores are {demand}"
            )
    return problems


def multi_core_laws(result, width: int, measured_records: list[int]) -> list[str]:
    """Violated conservation laws of one multi-core result."""
    problems = []
    by_source = sum(result.dram_transactions_by_source.values())
    if by_source != result.dram_transactions:
        problems.append(
            f"DRAM transactions by source sum to {by_source},"
            f" total is {result.dram_transactions}"
        )
    for core, ipc in enumerate(result.ipcs):
        if not 0.0 < ipc <= width:
            problems.append(f"core {core}: IPC {ipc} outside (0, {width}]")
    if list(result.instructions) != list(measured_records):
        problems.append(
            f"retired instructions {result.instructions} differ from the"
            f" measured trace records {measured_records}"
        )
    return problems


def served_by_law(hierarchies) -> list[str]:
    """``served_by`` sums to the demand loads+stores of each hierarchy."""
    problems = []
    for hierarchy in hierarchies:
        stats = hierarchy.stats
        demand = stats.demand_loads + stats.demand_stores
        served = sum(stats.served_by.values())
        if served != demand:
            problems.append(
                f"core {hierarchy.core_id}: served_by sums to {served},"
                f" demand loads+stores are {demand}"
            )
    return problems
