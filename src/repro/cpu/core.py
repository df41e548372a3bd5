"""Out-of-order core timing model.

The paper's results are produced with ChampSim's cycle-accurate 4-wide
out-of-order model.  For the reproduction we use an interval-style
approximation that captures the two properties the studied mechanisms
interact with:

* **memory-level parallelism bounded by the ROB**: a load occupies its
  re-order buffer entry from dispatch until its data returns, so the number
  of overlapping long-latency loads is limited by the 224-entry ROB and the
  4-wide dispatch/retire bandwidth;
* **in-order retirement**: a long-latency load blocks the retirement of all
  younger instructions, so reducing the *effective* latency of off-chip loads
  (what Hermes/FLP do) directly shortens execution.

Each instruction is dispatched at most ``width`` per cycle and no earlier
than when its ROB slot frees (i.e. when the instruction ``rob_size`` older
has retired).  Loads complete after the latency reported by the memory
hierarchy; other instructions complete in one cycle.  Retirement is in-order
at ``width`` per cycle.  Total cycles = retirement time of the last
instruction.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.common.config import CoreConfig
from repro.common.types import AccessOutcome, MemoryAccess
from repro.traces.trace import KIND_LOAD, KIND_STORE, trace_lists

#: Signature of the memory callback: (pc, vaddr, cycle, is_write) -> outcome.
MemoryCallback = Callable[[int, int, int, bool], AccessOutcome]


@dataclass
class CoreResult:
    """Timing outcome of running a trace through the core model."""

    instructions: int
    cycles: float
    loads: int
    stores: int
    total_load_latency: float

    @property
    def ipc(self) -> float:
        """Instructions per cycle."""
        if self.cycles <= 0:
            return 0.0
        return self.instructions / self.cycles

    @property
    def average_load_latency(self) -> float:
        """Average effective load-to-use latency in cycles."""
        if self.loads == 0:
            return 0.0
        return self.total_load_latency / self.loads


class CoreRunner:
    """ROB-occupancy limited out-of-order retirement model.

    Runs a whole trace (:meth:`run_trace`) or is stepped one instruction at
    a time (:meth:`step_values`); the multi-core driver steps several
    runners in time order so that they contend for the shared DRAM channel
    realistically.
    """

    def __init__(
        self,
        config: CoreConfig,
        memory: MemoryCallback,
        start_cycle: float = 0.0,
    ) -> None:
        self.config = config
        self.memory = memory
        self.width = config.width
        self.rob_size = config.rob_size
        self.dispatch_interval = 1.0 / self.width
        self._dispatch_cycle = start_cycle
        self._last_retire = start_cycle
        self._retire_times: deque[float] = deque()
        self.instructions = 0
        self.loads = 0
        self.stores = 0
        self.total_load_latency = 0.0

    @property
    def next_dispatch_cycle(self) -> float:
        """Cycle at which the next instruction would dispatch."""
        rob_constraint = 0.0
        if len(self._retire_times) >= self.rob_size:
            rob_constraint = self._retire_times[0]
        return max(self._dispatch_cycle, rob_constraint)

    def step_values(self, pc: int, vaddr: int, kind: int) -> float:
        """Dispatch, execute and retire one record given as column scalars.

        ``kind`` is an :class:`AccessKind` value (or its plain-int code, as
        stored in a columnar trace's ``kind`` array -- ``IntEnum`` members
        compare equal to their codes, so both step identically).

        Returns the cycle at which the next instruction would dispatch --
        the value of :attr:`next_dispatch_cycle` after this step, so a
        driver that orders cores by dispatch time needs no second call.
        """
        retire_times = self._retire_times
        dispatch = self._dispatch_cycle
        if len(retire_times) >= self.rob_size:
            rob_constraint = retire_times.popleft()
            if rob_constraint > dispatch:
                dispatch = rob_constraint

        if kind == KIND_LOAD:
            outcome = self.memory(pc, vaddr, int(dispatch), False)
            latency = outcome.effective_latency
            self.loads += 1
            self.total_load_latency += latency
        elif kind == KIND_STORE:
            # Stores update the caches but retire through the store buffer
            # without stalling the core.
            self.memory(pc, vaddr, int(dispatch), True)
            latency = 1
            self.stores += 1
        else:
            latency = 1

        completion = dispatch + latency
        retire = self._last_retire + self.dispatch_interval
        if completion > retire:
            retire = completion
        retire_times.append(retire)
        self._last_retire = retire
        dispatch += self.dispatch_interval
        self._dispatch_cycle = dispatch
        self.instructions += 1
        if len(retire_times) >= self.rob_size and retire_times[0] > dispatch:
            return retire_times[0]
        return dispatch

    def step(self, record: MemoryAccess) -> float:
        """Dispatch, execute and retire one trace record (see :meth:`step_values`)."""
        return self.step_values(record.pc, record.vaddr, record.kind)

    def run_trace(self, trace) -> None:
        """Step every record of ``trace`` through the core.

        Semantically identical to calling :meth:`step` per record, but the
        stream is consumed as columns -- three parallel lists of plain ints
        (see :func:`repro.traces.trace.trace_lists`) -- and the
        per-instruction state lives in locals for the duration of the loop.
        No record objects exist on this path: each iteration touches three
        native ints instead of three attribute loads on a dataclass.
        ``trace`` may be a columnar :class:`~repro.traces.trace.Trace` or
        any iterable of :class:`MemoryAccess` records.
        """
        pcs, vaddrs, kinds = trace_lists(trace)
        retire_times = self._retire_times
        rob_size = self.rob_size
        dispatch_interval = self.dispatch_interval
        memory = self.memory
        load_kind = KIND_LOAD
        store_kind = KIND_STORE
        dispatch_cycle = self._dispatch_cycle
        last_retire = self._last_retire
        instructions = loads = stores = 0
        total_load_latency = 0.0
        popleft = retire_times.popleft
        append = retire_times.append

        for pc, vaddr, kind in zip(pcs, vaddrs, kinds):
            dispatch = dispatch_cycle
            if len(retire_times) >= rob_size:
                rob_constraint = popleft()
                if rob_constraint > dispatch:
                    dispatch = rob_constraint

            if kind == load_kind:
                outcome = memory(pc, vaddr, int(dispatch), False)
                latency = outcome.effective_latency
                loads += 1
                total_load_latency += latency
            elif kind == store_kind:
                memory(pc, vaddr, int(dispatch), True)
                latency = 1
                stores += 1
            else:
                latency = 1

            completion = dispatch + latency
            retire = last_retire + dispatch_interval
            if completion > retire:
                retire = completion
            append(retire)
            last_retire = retire
            dispatch_cycle = dispatch + dispatch_interval
            instructions += 1

        self._dispatch_cycle = dispatch_cycle
        self._last_retire = last_retire
        self.instructions += instructions
        self.loads += loads
        self.stores += stores
        self.total_load_latency += total_load_latency

    def finish(self) -> CoreResult:
        """Return the aggregate result after the last instruction."""
        return CoreResult(
            instructions=self.instructions,
            cycles=self._last_retire,
            loads=self.loads,
            stores=self.stores,
            total_load_latency=self.total_load_latency,
        )

    @property
    def done_cycles(self) -> float:
        """Retirement time of the youngest instruction processed so far."""
        return self._last_retire
