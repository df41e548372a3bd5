"""Host-speed reference: times measured against a fixed computation.

The benchmark runs on a shared host whose speed drifts.  Even in CPU
seconds of its thread, the same simulation took from 0.83x to 1.23x its
median time in 25-second windows a few minutes apart, because other work on
the same physical cores (sibling hyperthreads, shared caches, memory
bandwidth, clock frequency) slows every instruction.  Medians inside one run
cannot remove a slowdown that lasts longer than the run.

So every timed block runs next to a reference computation that is part of
the benchmark and never changes: an interpreted loop (a small LRU cache
over a pseudo-random block stream) and a vectorised numpy loop (hashing and
bincounts), the two kinds of work the simulator does.  A *probe* runs both
with garbage collection off and times each in CPU seconds.  Its speed
factor is the geometric mean of the two times over their nominal times
(:data:`INTERPRETED_NOMINAL_S`, :data:`VECTORISED_NOMINAL_S`), so 1.0 means
the host ran the reference at its nominal speed.

:meth:`HostSpeed.timed` probes right before and right after a block and,
while the block runs, every :data:`PROBE_INTERVAL_S` of CPU time from a
``SIGPROF`` interval timer (the handler runs between bytecodes of the
main thread).  The block's CPU time outside the probes is cut into segments
at the probes; each segment is divided by the geometric mean of the factors
of the probes around it.  The sum is the block's *normalised* CPU time: the
time it would have taken at the reference speed.  The raw CPU time (probes
excluded) is kept as well.

All CPU times are of the calling thread (``time.thread_time``): while a
process CPU timer is armed, the process clock only advances in ticks.
"""

from __future__ import annotations

import gc
import math
import signal
from time import perf_counter, thread_time

import numpy as np

#: CPU seconds of the interpreted and vectorised reference loops at the
#: reference speed: their medians over 400 probes on the 2-CPU x86-64 host
#: the benchmark was built on (Python 3.11.7, numpy 2.4.6).  They only set
#: the scale of normalised times; both sides of any comparison use the same.
INTERPRETED_NOMINAL_S = 0.0180
VECTORISED_NOMINAL_S = 0.0080
#: CPU seconds between probes inside a timed block.
PROBE_INTERVAL_S = 0.5

_INTERPRETED_STEPS = 25_000
_VECTORISED_ROUNDS = 160
_VECTOR = (np.arange(8192, dtype=np.int64) * 0x9E3779B1) & 0xFFFFFFFFFF


def interpreted() -> int:
    """Fixed interpreted work: an 8-way LRU over 128 sets."""
    sets: dict[int, list[int]] = {}
    state = 12345
    hits = 0
    for _ in range(_INTERPRETED_STEPS):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        block = state >> 14
        ways = sets.get(block & 127)
        if ways is None:
            ways = sets[block & 127] = []
        if block in ways:
            ways.remove(block)
            hits += 1
        elif len(ways) >= 8:
            ways.pop(0)
        ways.append(block)
    return hits


def vectorised() -> int:
    """Fixed numpy work: fold-XOR hashing and table bincounts."""
    total = 0
    for _ in range(_VECTORISED_ROUNDS):
        hashed = ((_VECTOR ^ (_VECTOR >> 7)) * 0x9E3779B1) & 0xFFFFFFFF
        total += int(np.bincount((hashed & 1023).astype(np.intp),
                                 minlength=1024).max())
    return total


class HostSpeed:
    """Probes the host's speed and normalises timed blocks by it."""

    def __init__(self) -> None:
        #: ``(cpu start, cpu end, factor)`` of every probe of the open block.
        self._probes: list[tuple[float, float, float]] = []
        #: A probe is running; a timer signal arriving inside it is dropped.
        self._busy = False
        #: Factors of every probe taken, for the report.
        self.factors: list[float] = []

    def probe(self) -> None:
        """Run the reference once and record its speed factor."""
        if self._busy:
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = thread_time()
            interpreted()
            middle = thread_time()
            vectorised()
            end = thread_time()
        finally:
            if collecting:
                gc.enable()
            self._busy = False
        factor = math.sqrt((middle - start) / INTERPRETED_NOMINAL_S
                           * (end - middle) / VECTORISED_NOMINAL_S)
        self._probes.append((start, end, factor))
        self.factors.append(factor)

    def _on_timer(self, signum, frame) -> None:
        try:
            self.probe()
        except Exception:  # noqa: BLE001 -- never raise into the program
            pass

    def timed(self, call, *args, **kwargs):
        """Call once; return ``(result, normalised cpu s, raw cpu s, wall s)``.

        The wall seconds leave out the CPU time of the probes inside the
        block.
        """
        self._probes = []
        self.probe()
        previous = signal.signal(signal.SIGPROF, self._on_timer)
        signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        wall = perf_counter()
        try:
            result = call(*args, **kwargs)
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0.0)
            signal.signal(signal.SIGPROF, previous)
            wall = perf_counter() - wall
            self.probe()
        probes, self._probes = self._probes, []
        wall -= sum(end - start for start, end, _ in probes[1:-1])
        raw = normalised = 0.0
        for (_, left_end, left), (right_start, _, right) in zip(probes, probes[1:]):
            segment = right_start - left_end
            raw += segment
            normalised += segment / math.sqrt(left * right)
        return result, normalised, raw, wall

    def timed_rounds(self, call, rounds: int) -> list:
        """Call ``rounds`` times with a probe before, between and after.

        For calls too short to be probed inside: each call is normalised by
        the probes on either side of it, and neighbouring calls share a
        probe.  Returns ``[(result, normalised cpu s, raw cpu s)]``.
        """
        self._probes = []
        self.probe()
        timings = []
        for _ in range(rounds):
            start = thread_time()
            result = call()
            raw = thread_time() - start
            self.probe()
            left, right = self._probes[-2][2], self._probes[-1][2]
            timings.append((result, raw / math.sqrt(left * right), raw))
        self._probes = []
        return timings
