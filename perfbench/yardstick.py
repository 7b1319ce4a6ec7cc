"""A yardstick for a host whose speed drifts under the benchmark.

The sandbox this benchmark runs in shares its processor with neighbours:
measured on the commit that added perfbench, identical passes of one
workload read 1.5 s for a minute, then 1.9-2.8 s for the next half minute,
with zero steal time and nothing else running in the VM — CPU time inflates
exactly like wall time, so no clock in the guest sees it.  Run-to-run spread
of raw pass times was 11-26 % of the median, wider than any bound worth
setting.

What cancels it is a second measurement that suffers the same slowdown at
the same moments: a fixed pure-Python loop (generators, a heap, a dict of
tuples over a few MB — the simulator's own instruction mix) run for ~2 ms
from a 20 Hz interval timer *inside* the timed region.  If the loop ran at
0.6 of its reference speed while a pass took 2.5 s, the pass was worth 1.5
reference seconds.  ``reference seconds`` are what every host-clock metric
of perfbench is reported in; raw seconds are printed beside them.  With
the yardstick the same passes spread 2-3 %.

It costs ~5 % of the pass (constant, subtracted) and is perfbench's own
code, so no change to the program under test can move it.
"""

from __future__ import annotations

import heapq
import signal
from time import perf_counter

#: Loop iterations per tick and timer period: ~2.3 ms of every 50 ms.
STEPS = 3000
PERIOD_S = 0.05
#: How long one tick takes on the quiet reference host (the 2-core sandbox
#: at the commit that added perfbench, interleaved with a simulation).  It
#: only fixes the scale, so that reference seconds read like this host's
#: seconds when nobody else is using it.
REFERENCE_TICK_S = 2.25e-3
_SLOTS = 0x7FFF


class Yardstick:
    def __init__(self) -> None:
        def process(i):
            t = i
            while True:
                t += (i % 7) + 1
                yield t

        self._processes = [process(i) for i in range(256)]
        self._heap = [(next(p), i) for i, p in enumerate(self._processes)]
        heapq.heapify(self._heap)
        self._table: dict[int, tuple] = {}
        self._count = 0
        self._samples: list[float] = []
        for _ in range(2 + _SLOTS // STEPS):    # fill the table once
            self._tick()
        # Installed for good: a tick that lands after a measurement ended
        # only adds a sample nobody reads.
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, _signum=None, _frame=None) -> None:
        t0 = perf_counter()
        heap, processes, table = self._heap, self._processes, self._table
        push, pop = heapq.heappush, heapq.heappop
        k = self._count
        for _ in range(STEPS):
            t, i = pop(heap)
            table[t & _SLOTS] = (t, i, k)
            k += 1
            push(heap, (next(processes[i]), i))
        self._count = k
        self._samples.append(perf_counter() - t0)

    def speed(self, ticks: int = 20) -> float:
        """Host speed right now, as a share of the reference host's, from
        ``ticks`` back-to-back ticks."""
        self._samples = []
        for _ in range(ticks):
            self._tick()
        return REFERENCE_TICK_S * ticks / sum(self._samples)

    def measure(self, fn):
        """Run ``fn()`` with the yardstick ticking inside it.  Returns
        ``(result, raw seconds, reference seconds)``; both exclude the
        ticks' own time."""
        self._samples = []
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        t0 = perf_counter()
        try:
            result = fn()
        finally:
            elapsed = perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
        samples = self._samples
        raw = elapsed - sum(samples)
        if not samples:     # shorter than one period: nothing to scale by
            return result, raw, raw * self.speed()
        # Mean tick *duration*, not mean tick rate: a neighbour that takes
        # the processor away for milliseconds at a time stretches the few
        # ticks it lands in and leaves the rest at full speed, and only the
        # mean duration charges those gaps in full.  Measured over 180
        # passes, reference seconds from mean duration stayed level as the
        # raw slowdown went from 1.0x to 1.4x; from mean rate they crept up
        # 6 % (under-correction), and 27 % under a 2x slowdown.
        return result, raw, raw * REFERENCE_TICK_S * len(samples) / sum(samples)
