"""CPU time scaled to a reference speed that is measured while the work runs.

On a shared machine the same pure-Python work can take 15 or 21 ms from one
second to the next, because other tenants load the same cores. Wall time
also counts the time the process waits for a core. A RefClock therefore
measures the thread's CPU time, and every 10 ms of process CPU time a
profiling-timer signal runs a fixed reference loop (about 0.2 ms) and records
its CPU time. An interval's CPU time, minus the time spent in those loops, is
scaled by REF_LOOP_S over the median reference loop measured during it, or
over the last few loops if it was too short to contain them. The result reads
as the seconds the work takes when the reference loop takes REF_LOOP_S, which
is about this machine's uncontended speed.

Only the main thread is measured; the workloads run nothing in other threads.
"""

from __future__ import annotations

import signal
import statistics
from time import thread_time

REF_LOOP_S = 2e-4
LOOP_ITERATIONS = 4000
INTERVAL_S = 0.01
MIN_LOOPS = 5


class RefClock:
    def __init__(self):
        self.loops: list[float] = []
        self.loop_cpu = 0.0
        self._old = None

    def _tick(self, signum, frame):
        t0 = thread_time()
        s = 0
        for i in range(LOOP_ITERATIONS):
            s += i * i % 7
        d = thread_time() - t0
        self.loops.append(d)
        self.loop_cpu += d

    def __enter__(self):
        self._old = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        self._tick(None, None)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._old)

    def mark(self):
        return thread_time(), self.loop_cpu, len(self.loops)

    def since(self, start) -> float:
        """Scaled seconds from a mark() to now."""
        t1, c1, n1 = self.mark()
        t0, c0, n0 = start
        loops = self.loops[n0:n1] if n1 - n0 >= MIN_LOOPS else self.loops[max(0, n1 - MIN_LOOPS) : n1]
        return (t1 - t0 - (c1 - c0)) * REF_LOOP_S / statistics.median(loops)
