"""Host-speed correction for timed passes.

The benchmark host is a small VM on a shared machine.  Other tenants
slow its cores down by 20-90% in spells that come and go over seconds
to minutes, in CPU time as much as in wall time, so a raw pass time
drifts by 30% between runs of the same code.

A :class:`Sampler` measures that slowdown while a cell (or a process's
set-up) runs: it times a fixed probe kernel right before it, every
``PROBE_INTERVAL_S`` during it (from a ``SIGALRM`` handler, between the
program's bytecodes), and right after it.  The corrected time is the raw
time, less the probes' own time, divided by the *slowdown*: the median
probe time over ``REFERENCE_PROBE_S``.  Corrected times are therefore in
reference seconds: what the work takes on a core that runs the probe in
``REFERENCE_PROBE_S``.  The probe is benchmark code, so a change to the
program never moves it.
"""

from __future__ import annotations

import heapq
import signal
import statistics
import time

#: Probe kernel runs on each side of a cell (about 0.32 ms each when quiet).
PROBE_REPS = 5

#: Wall seconds between probes while a cell runs.
PROBE_INTERVAL_S = 0.05

#: The probe kernel's time on an uncontended core of the host the
#: benchmark was sized on (a 2-vCPU Intel Xeon VM, Python 3.11.7): the
#: fastest probe of each of eight 20 s runs there read 0.320-0.372 ms.
#: A fixed reference, rather than each run's own fastest probe, keeps a
#: run on which the host never went quiet from reading slow.
REFERENCE_PROBE_S = 3.2e-4


def probe_kernel() -> None:
    """A fixed slice of the work the simulator does: heap and dict traffic."""
    heap: list[tuple[int, int]] = []
    counts: dict[int, int] = {}
    for i in range(600):
        heapq.heappush(heap, ((i * 7919) % 1000, i))
        counts[i & 63] = counts.get(i & 63, 0) + 1
    while heap:
        heapq.heappop(heap)


class Sampler:
    """Probe times taken on entering, during and on leaving a ``with`` block.

    ``samples`` holds every probe's wall seconds; ``spent`` is the wall
    time all of them took, to be taken off the block's own time.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _probe(self) -> None:
        t0 = time.perf_counter()
        probe_kernel()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def start(self) -> None:
        for _ in range(PROBE_REPS):
            self._probe()
        self._previous = signal.signal(signal.SIGALRM, lambda *_: self._probe())
        signal.siginterrupt(signal.SIGALRM, False)  # restart interrupted system calls
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        for _ in range(PROBE_REPS):
            self._probe()

    def __enter__(self) -> "Sampler":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def slowdown(self) -> float:
        """How much slower than the reference the host ran meanwhile."""
        return statistics.median(self.samples) / REFERENCE_PROBE_S
