"""The host's speed, measured while the benchmark runs.

The reference box is a 2-vCPU guest whose clock moves between levels
about 1 : 1.27 : 1.7 apart — ``stream_small`` reads 20, 26 or 35 us —
and stays on one for anything from 0.1 s to minutes (README, noise).  A
run's plain median is whichever level held longest, so runs of the
same code differ by 25-45 %.  A fixed loop of interpreter bytecode
takes 37 / 47 / 62 us on the same levels and follows them within a few
percent.  So a probe of that loop runs between the timed blocks, and
every block is reported as ``measured time x host speed``: the time it
would have taken at the reference speed.  The probe runs nothing of
the program under test, and it runs alone (200 loops, of which the
median: the first, cache-cold ones do not count), so no change to the
program moves it.
"""

from __future__ import annotations

from statistics import median
from time import perf_counter

#: what one loop takes on the reference box at its most common level
REFERENCE_LOOP_US = 47.0
PROBE_LOOPS = 200  # about 10 ms


def host_speed() -> float:
    """The host's speed now, as a share of the reference speed (below
    1: the host is slower)."""
    loops = []
    for _ in range(PROBE_LOOPS):
        t0 = perf_counter()
        x = 0
        for i in range(2000):
            x += i
        loops.append(perf_counter() - t0)
    return REFERENCE_LOOP_US * 1e-6 / median(loops)


class SetUpClock:
    """``setup_s``: process start -> first timed operation."""

    def __init__(self, started: float) -> None:
        #: *started*: the clock when the process began; create this
        #: before the imports, it probes the speed they will run at
        self.started = started
        self.speed = host_speed()

    def seconds(self, now: float, speed_now: float) -> float:
        """Start -> *now* at the reference speed: the mean of the
        speeds before the imports and after the warm-up."""
        return (now - self.started) * (self.speed + speed_now) / 2
