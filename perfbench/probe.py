"""Host-speed probe: report times at one reference host speed.

A shared 2-vCPU x86-64 host (CPython 3.11) changed speed by up to half,
in episodes from under a second to a whole run, and CPU time tracked wall
time, so the program was not waiting: the host ran everything slower.  Seven
identical passes of one workload took 4.8 to 8.5 s.  A median over passes
cannot remove a slowdown that lasts a whole run.

While timing, a SIGALRM handler runs a fixed pure-Python loop every
PERIOD_S and records how long it took.  A timed span's raw duration (probe
time subtracted) is multiplied by the mean of REF_S / probe duration over the
probes that ran inside it, or by the nearest probe if none did.  The result
estimates the span's duration on a host where the probe takes REF_S.  Work
inside wheelfan does not run the probe loop, so a change to the program
moves the scaled times as much as the raw ones.

Slowdowns do not hit all code alike, so each workload names the loop that
tracks it best.  An integer-arithmetic loop follows the big-integer
determinant workloads: on four same-seed minor-sparse runs it cut the
spread of wall time (interquartile range over median) from 0.14 raw to
0.03.  On enum-oracle it missed a slowdown that hit allocation-heavy code
harder (0.20 raw, 0.28 scaled); a loop of union-find walks and tuple and
dict churn brought that to 0.10.
"""

from __future__ import annotations

import bisect
import signal
from time import perf_counter

PERIOD_S = 0.01


def _arith() -> int:
    s = 0
    for i in range(2000):
        s += i * i % 7
    return s


def _mixed() -> int:
    # union-find walks, tuple and dict churn and a sort, like the program's
    # inner loops, on a few hundred objects: a working set that small is
    # cache-resident after its first iterations, so the program's own memory
    # use barely changes the reading
    parent = list(range(32))
    seen = {}
    pairs = []
    for i in range(150):
        a, b = (i * 7) % 32, (i * 13 + 5) % 32
        while parent[a] != a:
            a = parent[a]
        while parent[b] != b:
            b = parent[b]
        if a != b:
            parent[b] = a
        pairs.append((min(a, b), max(a, b)))
        seen[pairs[-1]] = i
    pairs.sort()
    return len(seen) + len(pairs)


# loop and REF_S per probe kind.  REF_S is the loop's typical duration inside
# the timed passes at a quiet moment of a 2-vCPU x86-64 host under CPython
# 3.11, so scaled times read close to raw ones there.
PROBES = {"arith": (_arith, 165e-6), "mixed": (_mixed, 270e-6)}


def speed_factor(kind: str, samples: int = 15) -> float:
    """REF_S over the median of samples back-to-back runs of the loop.

    For a process too short-lived for the timer to sample it: run right
    after the span, it gives the factor to scale that span by.
    """
    loop, ref = PROBES[kind]
    times = []
    for _ in range(samples):
        t0 = perf_counter()
        loop()
        times.append(perf_counter() - t0)
    times.sort()
    return ref / times[len(times) // 2]


class SpeedProbe:
    """Context manager sampling host speed on a timer while it is open."""

    def __init__(self, kind: str):
        self._loop, self._ref = PROBES[kind]
        self.times: list[float] = []  # end of each probe
        self.factors: list[float] = []  # REF_S / probe duration
        self.spent = 0.0  # total time inside probes

    def _tick(self, signum, frame):
        t0 = perf_counter()
        self._loop()
        t1 = perf_counter()
        self.times.append(t1)
        self.factors.append(self._ref / (t1 - t0))
        self.spent += t1 - t0

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, t0: float, t1: float) -> float:
        """Mean speed factor of the probes that ended in [t0, t1], else of the nearest one."""
        lo = bisect.bisect_left(self.times, t0)
        hi = bisect.bisect_right(self.times, t1)
        if hi > lo:
            return sum(self.factors[lo:hi]) / (hi - lo)
        if not self.times:
            raise RuntimeError("no speed probe ran while timing")
        mid = (t0 + t1) / 2
        near = min((i for i in (lo - 1, lo) if 0 <= i < len(self.times)), key=lambda i: abs(self.times[i] - mid))
        return self.factors[near]
