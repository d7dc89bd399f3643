"""How fast the host is running, from a fixed loop timed between units.

A shared host's cores drift in speed by up to 40 % over minutes, as other
tenants come and go, and by as much again within seconds.  On a 2-vCPU x86
VM the median time of a suite call over 20-second windows spread by 0.30 to
0.47 (IQR over median) within a few minutes.  That drift moves every timing
of a run together, so the benchmark reports its times at a reference host
speed: a probe is timed before and after the units, and each timing of a
unit is divided by the slowness around it, the mean of the two probes on
either side over PROBE_REF_S.  Scaled so, the windows spread by 0.02 to
0.04.  A change to the program moves the reported times by its full size;
a change of the host's speed largely cancels.  The raw times and the run's
median slowness are printed next to the result.

The probe runs in the process that times the units, on the core that runs
them: timed from a second process, which the host may run on the other
core, it tracked the suites' speed less well.  For CLI invocations, which
run in child processes, scaling each timing this way still did better than
scaling the run's medians by its median slowness.  The probe calls no
library code.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter

# Median probe time on a quiet 2-vCPU x86 host (Xeon, Python 3.11); it only
# fixes the scale of the reported times.
PROBE_REF_S = 0.005
EVERY_S = 0.2  # least gap between two probes

# Berlekamp-Massey over GF(2) on four rotations of a fixed 160-bit sequence:
# list indexing, small-int arithmetic and copies, the work the library's own
# loops do.  It tracked the host's speed in the library's suites better than
# a bare arithmetic loop did.
_rng = random.Random(1)
BITS = [_rng.randrange(2) for _ in range(160)]


def _bm(s: list[int]) -> int:
    n = len(s)
    c, b, L, m = [1] + [0] * n, [1] + [0] * n, 0, -1
    for i in range(n):
        d = s[i]
        for j in range(1, L + 1):
            d ^= c[j] & s[i - j]
        if d:
            t, shift = c[:], i - m
            for j in range(n + 1 - shift):
                c[j + shift] ^= b[j]
            if 2 * L <= i:
                L, m, b = i + 1 - L, i, t
    return L


def probe_seconds() -> float:
    """Wall time of one probe."""
    t0 = perf_counter()
    for k in range(4):
        _bm(BITS[k:] + BITS[:k])
    return perf_counter() - t0


class HostProbe:
    """Probe times taken between units, no closer together than EVERY_S."""

    def __init__(self) -> None:
        self.last = float("-inf")

    def time(self) -> float:
        self.last = perf_counter()
        return probe_seconds()

    def sample(self, into: list[float]) -> None:
        """Append a probe time to into, unless the last probe is under EVERY_S old."""
        if perf_counter() - self.last >= EVERY_S:
            into.append(self.time())


def slowness(probes: list[float]) -> float:
    """Median probe time over the reference: above 1 on a slow host."""
    return statistics.median(probes) / PROBE_REF_S


def around(probes: list[float], k: int) -> float:
    """Slowness around the work done between probe k and probe k + 1."""
    return (probes[k] + probes[k + 1]) / 2 / PROBE_REF_S
