"""Host speed probe: times measured here, scaled to a reference speed.

The reference machine (2 shared vCPUs) switches between a fast and a slow
state every few seconds, and the mix of the two drifts over minutes.  The
slow state is 1.4x to 1.7x slower in CPU time as much as in wall time, so it
is host speed, not scheduling.  A fixed pure-Python workload, which uses no
code of the package, runs for about 1.5 ms before and after every timed
step; the step's time is multiplied by REF_S over the mean of the two probes.
Scaled times therefore read as if the host had stayed at the reference
speed, where one probe takes REF_S seconds.
"""

from __future__ import annotations

import time

REF_S = 1.5e-3
ROUNDS = 32

_A = tuple((7 * i + 3) % 11 for i in range(16))
_B = tuple((5 * i + 1) % 11 for i in range(16))


class _Zp:
    """Integers mod p with method calls per operation, as in the package."""

    def __init__(self, p):
        self.p = p

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return a * b % self.p


def _work():
    f = _Zp(11)
    seen = {}
    for r in range(ROUNDS):
        out = [0] * (len(_A) + len(_B) - 1)
        for i, a in enumerate(_A):
            for j, b in enumerate(_B):
                out[i + j] = f.add(out[i + j], f.mul(a, b + r))
        seen[tuple(out)] = r
    return len(seen)


def probe():
    """Seconds one run of the fixed workload takes now."""
    t = time.perf_counter()
    _work()
    return time.perf_counter() - t


def scale(seconds, before, after):
    """`seconds` measured between two probes, at the reference speed."""
    return seconds * 2 * REF_S / (before + after)
