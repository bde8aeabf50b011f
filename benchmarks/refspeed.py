"""The machine's current speed, from fixed reference work timed beside the
benchmark's own.

The benchmark runs on shared virtual machines whose speed drifts: on the
2-core machine it was built on, the same pure-Python loop took from 42 to
67 ms in 5-second windows, in phases of tens of seconds, in CPU time as much
as in wall time, and starting an interpreter slowed by up to 1.6x in phases
of its own that the loop did not feel.  Phases that long move whole runs,
so neither the fastest nor the median pass of a run cancels them.

The references touch no weightdist code and are timed right beside what
they scale:

- `loop(kind)`: stdlib or numpy work of the kind a workload's jobs do,
  run in the pass process between its jobs, where each job's time is
  scaled by the two loops nearest to it, and beside each `weightdist`
  command.  A reference of the workload's own kind tracks it best.  Over
  the same pass repeated for three minutes per workload, the coefficient
  of variation of the pass time was, unscaled / scaled by its own kind /
  by the worst other kind: enumerate 0.19 / 0.10 (numpy) / 0.12, verify
  0.19 / 0.09 (rank) / 0.11, solve 0.18 / 0.06 (fraction) / 0.09.
- `spawn()`: a fresh interpreter that imports what weightdist imports;
  it scales set-up, which begins with an interpreter start, and, together
  with the workload's loop, the `weightdist` command, which is an
  interpreter start followed by the workload's kind of work.

A time scaled by a reference's nominal time over its median time around the
interval reads in seconds at the speed the machine had when the nominal
times were taken, and a change to weightdist moves it as much as it moves
the unscaled time.
"""

from __future__ import annotations

import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

# Median times of each loop kind and of spawn() on the machine the benchmark
# was built on (2 vCPUs of an Intel Xeon, Python 3.11.7, numpy 2.4.6).  They
# only set the scale in which scaled times read; any constants would do.
LOOP_S = {"rank": 0.008, "fraction": 0.009, "numpy": 0.011}
SPAWN_S = 0.2
# The loop kind that each workload's jobs spend their time on.
WORKLOAD_KIND = {"enumerate": "numpy", "verify": "rank", "solve": "fraction"}
SPAWN_TIMEOUT_S = 30.0

_ARRAY = np.arange(1 << 16, dtype=np.uint16)
_HILBERT = 17


class _PrimeField:
    """Arithmetic mod a small prime through method calls, as in the fields."""

    def __init__(self, p: int):
        self.p = p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def neg(self, a: int) -> int:
        return -a % self.p

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        return a * b % self.p

    def inv(self, a: int) -> int:
        return pow(a, self.p - 2, self.p)


_F5 = _PrimeField(5)
_RNG = random.Random(5)
_COLUMNS = [[_RNG.randrange(5) for _ in range(6)] for _ in range(13)]
_NU = 4


def _rank_work() -> dict[int, int]:
    """Ranks of all 4-column subsets of a fixed 6 x 13 matrix over GF(5),
    by a depth-first walk that extends a reduced basis, as in the census."""
    f, s, t = _F5, len(_COLUMNS[0]), len(_COLUMNS)
    basis: list[tuple[int, list[int]]] = []
    counts: dict[int, int] = {}

    def reduce(col: list[int]) -> tuple[int, list[int]] | None:
        v = col[:]
        for lead, b in basis:
            c = v[lead]
            if c:
                for i in range(lead, s):
                    v[i] = f.sub(v[i], f.mul(c, b[i]))
        lead = next((i for i in range(s) if v[i]), None)
        if lead is None:
            return None
        inv = f.inv(v[lead])
        return lead, [f.mul(inv, x) for x in v]

    def walk(start: int, size: int) -> None:
        if size == _NU:
            counts[len(basis)] = counts.get(len(basis), 0) + 1
            return
        for c in range(start, t - (_NU - size) + 1):
            reduced = reduce(_COLUMNS[c])
            if reduced is not None:
                basis.append(reduced)
            walk(c + 1, size + 1)
            if reduced is not None:
                basis.pop()

    walk(0, 0)
    return counts


def _fraction_work() -> Fraction:
    """Fraction elimination, as in the moment systems: a Hilbert matrix
    with one right-hand side brought to echelon form."""
    n = _HILBERT
    m = [[Fraction(1, i + j + 1) for j in range(n)] + [Fraction(i + 1)] for i in range(n)]
    for c in range(n):
        pivot = m[c]
        for r in range(c + 1, n):
            f = m[r][c] / pivot[c]
            row = m[r]
            for j in range(c, n + 1):
                row[j] -= f * pivot[j]
    return m[n - 1][n]


def _numpy_work() -> int:
    """Whole-array passes over 2^16 small integers, as in enumeration."""
    a = _ARRAY.copy()
    for _ in range(800):
        a ^= a >> 1
    return int(a[12345])


_WORK = {"rank": _rank_work, "fraction": _fraction_work, "numpy": _numpy_work}


def loop(kind: str, times: int = 1) -> list[float]:
    """Seconds taken by each of `times` reference loops of `kind` in a row."""
    work = _WORK[kind]
    out = []
    for _ in range(times):
        t0 = time.perf_counter()
        work()
        out.append(time.perf_counter() - t0)
    return out


def spawn() -> float:
    """Seconds from spawn to exit of an interpreter that imports numpy and
    fractions, the modules weightdist imports."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy, fractions"], check=True,
                   timeout=SPAWN_TIMEOUT_S, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def scaled(seconds: float, reference: list[float], nominal: float) -> float:
    """`seconds` in seconds at the nominal speed, given the times of a
    reference whose nominal time is `nominal`, taken around it."""
    return seconds * nominal / statistics.median(reference)


def scaled_jobs(jobs: list[tuple[float, float]], reference: list[tuple[float, float]],
                nominal: float) -> float:
    """The summed time of `jobs`, each scaled by the two reference loops
    that started closest to its start; both are (start, seconds)."""
    total = 0.0
    for start, seconds in jobs:
        near = sorted(reference, key=lambda r: abs(r[0] - start))[:2]
        total += scaled(seconds, [s for _, s in near], nominal)
    return total
