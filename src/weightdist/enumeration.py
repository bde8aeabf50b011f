"""Exhaustive codeword enumeration for exact weight counting.

Every one of the q^k messages is encoded and its Hamming weight tallied, so
the result is exact by construction; numpy integer arrays are only the
carrier.  The message space splits into an inner block table and an outer
offset loop, and with several workers the outer loop is partitioned into
disjoint ranges whose histograms are merged by exact addition.

The block table is stored coordinate-major, one contiguous row per code
position.  A position of (table word) + c is zero exactly where the table
holds the word of -c, so the hot loop is one full-SIMD compare per position.
Each symbol is one unsigned word, in the smallest dtype that holds it; the
layout depends on the characteristic p:
  - p = 2: the canonical encoding itself; vector addition is XOR.
  - p odd: the base-p digits, each in a field of w bits whose top bit is a
    guard bit.  The table stores every digit offset by 2^(w-1) - p, so after
    a canonical digit is added the guard bit is set exactly when the digit
    sum reached p; subtracting p from those fields re-canonicalises the
    whole word at once (SWAR: SIMD within a register).
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Sequence

import numpy as np

from .errors import BudgetExceededError, UnsupportedOrderError
from .fields import Field, _digits
from .matrices import GFMatrix

DEFAULT_ENUMERATION_BUDGET = 10 ** 8
_BLOCK_ROWS = 1 << 16
_DTYPES = (np.uint8, np.uint16, np.uint32, np.uint64)


class _Representation:
    """Field-specific symbol layout: one word per symbol, and the vector
    addition on it.  Table words carry the offset `zero`, the word of the
    zero symbol; the packed encodings added to them carry none."""

    def __init__(self, field: Field):
        p, m = field.p, field.m
        self.field = field
        if p == 2:
            self.kind, bits, zero = "xor", m, 0
        else:
            self.kind = "packed"
            self.w = w = (2 * p - 2).bit_length() + 1
            bits = m * w
            low = sum(1 << (w * i) for i in range(m))
            zero = ((1 << (w - 1)) - p) * low
        if bits > 64:
            raise UnsupportedOrderError(
                f"GF({field.q}) symbols need {bits} bits; enumeration packs at most 64")
        self.dtype = next(t for t in _DTYPES if np.dtype(t).itemsize * 8 >= bits)
        self.zero = self.dtype(zero)
        if p != 2:
            self.guard, self.low, self.p = self.dtype(w - 1), self.dtype(low), self.dtype(p)

    def pack(self, encs: Sequence[int]) -> np.ndarray:
        """Canonical encodings as words, base-p digit i in bits [w*i, w*i + w)."""
        if self.kind == "xor":
            return np.array(encs, dtype=self.dtype)
        p, m, w = self.field.p, self.field.m, self.w
        return np.array([sum(d << (w * i) for i, d in enumerate(_digits(e, p, m)))
                         for e in encs], dtype=self.dtype)

    def add(self, col: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Table words col plus packed words v, again as table words."""
        if self.kind == "xor":
            return col ^ v
        s = col + v
        return s - ((s >> self.guard) & self.low) * self.p


def _histogram_range(rep: _Representation, inner: Sequence[Sequence[int]],
                     outer: Sequence[Sequence[int]], n: int,
                     outer_start: int, outer_stop: int) -> np.ndarray:
    """Weight histogram of { sum_i m_i row_i } for outer message indices in
    [outer_start, outer_stop), each combined with every inner-block message."""
    field = rep.field
    q = field.q
    table = [np.full(1, rep.zero) for _ in range(n)]
    for row in inner:
        mults = rep.pack([field.mul(lam, e) for lam in range(q) for e in row])
        mults = mults.reshape(q, n, 1)
        table = [rep.add(col, mults[:, j]).ravel() for j, col in enumerate(table)]

    wdtype = np.uint8 if n <= 255 else np.int64
    wbuf = np.zeros(q ** len(inner), dtype=wdtype)
    hist = np.zeros(n + 1, dtype=np.int64)
    for idx in range(outer_start, outer_stop):
        neg = [0] * n  # minus the outer codeword
        rem = idx
        for row in reversed(outer):
            lam = rem % q
            rem //= q
            if lam:
                nlam = field.neg(lam)
                neg = [field.add(a, field.mul(nlam, b)) for a, b in zip(neg, row)]
        wbuf[:] = 0
        for col, t in zip(table, rep.pack(neg) + rep.zero):
            wbuf += col != t
        hist += np.bincount(wbuf, minlength=n + 1)
    return hist


def _worker(args) -> list[int]:
    p, m, modulus, inner, outer, n, start, stop = args
    rep = _Representation(Field(p, m, modulus or None))
    return _histogram_range(rep, inner, outer, n, start, stop).tolist()


def weight_histogram(G: GFMatrix, budget: int | None = DEFAULT_ENUMERATION_BUDGET,
                     workers: int = 1) -> list[int]:
    """Exact weight histogram (A_0..A_n) of the row space of G, by full
    enumeration of all q^rows(G) messages.  Raises UnsupportedOrderError
    for a field whose symbols need more than 64 bits (only q >= 3^17)."""
    field, n, k = G.field, G.cols, G.rows
    rep = _Representation(field)
    total = field.q ** k
    if budget is not None and total > budget:
        raise BudgetExceededError(
            f"enumeration of {total} codewords exceeds budget {budget}")
    if k == 0:
        return [1] + [0] * n
    rows = [list(r) for r in G.entries]

    k_inner = 0
    while k_inner < k and field.q ** (k_inner + 1) <= _BLOCK_ROWS:
        k_inner += 1
    inner, outer = rows[k - k_inner:], rows[:k - k_inner]
    n_outer = field.q ** len(outer)

    if workers <= 1 or n_outer < 2 * workers:
        return _histogram_range(rep, inner, outer, n, 0, n_outer).tolist()

    bounds = [n_outer * i // workers for i in range(workers + 1)]
    modulus = tuple(field.modulus_poly)
    jobs = [(field.p, field.m, modulus, inner, outer, n, bounds[i], bounds[i + 1])
            for i in range(workers) if bounds[i] < bounds[i + 1]]
    hist = [0] * (n + 1)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for part in pool.map(_worker, jobs):
            hist = [a + b for a, b in zip(hist, part)]
    return hist
