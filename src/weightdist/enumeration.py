"""Exhaustive codeword enumeration for exact weight counting.

The weight of every one of the q^k messages is tallied, so the result is
exact by construction; numpy integer arrays are only the carrier.  A nonzero
codeword c and its q - 1 nonzero multiples share one weight, so only one
message per line of multiples is encoded.  The message space splits into an
inner block table and an outer part: the block is histogrammed once with the
outer part zero, and then once for each outer message whose first nonzero
coefficient is 1, counted q - 1 times.  This is exact at the message level,
also for a rank-deficient generator: m -> lam*m keeps the first nonzero
position, maps the inner block onto itself and scales every word by lam.
With several workers the normalised outer messages are partitioned into
disjoint ranges whose histograms are merged by exact addition.

The block table is stored word-major, one contiguous row per table word
of the codewords.  The words of table entry u are compared with those of
outer codeword c, which counts the weight of u - c; over the whole block
that is the histogram of the outer message -m, the same as that of m.  The
layout depends on the field:
  - q = 2: 64 coordinates per uint64 word, coordinate j in bit j % 64 of
    word j // 64; vector addition is XOR, and the differing coordinates of
    two words are the popcount of their XOR (np.bitwise_count, numpy >= 2.0).
  - q = 2^m, m > 1: one symbol per word, the canonical encoding itself;
    vector addition is XOR.
  - p odd: one symbol per word, its base-p digits each in a field of w bits
    whose top bit is a guard bit.  The table stores every digit offset by
    2^(w-1) - p, so after a canonical digit is added the guard bit is set
    exactly when the digit sum reached p; subtracting p from those fields
    re-canonicalises the whole word at once (SWAR: SIMD within a register).
One symbol per word takes the smallest unsigned dtype that holds it, and
a word differs or not.  Packing several such symbols per word and counting
the nonzero fields of their difference was measured slower than this
per-symbol compare, so only GF(2) packs.

numpy and the process pool are imported inside the functions that use them,
so that importing the package, and every command that does not enumerate,
never loads them.
"""

from __future__ import annotations

import os
from typing import Iterator, Sequence

from .errors import BudgetExceededError, UnsupportedOrderError
from .fields import TABLE_ORDER_LIMIT, Field, array_mul
from .matrices import GFMatrix

DEFAULT_ENUMERATION_BUDGET = 10 ** 8
_BLOCK_ROWS = 1 << 16


class _Representation:
    """Field-specific table layout: the symbols per table word, the vector
    addition on words, and the count of differing symbols between words.
    Table words carry the offset `zero`, the word of the zero symbol; the
    packed encodings added to them carry none.  A field of order at most
    2^16 holds the word of every element; a larger one holds nothing of
    size q."""

    def __init__(self, field: Field):
        import numpy as np

        p, m = field.p, field.m
        self.field = field
        self.per_word = 64 if field.q == 2 else 1
        if p == 2:
            self.kind, bits, zero = "xor", m * self.per_word, 0
        else:
            self.kind = "packed"
            self.w = w = (2 * p - 2).bit_length() + 1
            bits = m * w
            low = sum(1 << (w * i) for i in range(m))
            zero = ((1 << (w - 1)) - p) * low
        if bits > 64:
            raise UnsupportedOrderError(
                f"GF({field.q}) symbols need {bits} bits; enumeration packs at most 64")
        self.dtype = next(t for t in (np.uint8, np.uint16, np.uint32, np.uint64)
                          if np.dtype(t).itemsize * 8 >= bits)
        self.zero = self.dtype(zero)
        if p != 2:
            self.guard, self.low, self.p = self.dtype(w - 1), self.dtype(low), self.dtype(p)
        self.words = None
        if field.q <= TABLE_ORDER_LIMIT:
            self.words = self.pack(np.arange(field.q))

    def pack(self, encs) -> np.ndarray:
        """Canonical encodings as one word each, base-p digit i in bits
        [w*i, w*i + w)."""
        import numpy as np

        e = np.asarray(encs, dtype=np.uint64)
        if self.kind == "xor":
            return e.astype(self.dtype)
        p, w = self.field.p, self.w
        out = np.zeros(e.shape, dtype=self.dtype)
        for i in range(self.field.m):
            out |= (e % p).astype(self.dtype) << self.dtype(w * i)
            e = e // p
        return out

    def multiples(self, row: Sequence[int], lams: Sequence[int]) -> np.ndarray:
        """Table words of lam * row, one row of the result per lam.  When a
        word holds several symbols (GF(2)), symbol j is bit j % per_word of
        word j // per_word; otherwise it is word j."""
        import numpy as np

        products = array_mul(self.field, np.asarray(lams)[:, None], np.asarray(row))
        symbols = self.pack(products) if self.words is None else self.words[products]
        if self.per_word == 1:
            return symbols
        rows, n = symbols.shape
        bits = np.zeros((rows, -(-n // self.per_word) * self.per_word), dtype=self.dtype)
        bits[:, :n] = symbols
        shifts = np.arange(self.per_word, dtype=self.dtype)
        return np.bitwise_or.reduce(bits.reshape(rows, -1, self.per_word) << shifts, axis=2)

    def add(self, col: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Table words col plus packed words v, again as table words."""
        if self.kind == "xor":
            return col ^ v
        s = col + v
        return s - ((s >> self.guard) & self.low) * self.p

    def differences(self, col: np.ndarray, t) -> np.ndarray:
        """For each table word in col, how many of its symbols differ from
        those of the word t: the popcount of the XOR when a word holds
        several GF(2) symbols (Warren, Hacker's Delight, ch. 5), else
        whether the word differs."""
        import numpy as np

        if self.per_word > 1:
            return np.bitwise_count(col ^ t)
        return col != t


def _normalised_messages(q: int, k: int, start: int, stop: int) -> Iterator[int]:
    """Outer messages [start, stop) of the list: the zero message, then for
    t = 0..k-1 every v in [q^t, 2 q^t).  Read in base q with the first outer
    row's coefficient most significant, these are the messages whose first
    nonzero coefficient is 1, one from each line of nonzero multiples."""
    if start == 0 < stop:
        yield 0
    first = 1  # list index of q^t
    for t in range(k):
        size = q ** t
        for idx in range(max(start, first), min(stop, first + size)):
            yield size + idx - first
        first += size


def _histogram_range(rep: _Representation, inner: Sequence[Sequence[int]],
                     outer: Sequence[Sequence[int]], n: int,
                     outer_start: int, outer_stop: int) -> np.ndarray:
    """Weight histogram of { sum_i m_i row_i } over the normalised outer
    messages [outer_start, outer_stop) (see `_normalised_messages`), each
    combined with every inner-block message; every nonzero outer message
    stands for its q - 1 multiples."""
    import numpy as np

    q = rep.field.q
    width = -(-n // rep.per_word)  # table words per codeword
    table = [np.full(1, rep.zero) for _ in range(width)]
    for row in inner:
        mults = rep.multiples(row, range(q))
        table = [rep.add(col, mults[:, j, None]).ravel() for j, col in enumerate(table)]
    # Every multiple of each outer row up front when the field is small;
    # beyond 2^16 one at a time, so nothing of size q is allocated.
    outer_mults = None
    if rep.words is not None:
        outer_mults = [rep.multiples(row, range(q)) for row in outer]

    wdtype = np.uint8 if n <= 255 else np.int64
    wbuf = np.zeros(q ** len(inner), dtype=wdtype)
    hist = np.zeros(n + 1, dtype=np.int64)
    for v in _normalised_messages(q, len(outer), outer_start, outer_stop):
        target = np.full(width, rep.zero)
        rem = v
        for i in reversed(range(len(outer))):
            lam = rem % q
            rem //= q
            if lam:
                mult = (outer_mults[i][lam] if outer_mults is not None
                        else rep.multiples(outer[i], [lam])[0])
                target = rep.add(target, mult)
        wbuf[:] = 0
        for col, t in zip(table, target):
            wbuf += rep.differences(col, t)
        hist += np.bincount(wbuf, minlength=n + 1) * (q - 1 if v else 1)
    return hist


def _worker(args) -> list[int]:
    p, m, modulus, inner, outer, n, start, stop = args
    rep = _Representation(Field(p, m, modulus or None))
    return _histogram_range(rep, inner, outer, n, start, stop).tolist()


def weight_histogram(G: GFMatrix, budget: int | None = DEFAULT_ENUMERATION_BUDGET,
                     workers: int = 1) -> list[int]:
    """Exact weight histogram (A_0..A_n) of the row space of G, by
    enumeration of one message per line of nonzero multiples (see the
    module docstring).  The budget caps all q^rows(G) messages.  At most
    `os.cpu_count()` worker processes run.  Raises UnsupportedOrderError
    for a field whose symbols need more than 64 bits (only q >= 3^17)."""
    if isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
        raise ValueError(f"workers must be a positive integer, got {workers!r}")
    if budget is not None and (isinstance(budget, bool) or not isinstance(budget, int) or budget < 1):
        raise ValueError(f"budget must be None or a positive integer, got {budget!r}")
    field, n, k = G.field, G.cols, G.rows
    rep = _Representation(field)
    q = field.q
    total = q ** k
    if budget is not None and total > budget:
        raise BudgetExceededError(
            f"enumeration of {total} codewords exceeds budget {budget}")
    if k == 0:
        return [1] + [0] * n
    rows = [list(r) for r in G.entries]

    k_inner = 0
    while k_inner < k and q ** (k_inner + 1) <= _BLOCK_ROWS:
        k_inner += 1
    inner, outer = rows[k - k_inner:], rows[:k - k_inner]
    n_outer = 1 + (q ** len(outer) - 1) // (q - 1)

    workers = min(workers, os.cpu_count() or 1)
    if workers == 1 or n_outer < 2 * workers:
        return _histogram_range(rep, inner, outer, n, 0, n_outer).tolist()

    from concurrent.futures import ProcessPoolExecutor
    bounds = [n_outer * i // workers for i in range(workers + 1)]
    modulus = tuple(field.modulus_poly)
    jobs = [(field.p, field.m, modulus, inner, outer, n, bounds[i], bounds[i + 1])
            for i in range(workers)]
    hist = [0] * (n + 1)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for part in pool.map(_worker, jobs):
            hist = [a + b for a, b in zip(hist, part)]
    return hist
