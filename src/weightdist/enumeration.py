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
of the codewords.  Its entries are built, and each outer codeword c is
formed, by subtraction, which over all multiples of a row ranges over the
same set as addition: the table holds the inner codewords and the target is
-c.  The words of table entry u are compared with those of the target, which
counts the weight of u + c; over the whole block that is the histogram of
the outer message m.  Two layouts:
  - q = 2: 64 coordinates per uint64 word, coordinate j in bit j % 64 of
    word j // 64; subtraction is XOR, and the differing coordinates of
    two words are the popcount of their XOR (np.bitwise_count, numpy >= 2.0).
  - every other field: one canonical encoding per word, in the narrowest
    dtype that holds q - 1, with the field's own array operations
    (`fields.array_ops`); a word differs or not.
Packing several such symbols per word and counting the nonzero fields of
their difference was measured slower than this per-symbol compare, so only
GF(2) packs.

numpy and the process pool are imported inside the functions that use them,
so that importing the package, and every command that does not enumerate,
never loads them.
"""

from __future__ import annotations

import os
from typing import Iterator, Sequence

from .errors import BudgetExceededError
from .fields import TABLE_ORDER_LIMIT, Field, array_ops
from .matrices import GFMatrix

DEFAULT_ENUMERATION_BUDGET = 10 ** 8
_BLOCK_ROWS = 1 << 16


def _multiples(field: Field, row: Sequence[int], lams: Sequence[int]) -> np.ndarray:
    """Table words of lam * row, one row of the result per lam: over GF(2)
    symbol j is bit j % 64 of word j // 64, otherwise it is word j."""
    import numpy as np

    dtype, mul, _, _ = array_ops(field)
    symbols = mul(np.asarray(lams, dtype=dtype)[:, None], np.asarray(row, dtype=dtype))
    if field.q != 2:
        return symbols
    rows, n = symbols.shape
    bits = np.zeros((rows, -(-n // 64) * 64), dtype=np.uint64)
    bits[:, :n] = symbols
    shifts = np.arange(64, dtype=np.uint64)
    return np.bitwise_or.reduce(bits.reshape(rows, -1, 64) << shifts, axis=2)


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


def _histogram_range(field: Field, inner: Sequence[Sequence[int]],
                     outer: Sequence[Sequence[int]], n: int,
                     outer_start: int, outer_stop: int) -> np.ndarray:
    """Weight histogram of { sum_i m_i row_i } over the normalised outer
    messages [outer_start, outer_stop) (see `_normalised_messages`), each
    combined with every inner-block message; every nonzero outer message
    stands for its q - 1 multiples."""
    import numpy as np

    q = field.q
    dtype, _, sub, _ = array_ops(field)
    if q == 2:
        word, width = np.uint64, -(-n // 64)  # table words per codeword

        def differing(col, t):
            return np.bitwise_count(col ^ t)
    else:
        word, width, differing = dtype, n, np.not_equal
    table = [np.zeros(1, dtype=word) for _ in range(width)]
    for row in inner:
        mults = _multiples(field, row, range(q))
        table = [sub(col, mults[:, j, None]).ravel() for j, col in enumerate(table)]
    # Every multiple of each outer row up front when the field is small;
    # beyond 2^16 one at a time, so nothing of size q is allocated.
    outer_mults = None
    if q <= TABLE_ORDER_LIMIT:
        outer_mults = [_multiples(field, row, range(q)) for row in outer]

    wdtype = np.uint8 if n <= 255 else np.int64
    wbuf = np.zeros(q ** len(inner), dtype=wdtype)
    hist = np.zeros(n + 1, dtype=np.int64)
    for v in _normalised_messages(q, len(outer), outer_start, outer_stop):
        target = np.zeros(width, dtype=word)
        rem = v
        for i in reversed(range(len(outer))):
            lam = rem % q
            rem //= q
            if lam:
                mult = (outer_mults[i][lam] if outer_mults is not None
                        else _multiples(field, outer[i], [lam])[0])
                target = sub(target, mult)
        wbuf[:] = 0
        for col, t in zip(table, target):
            wbuf += differing(col, t)
        hist += np.bincount(wbuf, minlength=n + 1) * (q - 1 if v else 1)
    return hist


def _worker(args) -> list[int]:
    p, m, modulus, inner, outer, n, start, stop = args
    return _histogram_range(Field(p, m, modulus or None), inner, outer, n, start, stop).tolist()


def check_budget(words: int, budget: int | None) -> None:
    """Refuse a budget that is not None or an int >= 1 (ValueError), and an
    enumeration of more words than it allows (BudgetExceededError)."""
    if budget is not None and (isinstance(budget, bool) or not isinstance(budget, int) or budget < 1):
        raise ValueError(f"budget must be None or a positive integer, got {budget!r}")
    if budget is not None and words > budget:
        raise BudgetExceededError(
            f"enumeration of {words} codewords exceeds budget {budget}")


def weight_histogram(G: GFMatrix, budget: int | None = DEFAULT_ENUMERATION_BUDGET,
                     workers: int = 1) -> list[int]:
    """Exact weight histogram (A_0..A_n) of the row space of G, by
    enumeration of one message per line of nonzero multiples (see the
    module docstring).  The budget caps all q^rows(G) messages.  At most
    `os.cpu_count()` worker processes run."""
    if isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
        raise ValueError(f"workers must be a positive integer, got {workers!r}")
    field, n, k = G.field, G.cols, G.rows
    q = field.q
    check_budget(q ** k, budget)
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
        return _histogram_range(field, inner, outer, n, 0, n_outer).tolist()

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
