"""Exact weight counting by two routes, each an exact count of codewords:
`weight_histogram` takes whichever costs fewer element operations.

The table enumeration tallies the weight of every message of the reduced
row echelon form of G (`gf_row_reduce`, memoised, and already paid for
when a `LinearCode` builds H), so the result is exact by construction;
numpy integer arrays are only the carrier.  Its rank rows are independent,
so each codeword has one message, and the counts are multiplied by
q^(rows - rank) for the messages of G.  A nonzero codeword c and its q - 1
nonzero multiples share one weight, so only one message per line of
multiples is encoded.  The message space splits into an inner block table
and an outer part: the block is histogrammed once with the outer part zero,
and then once for each outer message whose first nonzero coefficient is 1,
counted q - 1 times.  This is exact at the message level: m -> lam*m keeps
the first nonzero position, maps the inner block onto itself and scales
every word by lam.  With several workers the normalised outer messages are
partitioned into disjoint ranges whose histograms are merged by exact
addition.

The block table is stored word-major, one contiguous row per table word
of the codewords.  The first inner row's table is its own multiples; every
further entry, and each outer codeword c, is formed by subtraction, which
over all multiples of a row ranges over the same set as addition: the table
holds the inner codewords and the target is -c.  The words of table entry u
are compared with those of the target, which counts the weight of u + c;
over the whole block that is the histogram of the outer message m.  Two
layouts:
  - q = 2: 64 coordinates per uint64 word, coordinate j in bit j % 64 of
    word j // 64; subtraction is XOR, and the differing coordinates of
    two words are the popcount of their XOR (np.bitwise_count, numpy >= 2.0).
    Every coordinate stays in the words, since a pivot bit costs no pass
    of its own.
  - every other field: one canonical encoding per word, in the narrowest
    dtype that holds q - 1, with the field's own array operations
    (`fields.array_ops`); a word differs or not.  Only the n - rank
    non-pivot coordinates are words: a codeword's pivot coordinates are its
    message digits.  The weight buffer is seeded with the number of nonzero
    digits of each inner message, one array in the table's index order, and
    an outer message's own count of nonzero digits shifts where its
    histogram lands.  Each compare writes into one preallocated buffer.
Packing several such symbols per word and counting the nonzero fields of
their difference was measured slower than this per-symbol compare, so only
GF(2) packs.  The weights of a block are tallied by `np.bincount`: up to
n = 255 they are uint8, and in a block of more weights than the 256 (n + 1)
bins of a pair table each adjacent pair is read as one uint16 bin, so the
count makes half the passes and the histogram is the row sums plus the
column sums of the pair counts, reshaped (bins, 256) and cut to
(bins, bins); an odd block is padded with one zero weight, taken back out
of bin 0.  A smaller block, whose pair table would cost more to clear and
sum than its weights to count, and the int64 weights past n = 255 are
counted one at a time.

The syndrome count (Wolf's trellis: J. K. Wolf, IEEE Trans. Inf. Theory 24,
1978) serves high-rate codes, whose q^(n-k) syndromes are far fewer than
their messages.  With H = `gf_kernel_basis(G)`, r rows, a codeword is a
vector x with H x^T = 0.  Column by column, it counts the vectors over the
columns so far by syndrome and weight: a next coordinate a != 0 moves a
vector from syndrome s - a h_j to s and adds one to its weight.  After the
last column the count at syndrome 0 is the number of codewords of each
weight, each reached by q^(rows - rank) messages.  The sum over a != 0
runs over the line <h_j>, which x^i h_j (i < m) span over GF(p): it is m
sums of p states each, along c x^i h_j (c in GF(p)).  Every step x^i h_j
is formed before the first column, in one field product; a zero column
takes the same steps, each of which adds a count to itself.  Over GF(2^m)
the state of s - c x^i h_j is an XOR of states; over odd p the state of
s - x^i h_j is found once per step, by one digit subtraction, and that of
s - c x^i h_j by applying that map c times.  The counts are kept
state-major, one row of weights per syndrome.  So it counts the same
codewords as the table, by a different walk over the same space; it uses no
MacWilliams transform, nor any other identity between weight distributions
that the package checks.  `check_count` prices the table at
ceil(q^k / (q - 1)) messages times its words per codeword, k = rank(G)
(memoised), the rows it enumerates, and, while its q^r states fit the
block table (r = n - k), the syndrome count at n m (p - 1) q^r (n + 1), its
n m (p - 1) gathers of at most q^r (n + 1) counts; by
`errors.cheapest_route`, the one rule of every exact count, it takes the
cheaper, the table on a tie, under the budget and returns its name and
price.  Counts are int64 while q^k < 2^63, k = rank(G), and Python ints
beyond.  Worker processes split only the table enumeration.

numpy and the process pool are imported inside the functions that use them,
so that loading this module, or every module of the package on the first
read of a public name, never loads them, nor does any command that does
not enumerate.  Importing the package alone loads none of its modules.
"""

from __future__ import annotations

import os
from typing import Iterator, Sequence

from .errors import DEFAULT_BUDGET, cheapest_route
from .fields import TABLE_ORDER_LIMIT, Field, array_ops
from .matrices import GFMatrix, gf_kernel_basis, gf_rank, gf_row_reduce

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
    stands for its q - 1 multiples.  The rows are those of a reduced row
    echelon form of length n: whole over GF(2), and otherwise only their
    non-pivot coordinates, since a codeword's pivot coordinates are its
    message digits.  There the weight buffer is seeded with the digit
    weight of each inner message (its number of nonzero base-q digits, in
    the table's index order), and the outer message's own digit weight
    shifts where its histogram lands."""
    import numpy as np

    q = field.q
    dtype, _, sub, _ = array_ops(field)
    pivots_out = q != 2  # whether the rows leave their pivot coordinates out
    size = q ** len(inner)
    if pivots_out:
        word, width = dtype, len((inner or outer)[0])
        diff = np.empty(size, dtype=np.uint8)
        flags = diff.view(np.bool_)

        def differing(col, t):
            np.not_equal(col, t, out=flags)
            return diff
    else:
        # a preallocated XOR buffer, eight bytes a word, measured slower
        word, width = np.uint64, -(-n // 64)  # table words per codeword

        def differing(col, t):
            return np.bitwise_count(col ^ t)
    wdtype = np.uint8 if n <= 255 else np.int64
    # Table index u holds lam_0 row_0 - lam_1 row_1 - ... over the base-q
    # digits lam_i of u, the first inner row's least significant, and
    # digits[u] counts the nonzero lam_i: the pivot weight of inner message
    # u, whatever the signs.  Over GF(2) it stays one zero, broadcast.
    table = [np.zeros(1, dtype=word)] * width
    digits = np.zeros(1, dtype=wdtype)
    for i, row in enumerate(inner):
        mults = _multiples(field, row, range(q))
        if i == 0:
            table = list(np.ascontiguousarray(mults.T))
        else:
            table = [sub(col, mults[:, j, None]).ravel() for j, col in enumerate(table)]
        if pivots_out:
            digits = (digits + (np.arange(q) != 0)[:, None]).ravel()
    # Every multiple of each outer row up front when the field is small;
    # beyond 2^16 one at a time, so nothing of size q is allocated.
    outer_mults = None
    if q <= TABLE_ORDER_LIMIT:
        outer_mults = [_multiples(field, row, range(q)) for row in outer]

    # uint8 weights of a block larger than the pair table are counted in
    # pairs (see the module docstring): the uint16 view reads w + 256 w' or
    # 256 w + w' by byte order, and the row plus column sums below count
    # both either way
    paired = wdtype == np.uint8 and size > 256 * (n + 1)
    wbuf = np.zeros(size + (size % 2 if paired else 0), dtype=wdtype)
    weights = wbuf[:size]
    hist = np.zeros(n + 1, dtype=np.int64)
    for v in _normalised_messages(q, len(outer), outer_start, outer_stop):
        target = np.zeros(width, dtype=word)
        rem, shift = v, 0
        for i in reversed(range(len(outer))):
            lam = rem % q
            rem //= q
            if lam:
                shift += pivots_out
                mult = (outer_mults[i][lam] if outer_mults is not None
                        else _multiples(field, outer[i], [lam])[0])
                target = sub(target, mult)
        np.copyto(weights, digits)
        for col, t in zip(table, target):
            np.add(weights, differing(col, t), out=weights)
        # every weight is below bins, so a pair's bin is below 256 bins and
        # only the first bins columns of the reshape are nonzero
        bins = n + 1 - shift
        if paired:
            pairs = np.bincount(wbuf.view(np.uint16), minlength=256 * bins)
            pairs = pairs.reshape(bins, 256)[:, :bins]
            count = pairs.sum(axis=1) + pairs.sum(axis=0)
            count[0] -= wbuf.size - size
        else:
            count = np.bincount(wbuf, minlength=bins)
        hist[shift:] += count * (q - 1 if v else 1)
    return hist


def _worker(args) -> list[int]:
    return _histogram_range(*args).tolist()


def _syndrome_histogram(G: GFMatrix, H: GFMatrix) -> list[int]:
    """Exact weight histogram (A_0..A_n) of the row space of G, counted over
    the q^r syndromes of H = `gf_kernel_basis(G)`, which has r = n - rank(G)
    rows (see the module docstring)."""
    import numpy as np

    field, n, r = G.field, G.cols, H.rows
    p, q, m = field.p, field.q, field.m
    dtype, mul, sub, _ = array_ops(field)
    # syndrome s is state sum_i s_i q^i; digits[s] holds its coordinates
    states = np.arange(q ** r)
    powers = np.array([q ** i for i in range(r)], dtype=np.int64)
    digits = (states[:, None] // powers % q).astype(dtype)
    # steps[j, i] = x^i h_j, x^i being encoded as p^i, and codes[j][i] its state
    columns = np.array(H.entries, dtype=dtype).reshape(r, n).T
    steps = mul(np.array([p ** i for i in range(m)], dtype=dtype)[:, None], columns[:, None])
    codes = (steps @ powers).tolist()
    # counts[s, w]: vectors over the columns so far with syndrome s and weight
    # w.  It and every coset sum below count vectors of one fiber of a linear
    # map, at most q^rank(G) of them, so int64 holds them while q^rank(G),
    # q^(n - r), does.
    counts = np.zeros((q ** r, n + 1), dtype=np.int64 if q ** (n - r) < 1 << 63 else object)
    counts[0, 0] = 1
    for j in range(n):
        below = counts[:, :j + 1]
        # sum over a != 0 of below[s - a h_j]: the sum over the coset of the
        # line <h_j> through s, less below[s]
        coset = below
        for i in range(m):
            if p == 2:
                # each coordinate is m bits of the state, so a difference
                # is an XOR of states
                coset = coset + coset[states ^ codes[j][i]]
                continue
            # hop[s] is the state of s - x^i h_j, and hop applied c times
            # that of s - c x^i h_j
            hop = sub(digits, steps[j, i]) @ powers
            src, total = hop, coset[hop]
            for _ in range(p - 2):
                src = hop[src]
                total += coset[src]
            coset = coset + total
        counts[:, 1:j + 2] += coset - below
    scale = q ** (G.rows - n + r)
    return [int(c) * scale for c in counts[0]]


def _table_histogram(G: GFMatrix, workers: int) -> list[int]:
    """Exact weight histogram (A_0..A_n) of the row space of G, by
    enumeration of one message per line of nonzero multiples of its reduced
    row echelon form through the block table (see the module docstring),
    split over at most `workers` processes; each codeword is reached by
    q^(rows - rank) messages of G."""
    field, n = G.field, G.cols
    q = field.q
    rref, pivots = gf_row_reduce(G)
    k = len(pivots)
    scale = q ** (G.rows - k)
    if k == 0:
        return [scale] + [0] * n
    if q == 2:
        rows = [list(r) for r in rref]
    else:
        free = sorted(set(range(n)).difference(pivots))
        rows = [[r[j] for j in free] for r in rref]

    k_inner = 0
    while k_inner < k and q ** (k_inner + 1) <= _BLOCK_ROWS:
        k_inner += 1
    inner, outer = rows[k - k_inner:], rows[:k - k_inner]
    n_outer = 1 + (q ** len(outer) - 1) // (q - 1)

    workers = min(workers, os.cpu_count() or 1)
    if workers == 1 or n_outer < 2 * workers:
        hist = _histogram_range(field, inner, outer, n, 0, n_outer).tolist()
    else:
        from concurrent.futures import ProcessPoolExecutor
        bounds = [n_outer * i // workers for i in range(workers + 1)]
        jobs = [(field, inner, outer, n, bounds[i], bounds[i + 1]) for i in range(workers)]
        hist = [0] * (n + 1)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for part in pool.map(_worker, jobs):
                hist = [a + b for a, b in zip(hist, part)]
    return [a * scale for a in hist]


def check_count(G: GFMatrix, budget: int | None = DEFAULT_BUDGET,
                workers: int = 1) -> tuple[str, int]:
    """Refuse a workers count that is not a positive int (ValueError) before
    anything is computed, then take and cap the cheaper count of G by
    `cheapest_route` (see the module docstring); return its (name, price)."""
    if isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
        raise ValueError(f"workers must be a positive integer, got {workers!r}")
    field, n, k = G.field, G.cols, gf_rank(G)
    q, r = field.q, n - k
    # the table enumerates the k rank rows of the reduced form; its words per
    # codeword: every coordinate over GF(2), packed, else the non-pivot ones
    # (at least one, so a price is never zero)
    routes = [("table enumeration",
               -(-q ** k // (q - 1)) * (-(-n // 64) if q == 2 else max(n - k, 1)))]
    if q ** r <= _BLOCK_ROWS:
        routes.append(("syndrome count", n * field.m * (field.p - 1) * q ** r * (n + 1)))
    return cheapest_route(routes, budget)


def weight_histogram(G: GFMatrix, budget: int | None = DEFAULT_BUDGET,
                     workers: int = 1) -> list[int]:
    """Exact weight histogram (A_0..A_n) of the row space of G by the cheaper
    of the two exact counts, whose cost the budget caps (see the module
    docstring); `workers` splits the table, at most `os.cpu_count()` ways."""
    if check_count(G, budget, workers)[0] == "syndrome count":
        return _syndrome_histogram(G, gf_kernel_basis(G))
    return _table_histogram(G, workers)
