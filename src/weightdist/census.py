"""Submatrix rank censuses of parity-check matrices and the two exact
counting facts built on them: the kernel-counting identity relating a code's
weight distribution to the census of its parity-check matrix, and the
full-rank regime where every wide-enough column selection has maximal rank.

The census defines no arithmetic of its own.  Its walk reduces a whole level
of column subsets at a time in numpy rather than through the scalar step of
`matrices._elimination`, by the field's `fields.array_ops`, from a basis
read from the memoised `matrices.gf_row_reduce`.  numpy is imported when the
first census runs.
"""

from __future__ import annotations

import collections
import functools
import math
from dataclasses import dataclass

from .codes import LinearCode, WeightDistribution, require_ints
from .enumeration import check_budget
from .errors import RegimeViolationError
from .fields import array_ops
from .matrices import GFMatrix, _elimination, binom, gf_kernel_basis, gf_rank, gf_row_reduce

DEFAULT_SUBSET_BUDGET = 10 ** 7

# A census walks the whole table, which every later width then reads, only
# when that walk is estimated to visit at most this many subsets (one table of
# a 16-column matrix); otherwise it walks the width asked for alone, so a lone
# census of a small width on a large matrix does not pay for the table.
_WHOLE_TABLE_NODES = 1 << 16

# The walk makes at most this many subsets at a time, or the children of one
# subset when they are more.  It goes depth first and each size holds about
# two such chunks at most, so its memory stays bounded however many subsets it
# visits.
_CHUNK = 1024


@dataclass(frozen=True)
class RankCensus:
    """Counts, for one submatrix width nu, of how many nu-column selections
    of a matrix have each possible rank."""

    nu: int
    counts: dict[int, int]
    source_dims: tuple[int, int]

    def total(self) -> int:
        return sum(self.counts.values())


def census(M: GFMatrix, nu: int, budget: int | None = DEFAULT_SUBSET_BUDGET) -> RankCensus:
    """Exhaustive rank census over all binom(cols, nu) column subsets.

    The row for nu is read from a table counts[size][rank] that one walk over
    column subsets builds for every size at once (the Whitney
    rank-generating function of the column matroid), so every later width is
    a lookup.  The whole table is walked only when the budget covers all
    2^cols subsets and the walk is estimated to stay small (see
    _WHOLE_TABLE_NODES); otherwise the walk covers width nu alone: it
    descends only into prefixes that can still reach nu and counts its last
    level at once.

    The walk goes level by level through the tree of column subsets, each
    subset a child of the one without its last column.  A level is a set of
    arrays: per subset its last column, its rank and the residual of every
    column modulo its span.  One set of array operations extends a chunk of
    subsets by every later column and reduces the residuals by the new one.
    GF(2) residuals are bitmasks over the rows, reduced by XOR; other fields'
    are rows of encodings, reduced by array arithmetic.  Once a subset has
    full rank every superset does too, so its subtree is counted by
    binomials without descending; one rank short of full, likewise from the
    number of later columns already in its span.  Each step extends waiting
    subsets of one size, about _CHUNK children's worth: the largest size
    with that many waiting, else the smallest size with any.  So the walk
    goes depth first, its memory stays bounded and its chunks stay full.  A
    whole table is walked on the kernel of M instead when that has fewer
    rows, and mapped back by the dual-matroid rank rule
    r_M(S) = |S| - r_K(E) + r_K(E \\ S).  Tables are kept in a small LRU
    cache keyed by (matrix, window), so a run's checks share one walk.
    """
    t = M.cols
    require_ints(nu=nu)
    if not 1 <= nu <= t:
        raise ValueError(f"need 1 <= nu <= {t}, got {nu}")
    check_budget(binom(t, nu), budget, "census over {} subsets")
    table = _rank_table(M, *_window(M, nu, budget))
    counts = {r: c for r, c in enumerate(table[nu]) if c}
    return RankCensus(nu=nu, counts=counts, source_dims=(M.rows, t))


def _window(M: GFMatrix, nu: int, budget: int | None) -> tuple[int, int]:
    """Subset sizes (lo, hi) the walk for width nu counts: the whole table
    (0, cols) when the budget covers every subset and the walk's estimated
    nodes are at most _WHOLE_TABLE_NODES, else (nu, nu)."""
    t = M.cols
    if budget is not None and 2 ** t > budget:
        return nu, nu
    # nodes rarely lie deeper than full rank, which a whole table walked on
    # the side with fewer rows reaches after min(rank, t - rank) columns
    rank = gf_rank(M)
    stop = min(rank, t - rank)
    if sum(binom(t, j) for j in range(stop + 1)) <= _WHOLE_TABLE_NODES:
        return 0, t
    return nu, nu


@functools.lru_cache(maxsize=16)
def _rank_table(M: GFMatrix, lo: int, hi: int) -> tuple[tuple[int, ...], ...]:
    """counts[size][rank] for every column subset with lo <= size <= hi;
    rows outside the window are zero."""
    t = M.cols
    basis = GFMatrix(M.field, gf_row_reduce(M)[0], t)  # the nonzero rows of M's RREF
    rank = basis.rows
    if (lo, hi) == (0, t) and t - rank < rank:
        K = gf_kernel_basis(M)
        dual = _frontier(K, K.rows, 0, t)
        counts = [[0] * (rank + 1) for _ in range(t + 1)]
        for size, row in enumerate(dual):
            for r, c in enumerate(row):
                if c:
                    counts[t - size][t - size - K.rows + r] += c
    else:
        counts = _frontier(basis, rank, lo, hi)
    return tuple(map(tuple, counts))


def _frontier(M: GFMatrix, R: int, lo: int, hi: int) -> list[list[int]]:
    """counts[size][rank] for lo <= size <= hi over the column subsets of a
    matrix whose R rows are independent, walked level by level in numpy."""
    import numpy as np

    t = M.cols
    cols = np.arange(t)
    if M.field.q == 2:
        # residuals are bitmasks over the rows, (nodes, t); past 64 rows,
        # Python ints
        pack = _elimination(M.field)[0]
        dtype = np.min_scalar_type((1 << R) - 1) if R <= 64 else object
        root = np.array([[pack(M.column(j)) for j in range(t)]], dtype=dtype)

        def in_span(res):
            return res == 0

        def independent(v):
            return v != 0

        def reduce(res, v):
            low = (v & -v)[:, None]
            res ^= np.where((res & low) != 0, v[:, None], 0)
    else:
        # residuals are columns of R encodings, (nodes, R, t); the lead of a
        # pivot is scaled to 1 and cleared from every residual through the
        # field's array operations, one row at a time
        dtype, mul, sub, inv = array_ops(M.field)
        root = np.array([M.entries], dtype=dtype).reshape(1, R, t)

        def in_span(res):
            # row by row: res.any(axis=1) reduces along the middle axis about
            # four times slower
            out = np.ones((len(res), t), dtype=bool)
            for row in res.transpose(1, 0, 2):
                out &= row == 0
            return out

        def independent(v):
            return v.any(axis=1)

        def reduce(res, v):
            rows = np.arange(len(v))
            lead = (v != 0).argmax(axis=1)
            # a zero v is scaled by 1 and stays zero, leaving res unchanged
            v = mul(inv(np.maximum(v[rows, lead], 1))[:, None], v)
            c = res[rows, lead]
            for r in range(R):
                res[:, r] = sub(res[:, r], mul(v[:, r, None], c))

    def zeros(last, res):
        """How many columns after each node's last lie in its span."""
        return (in_span(res) & (cols > last[:, None])).sum(axis=1)

    def extend(size, last, rank, res):
        """Every node extended by each later column that still lets it reach
        lo."""
        p, j = np.nonzero(cols[:t + size - lo + 1] > last[:, None])
        res = res[p]
        v = res[np.arange(len(p)), ..., j]
        reduce(res, v)
        return j, rank[p] + independent(v), res

    counts = np.zeros((t + 1, R + 1), dtype=np.int64)
    # nodes at rank >= R - 1, by (size, rank, m remaining columns, z of them
    # in the span): their subtrees are counted in closed form at the end
    ends: dict[tuple[int, int, int, int], int] = {}
    b = t + 1  # every m and z is at most t
    # per size, the nodes waiting to be extended and their children in all
    pending: list[list[tuple]] = [[] for _ in range(t + 1)]
    fans = [0] * (t + 1)

    def settle(size, last, rank, res):
        """Count new nodes of one size and queue those with children."""
        done = rank >= R - 1
        if done.any():
            # every superset of a full-rank set is full rank; one short of
            # full, a superset stays short iff its new columns are in the span
            m = t - 1 - last[done]
            z = np.where(rank[done] == R, m, zeros(last[done], res[done]))
            for key, c in collections.Counter(((rank[done] * b + m) * b + z).tolist()).items():
                key = (size, key // (b * b), key // b % b, key % b)
                ends[key] = ends.get(key, 0) + c
            keep = ~done
            last, rank, res = last[keep], rank[keep], res[keep]
        if size >= lo:
            counts[size] += np.bincount(rank, minlength=R + 1)
        if size + 1 == hi:
            # the children are leaves: count the nonzero residuals at once
            z = zeros(last, res)
            np.add.at(counts[hi], rank, z)
            np.add.at(counts[hi], rank + 1, t - 1 - last - z)
        elif size < hi:
            fan = min(t, t + size - lo + 1) - 1 - last
            has = fan > 0
            if has.any():
                pending[size].append((last[has], rank[has], res[has], fan[has]))
                fans[size] += int(fan[has].sum())

    settle(0, np.array([-1]), np.zeros(1, dtype=np.int64), root)
    while any(fans):
        # make about _CHUNK children of the largest size that has that many
        # waiting, else of the smallest size waiting: a size fills up before
        # it is extended, and it is not fed once it is full
        full = [s for s, f in enumerate(fans) if f >= _CHUNK]
        size = full[-1] if full else next(s for s, f in enumerate(fans) if f)
        last, rank, res, fan = (np.concatenate(a) for a in zip(*pending[size]))
        cut = max(int(np.searchsorted(np.cumsum(fan), _CHUNK, side="right")), 1)
        pending[size] = [(last[cut:], rank[cut:], res[cut:], fan[cut:])]
        fans[size] -= int(fan[:cut].sum())
        settle(size + 1, *extend(size, last[:cut], rank[:cut], res[:cut]))

    out = counts.tolist()
    for (size, rank, m, z), c in ends.items():
        for j in range(max(lo - size, 0), min(m, hi - size) + 1):
            row = out[size + j]
            low = math.comb(z, j)
            row[rank] += c * low
            if rank < R:
                row[R] += c * (math.comb(m, j) - low)
    return out


def verify_counting_identity(C: LinearCode, A: WeightDistribution, nu: int,
                             budget: int | None = DEFAULT_SUBSET_BUDGET
                             ) -> tuple[int, int, bool]:
    """Evaluate both sides of the kernel-counting identity at width nu.

    Left side from the weight distribution: sum_s binom(n-s, nu-s) A_s.
    Right side from the parity-check census:  sum_r N(nu, r) q^(nu-r).
    The two counts are computed by entirely independent paths; equality for
    every nu is the core consistency fact this package is built around.
    """
    n, q = C.n, C.field.q
    if (A.n, A.q) != (n, q):
        raise ValueError(f"distribution of length {A.n} over GF({A.q}) given for "
                         f"a code of length {n} over GF({q})")
    if not 1 <= nu <= n:
        raise ValueError(f"need 1 <= nu <= {n}, got {nu}")
    lhs = sum(binom(n - s, nu - s) * A.counts[s] for s in range(nu + 1))
    cen = census(C.H, nu, budget)
    rhs = sum(cnt * q ** (nu - r) for r, cnt in cen.counts.items())
    return lhs, rhs, lhs == rhs


def check_full_rank_regime(C: LinearCode, nu: int, d_perp: int | None = None,
                           budget: int | None = DEFAULT_SUBSET_BUDGET) -> bool:
    """For nu wider than n minus the dual distance, every (n-k) x nu column
    selection of H must have full rank n-k; returns whether the census is
    concentrated there.  A False is a bug or a wrong d_perp, never a valid
    outcome.  With d_perp None the dual distance comes from `C.parameters()`,
    which enumerates C under the default enumeration budget and raises
    BudgetExceededError past it; budget caps only the census."""
    if d_perp is None:
        d_perp = C.parameters().d_perp
    require_ints(d_perp=d_perp)
    if not 1 <= d_perp <= C.k + 1:
        raise ValueError(f"need 1 <= d_perp <= k+1 = {C.k + 1}, got d_perp={d_perp}")
    if nu <= C.n - d_perp:
        raise RegimeViolationError(
            f"nu={nu} is not above n - d_perp = {C.n - d_perp}")
    cen = census(C.H, nu, budget)
    return cen.counts == {C.n - C.k: binom(C.n, nu)}
