"""Submatrix rank censuses of parity-check matrices and the two exact
counting facts built on them: the kernel-counting identity relating a code's
weight distribution to the census of its parity-check matrix, and the
full-rank regime where every wide-enough column selection has maximal rank.

The census defines no arithmetic of its own: its walk reduces columns with
the same GF elimination step that builds codes and kernels in `matrices`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .codes import LinearCode, WeightDistribution, require_ints
from .errors import BudgetExceededError, RegimeViolationError
from .matrices import GFMatrix, _elimination, binom, gf_kernel_basis, gf_row_reduce

DEFAULT_SUBSET_BUDGET = 10 ** 7

# A census walks the whole table, which every later width then reads, only
# when that walk is estimated to visit at most this many subsets (one table of
# a 16-column matrix); otherwise it walks the width asked for alone, so a lone
# census of a small width on a large matrix does not pay for the table.
_WHOLE_TABLE_NODES = 1 << 16


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

    The row for nu is read from a table counts[size][rank] that one DFS over
    column subsets builds for every size at once (the Whitney
    rank-generating function of the column matroid), so every later width is
    a lookup.  The whole table is walked only when the budget covers all
    2^cols subsets and the walk is estimated to stay small (see
    _WHOLE_TABLE_NODES); otherwise the walk covers width nu alone: it
    descends only into prefixes that can still reach nu and counts its last
    level at once.

    Each DFS node extends a reduced basis by one column and keeps the other
    remaining columns reduced modulo its span.  Once the basis has full rank
    every superset does too, so the node adds binomial counts for its subtree
    without descending; one rank short of full, it does the same from the
    number of remaining columns already in the span.  The reduction is the
    package's one GF elimination step (`matrices._elimination`): GF(2)
    columns are int bitmasks reduced by XOR, other fields' columns tuples
    reduced through q x q tables.  A whole table is walked on the kernel of
    M instead when that has fewer rows, and mapped back by the dual-matroid
    rank rule r_M(S) = |S| - r_K(E) + r_K(E \\ S).  Tables are kept in a
    small LRU cache keyed by (matrix, window), so a run's checks share one
    walk.
    """
    t = M.cols
    require_ints(nu=nu)
    if not 1 <= nu <= t:
        raise ValueError(f"need 1 <= nu <= {t}, got {nu}")
    n_subsets = binom(t, nu)
    if budget is not None and n_subsets > budget:
        raise BudgetExceededError(
            f"census over {n_subsets} subsets exceeds budget {budget}")
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
    rank = _reduced(M).rows
    stop = min(rank, t - rank)
    if sum(binom(t, j) for j in range(stop + 1)) <= _WHOLE_TABLE_NODES:
        return 0, t
    return nu, nu


@functools.lru_cache(maxsize=16)
def _reduced(M: GFMatrix) -> GFMatrix:
    """The nonzero rows of M's reduced row echelon form: a basis of its row
    space, with as many rows as M has rank."""
    return GFMatrix(M.field, tuple(gf_row_reduce(M)[0]), M.cols)


@functools.lru_cache(maxsize=16)
def _rank_table(M: GFMatrix, lo: int, hi: int) -> tuple[tuple[int, ...], ...]:
    """counts[size][rank] for every column subset with lo <= size <= hi;
    rows outside the window are zero."""
    t = M.cols
    basis = _reduced(M)
    rank = basis.rows
    if (lo, hi) == (0, t) and t - rank < rank:
        K = gf_kernel_basis(M)
        dual = _walk(K, K.rows, 0, t)
        counts = [[0] * (rank + 1) for _ in range(t + 1)]
        for size, row in enumerate(dual):
            for r, c in enumerate(row):
                if c:
                    counts[t - size][t - size - K.rows + r] += c
    else:
        counts = _walk(basis, rank, lo, hi)
    return tuple(map(tuple, counts))


def _walk(M: GFMatrix, R: int, lo: int, hi: int) -> list[list[int]]:
    """The DFS over the column subsets of a matrix whose R rows are
    independent; counts[size][rank] for lo <= size <= hi."""
    t = M.cols
    counts = [[0] * (R + 1) for _ in range(t + 1)]
    pascal = [[binom(m, j) for j in range(t + 1)] for m in range(t + 1)]
    pack, _, step = _elimination(M.field)
    columns = [pack(M.column(j)) for j in range(t)]

    def node(rest: list, size: int, rank: int) -> None:
        m = len(rest)
        if rank >= R - 1:
            # every superset of a full-rank set is full rank; one short of
            # full, a superset stays short iff its new columns are in the span
            z = m if rank == R else rest.count(0)
            low, full = pascal[z], pascal[m]
            for j in range(max(lo - size, 0), min(m, hi - size) + 1):
                row = counts[size + j]
                row[rank] += low[j]
                if rank < R:
                    row[R] += full[j] - low[j]
            return
        if size >= lo:
            counts[size][rank] += 1
        if size == hi:
            return
        if size + 1 == hi:
            # the children are leaves: count the nonzero residuals at once
            zeros = rest.count(0)
            counts[hi][rank] += zeros
            counts[hi][rank + 1] += m - zeros
            return
        for i in range(min(m, m + size + 1 - lo)):
            v = rest[i]
            if v:
                node(step(v, rest[i + 1:])[1], size + 1, rank + 1)
            else:
                node(rest[i + 1:], size + 1, rank)

    node(columns, 0, 0)
    return counts


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
    outcome."""
    if d_perp is None:
        d_perp = C.parameters().d_perp
    if nu <= C.n - d_perp:
        raise RegimeViolationError(
            f"nu={nu} is not above n - d_perp = {C.n - d_perp}")
    cen = census(C.H, nu, budget)
    return cen.counts == {C.n - C.k: binom(C.n, nu)}
