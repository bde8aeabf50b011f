"""Submatrix rank censuses of parity-check matrices and the two exact
counting facts built on them: the kernel-counting identity relating a code's
weight distribution to the census of its parity-check matrix, and the
full-rank regime where every wide-enough column selection has maximal rank.

The census defines no arithmetic of its own.  Its walk decides the columns
in order and reduces a chunk of column subsets of one depth at a time in
numpy rather than through the scalar step of `matrices._elimination`, by the
field's `fields.array_ops`, from a basis read from the memoised
`matrices.gf_row_reduce`.  numpy is imported when the first census runs.
"""

from __future__ import annotations

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

# Each step of the walk takes at most this many nodes of one depth and makes
# their children, two per node.  It goes depth first and each depth holds
# about three such chunks at most, so its memory stays bounded however many
# subsets it visits.
_CHUNK = 2048


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
    _WHOLE_TABLE_NODES); otherwise the walk covers width nu alone: it keeps
    only subsets that can still reach nu and counts those one column short
    of it at once.

    The walk decides the columns in order (`_frontier`).  A node at depth d
    is a subset of the first d columns, held as its size, its rank and the
    residuals of the columns not yet decided modulo its span; its children
    skip column d or take it, and taking it reduces the other residuals by
    column d's.  GF(2) residuals are bitmasks over the rows, reduced by XOR;
    other fields' are columns of encodings, reduced by array arithmetic.
    Once a subset has full rank every superset does too, so its subtree is
    counted by binomials without descending; one rank short of full,
    likewise from the number of undecided columns already in its span; and
    one column short of the largest size counted, from the same number.
    Each step takes up to _CHUNK waiting nodes of one depth: the deepest
    with that many waiting, else the shallowest with any.  So the walk goes
    depth first, its memory stays bounded and its chunks stay full.  A
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


def _key_type(R: int, t: int):
    """The dtype of the walk's node keys over t columns and R rows: int64
    while the largest, (R + 1) (t + 1)^3 - 1, fits it, else Python ints."""
    import numpy as np

    return np.int64 if (R + 1) * (t + 1) ** 3 <= 1 << 63 else object


def _frontier(M: GFMatrix, R: int, lo: int, hi: int) -> list[list[int]]:
    """counts[size][rank] for lo <= size <= hi over the column subsets of a
    matrix whose R rows are independent, walked depth by depth in numpy.

    A node at depth d is a subset of columns 0..d-1 with its size, its rank
    and the residuals of columns d..t-1 modulo its span, so every node of one
    depth has the same width.  Its two children skip column d (the residuals
    less their first) or take it (the rest reduced by the first).  A node
    ends, and its subtree is counted in closed form, once its rank is R - 1
    or more, once its size is hi - 1 or more, or once at most one column is
    left to decide: from there a superset of j more columns has the node's
    rank when all j lie in its span and one more otherwise, which is exact
    for j <= 1 at any rank and for every j at rank R - 1 or R."""
    import numpy as np

    t = M.cols
    # residuals are (rows, nodes, width) arrays, so that a residual is zero
    # where a reduction over the first axis, the fast one in numpy, is false
    if M.field.q == 2:
        # one row of bitmasks over the rows of M; past 64 rows, Python ints
        pack = _elimination(M.field)[0]
        dtype = np.min_scalar_type((1 << R) - 1) if R <= 64 else object
        root = np.array([[[pack(M.column(j)) for j in range(t)]]], dtype=dtype)

        def take(res):
            """Whether each node's first residual is independent, and the rest
            reduced by it."""
            v, rest = res[:, :, :1], res[:, :, 1:]
            low = v & -v
            return v[0, :, 0] != 0, rest ^ np.where((rest & low) != 0, v, 0)
    else:
        # R rows of encodings; the lead of the first residual is scaled to 1
        # and cleared from the rest in one broadcast through the field's array
        # operations
        dtype, mul, sub, inv = array_ops(M.field)
        root = np.array(M.entries, dtype=dtype).reshape(R, 1, t)

        def take(res):
            v, rest = res[:, :, 0], res[:, :, 1:]
            nodes = np.arange(v.shape[1])
            nonzero = v != 0
            lead = nonzero.argmax(axis=0)
            # a zero v is scaled by 1 and stays zero, leaving rest unchanged
            v = mul(v, inv(np.maximum(v[lead, nodes], 1)))
            return nonzero[lead, nodes], sub(rest, mul(v[:, :, None], rest[lead, nodes]))

    def zeros(res):
        """How many of each node's residuals are zero; einsum sums the short
        rows about twice as fast as sum(axis=1)."""
        return np.einsum("ij->i", np.logical_not(res.any(axis=0)), dtype=np.int64)

    # a node's rank and size are one int, rank * b + size, so that one
    # comparison finds the nodes at rank R - 1 or more; an ended node is
    # counted by ((rank * b + size) * b + m) * b + z, for the m columns left
    # to decide and the z of them in its span
    b = t + 1
    # ended nodes by key, whose subtrees are counted in closed form at the
    # end, and the keys not yet tallied
    ends: dict[int, int] = {}
    ended: list = []
    # the blocks of nodes waiting for their children, and how many nodes, by
    # depth: only depths with any waiting are keys
    pending: dict[int, list[tuple]] = {}
    waiting: dict[int, int] = {}

    def tally():
        keys, cs = np.unique(np.concatenate(ended), return_counts=True)
        for key, c in zip(keys.tolist(), cs.tolist()):
            ends[key] = ends.get(key, 0) + c
        ended.clear()

    def settle(d, node, res):
        """Note the nodes of depth d that end and queue the others."""
        m = t - d
        if m <= 1:
            done = np.ones(len(node), dtype=bool)
        else:
            done = node >= (R - 1) * b
            if d >= hi - 1:
                done |= node % b >= hi - 1
        if np.count_nonzero(done):
            # a full-rank node's residuals are all zero, so z = m there
            ended.append(((node * b + m) * b + zeros(res))[done])
            if sum(map(len, ended)) >= _CHUNK:
                tally()
        keep = ~done
        if m < lo:
            # a node that skipped a column may no longer reach lo
            keep &= node % b + m >= lo
        n = np.count_nonzero(keep)
        if n:
            block = (node, res) if n == len(node) else (node[keep], res[:, keep])
            pending.setdefault(d, []).append(block)
            waiting[d] = waiting.get(d, 0) + n

    settle(0, np.zeros(1, dtype=_key_type(R, t)), root)
    while waiting:
        # take up to _CHUNK nodes of the deepest depth that has that many
        # waiting, else of the shallowest depth waiting: a depth fills up
        # before it is taken, and it is not fed once it is full
        d = max((d for d, w in waiting.items() if w >= _CHUNK), default=min(waiting))
        # whole blocks, the last one cut; what is left of it is copied, since
        # a view would keep the whole block alive
        blocks, chunk, n = pending[d], [], 0
        while blocks and n < _CHUNK:
            node, res = blocks.pop()
            if n + len(node) > _CHUNK:
                blocks.append((node[_CHUNK - n:], res[:, _CHUNK - n:].copy()))
                node, res = node[:_CHUNK - n], res[:, :_CHUNK - n]
            chunk.append((node, res))
            n += len(node)
        waiting[d] -= n
        if not waiting[d]:
            del waiting[d], pending[d]
        if len(chunk) > 1:
            nodes, residuals = zip(*chunk)
            node, res = np.concatenate(nodes), np.concatenate(residuals, axis=1)
        independent, taken = take(res)
        settle(d + 1, node, res[:, :, 1:])
        settle(d + 1, node + 1 + b * independent, taken)

    if ended:
        tally()
    out = [[0] * (R + 1) for _ in range(t + 1)]
    for key, c in ends.items():
        rank, size, m, z = key // b ** 3, key // (b * b) % b, key // b % b, key % b
        for j in range(max(lo - size, 0), min(m, hi - size) + 1):
            row = out[size + j]
            low = math.comb(z, j)
            row[rank] += c * low
            if rank < R:
                row[rank + 1] += c * (math.comb(m, j) - low)
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
