"""Submatrix rank censuses of parity-check matrices and the two exact
counting facts built on them: the kernel-counting identity relating a code's
weight distribution to the census of its parity-check matrix, and the
full-rank regime where every wide-enough column selection has maximal rank.

A census walks the whole table of every width or its width alone, whichever
is priced lower, by the rule that takes the enumeration's count; the identity,
which every caller reads at every width, reads the whole table.  The walk
reduces column subsets in numpy by the field's `fields.array_ops`, from a
basis read from the memoised `matrices.gf_row_reduce`; numpy loads with it.
"""

from __future__ import annotations

from .codes import LinearCode, WeightDistribution
from .errors import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    RegimeViolationError,
    Value,
    cheapest_route,
    require_ints,
)
from .fields import array_ops
from .matrices import GFMatrix, _elimination, binom, gf_kernel_basis, gf_rank, gf_row_reduce

# Each step of the walk takes at most this many nodes of one depth and makes
# their children, two per node.  It goes depth first and each depth holds
# about three such chunks at most, so its memory stays bounded however many
# subsets it visits.
_CHUNK = 2048


class RankCensus(Value):
    """Counts, for one submatrix width nu, of how many nu-column selections
    of a matrix have each possible rank."""

    __slots__ = ("nu", "counts", "source_dims")
    nu: int
    counts: dict[int, int]
    source_dims: tuple[int, int]

    def __init__(self, nu: int, counts: dict[int, int], source_dims: tuple[int, int]):
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "source_dims", source_dims)

    def total(self) -> int:
        return sum(self.counts.values())


def census(M: GFMatrix, nu: int, budget: int | None = DEFAULT_BUDGET) -> RankCensus:
    """Exhaustive rank census over all binom(cols, nu) column subsets.

    The row for nu is read from a table counts[size][rank] that one walk
    over column subsets (`_frontier`) builds for every size at once (the
    Whitney rank-generating function of the column matroid) or for width nu
    alone, whichever `_window` prices lower, the whole table on a tie, by
    `errors.cheapest_route`, the one rule of every exact count.  A whole
    table is walked on the kernel K of M when that has fewer rows, mapped
    back by r_M(S) = |S| - r_K(E) + r_K(E \\ S), and kept by matrix
    (`_read`), so a run's checks share one walk.
    """
    return _read(M, nu, cheapest_route(_window(M, nu), budget))


def _window(M: GFMatrix, nu: int) -> tuple[tuple[str, int, tuple[int, int], int], ...]:
    """The two walks that give width nu, an int 1 <= nu <= cols, as (route,
    cost, (lo, hi), nodes): the whole table (0, cols) on the side of M with
    fewer rows and width nu alone (nu, nu) on M's own rows, of which
    `census` takes the cheaper, the whole table on a tie.  nodes is one more
    than the most the walk takes (`_frontier`; binom(t, nu - 1) bounds nu
    alone, the least bound when nu <= rank); the cost is those times t
    columns times one word per row of the side walked, per 64 rows over
    GF(2), plus the (R + 1) (t + 1) (hi + 1) additions that bound the
    tally's fold on its R rows."""
    require_ints(nu=nu)
    if not 1 <= nu <= M.cols:
        raise ValueError(f"need 1 <= nu <= {M.cols}, got {nu}")
    t, rank = M.cols, gf_rank(M)

    def bound(R):  # one more than the most nodes a walk on R rows takes
        return sum(binom(t - 1, j) for j in range(max(R, 1)))

    def walk(route, window, R, nodes):
        words = max(-(-R // 64) if M.field.q == 2 else R, 1)
        return route, nodes * t * words + (R + 1) * (t + 1) * (window[1] + 1), window, nodes

    R = min(rank, t - rank)
    return (walk("whole census table", (0, t), R, bound(R)),
            walk(f"census at width {nu}", (nu, nu), rank,
                 binom(t, nu - 1) if nu <= rank else min(binom(t, nu - 1), bound(rank))))


# whole tables by matrix, the 16 read last; no caller reads a lone width twice
_TABLES: dict[GFMatrix, tuple[tuple[int, ...], ...]] = {}


def _read(M: GFMatrix, nu: int, walk: tuple) -> RankCensus:
    """The census of M at width nu by `walk`, one of `_window`'s that
    `cheapest_route` took under the budget; a whole table of M already kept
    is read instead, so the cache saves walks but never a price or a refusal."""
    _, _, (lo, hi), nodes = walk
    table = _TABLES.pop(M, None) or _rank_table(M, lo, hi, nodes)
    if table[0][0]:  # a whole table, which counts the empty subset
        _TABLES[M] = table  # read last, so dropped last
        if len(_TABLES) > 16:
            del _TABLES[next(iter(_TABLES))]
    counts = {r: c for r, c in enumerate(table[nu]) if c}
    return RankCensus(nu=nu, counts=counts, source_dims=(M.rows, M.cols))


def _rank_table(M: GFMatrix, lo: int, hi: int,
                limit: int | None = None) -> tuple[tuple[int, ...], ...]:
    """counts[size][rank] for every column subset with lo <= size <= hi;
    rows outside the window are zero.  The walk takes at most `limit` nodes."""
    t = M.cols
    basis = GFMatrix(M.field, gf_row_reduce(M)[0], t)  # the nonzero rows of M's RREF
    rank = basis.rows
    if (lo, hi) == (0, t) and t - rank < rank:
        K = gf_kernel_basis(M)
        dual = _frontier(K, K.rows, 0, t, limit)
        counts = [[0] * (rank + 1) for _ in range(t + 1)]
        for size, row in enumerate(dual):
            for r, c in enumerate(row):
                if c:
                    counts[t - size][t - size - K.rows + r] += c
    else:
        counts = _frontier(basis, rank, lo, hi, limit)
    return tuple(map(tuple, counts))


def _key_type(R: int, t: int):
    """The dtype of the walk's node keys over t columns and R rows: int64
    while the largest, (R + 1) (t + 1)^3 - 1, fits it, else Python ints."""
    import numpy as np

    return np.int64 if (R + 1) * (t + 1) ** 3 <= 1 << 63 else object


def _frontier(M: GFMatrix, R: int, lo: int, hi: int,
              limit: int | None = None) -> list[list[int]]:
    """counts[size][rank] for lo <= size <= hi over the column subsets of a
    matrix whose R rows are independent, walked depth by depth in numpy.

    A node at depth d is an independent subset of columns 0..d-1 with its
    size, its rank, its f free columns and the residuals of columns d..t-1
    modulo its span, so every node of one depth has the same width.  Its
    children skip column d (the residuals less their first) or take it (the
    rest reduced by the first); when column d lies in its span, taking it
    changes neither rank nor residuals, so it has one child, column d free.
    A node ends, and its subtree is counted in closed form, once its rank
    is R - 1 or more, once its size is hi - 1 or more, or once at most one
    column is left to decide: a superset of j more columns, free or
    undecided, has the node's rank when all j lie in its span and one more
    otherwise, exact for j <= 1 at any rank and for every j at rank R - 1
    or R.  So fewer than sum_{j<min(R, hi)} binom(t - 1, j) nodes do not
    end, and in a window (lo, lo) fewer than binom(t, lo - 1) (see ROADMAP);
    past `limit` of them the walk refuses (BudgetExceededError).  The ended
    nodes are tallied by one Horner fold of all R + 1 ranks at once, at
    most t + 1 steps of (R + 1) (hi + 1) additions."""
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

    # a node's rank, size and free columns are one int,
    # (rank * b + size) * b + f, so that one comparison finds the nodes at
    # rank R - 1 or more; an ended node is counted by
    # ((rank * b + size) * b + m) * b + z, for the m columns left to decide
    # and the z of them in its span, its free columns counted in both
    b = t + 1
    # ended nodes by key, whose subtrees are counted in closed form at the
    # end, and the keys not yet tallied
    ends: dict[int, int] = {}
    ended: list = []
    # the blocks of nodes waiting for their children, and how many nodes, by
    # depth: only depths with any waiting are keys
    pending: dict[int, list[tuple]] = {}
    waiting: dict[int, int] = {}
    walked = 0  # nodes whose children were made

    def tally():
        keys, cs = np.unique(np.concatenate(ended), return_counts=True)
        for key, c in zip(keys.tolist(), cs.tolist()):
            ends[key] = ends.get(key, 0) + c
        ended.clear()

    def settle(d, node, res, live=None):
        """Note the nodes of depth d that end and queue the others, of the
        `live` ones only when given."""
        m = t - d
        if m <= 1:
            done = np.ones(len(node), dtype=bool)
        else:
            done = node >= (R - 1) * b * b
            if d >= hi - 1:
                done |= node // b % b >= hi - 1
        keep = ~done
        if live is not None:
            done &= live
            keep &= live
        if np.count_nonzero(done):
            # a full-rank node's residuals are all zero, so z = m there
            ended.append(((node + m) * b + zeros(res) + node % b)[done])
            if sum(map(len, ended)) >= _CHUNK:
                tally()
        if m < lo:
            # a node that skipped a column may no longer reach lo
            keep &= node // b % b + node % b + m >= lo
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
        walked += n
        if limit is not None and walked > limit:
            raise BudgetExceededError(f"census walk took more than the {limit} "
                                      f"nodes it was priced at")
        waiting[d] -= n
        if not waiting[d]:
            del waiting[d], pending[d]
        if len(chunk) > 1:
            nodes, residuals = zip(*chunk)
            node, res = np.concatenate(nodes), np.concatenate(residuals, axis=1)
        independent, taken = take(res)
        # skip column d, or leave it free where it lies in the node's span
        settle(d + 1, node + ~independent, res[:, :, 1:])
        settle(d + 1, node + b * (b + 1), taken, independent)

    if ended:
        tally()
    # an ended key with count c adds c x^size (1 + x)^z to its rank and
    # c x^size ((1 + x)^m - (1 + x)^z) to the next, none when m = z (as at
    # rank R), the coefficient of x^s counting its supersets of size s;
    # grouped by exponent, every rank is folded by Horner from the top
    # exponent down, truncated at degree hi
    terms: dict[int, list[tuple[int, int, int]]] = {}
    for key, c in ends.items():
        rank, size, m, z = key // b ** 3, key // (b * b) % b, key // b % b, key % b
        terms.setdefault(z, []).append((rank, size, c))
        if m > z:
            terms.setdefault(m, []).append((rank + 1, size, c))
            terms[z].append((rank + 1, size, -c))
    acc = np.zeros((R + 1, hi + 1), dtype=object)
    for e in range(max(terms, default=0), -1, -1):
        acc[:, 1:] = acc[:, 1:] + acc[:, :-1]  # times 1 + x
        for rank, size, c in terms.get(e, ()):
            acc[rank, size] += c
    acc[:, :lo] = 0
    return acc.T.tolist() + [[0] * (R + 1) for _ in range(t - hi)]


def verify_counting_identity(C: LinearCode, A: WeightDistribution, nu: int,
                             budget: int | None = DEFAULT_BUDGET
                             ) -> tuple[int, int, bool]:
    """Evaluate both sides of the kernel-counting identity at width nu.

    Left side from the weight distribution: sum_s binom(n-s, nu-s) A_s.
    Right side from the parity-check census:  sum_r N(nu, r) q^(nu-r).
    The two counts are computed by entirely independent paths; equality for
    every nu is the core consistency fact this package is built around.
    The census side reads the whole table of H, priced as that walk, even
    where width nu alone costs less: every caller reads every width 1..n,
    and one whole table costs less than all of them alone.
    """
    n, q = C.n, C.field.q
    if (A.n, A.q) != (n, q):
        raise ValueError(f"distribution of length {A.n} over GF({A.q}) given for "
                         f"a code of length {n} over GF({q})")
    cen = _read(C.H, nu, cheapest_route(_window(C.H, nu)[:1], budget))
    lhs = sum(binom(n - s, nu - s) * A.counts[s] for s in range(nu + 1))
    rhs = sum(cnt * q ** (nu - r) for r, cnt in cen.counts.items())
    return lhs, rhs, lhs == rhs


def check_full_rank_regime(C: LinearCode, nu: int, d_perp: int,
                           budget: int | None = DEFAULT_BUDGET) -> bool:
    """For nu wider than n minus the dual distance d_perp, every (n-k) x nu
    column selection of H must have full rank n-k; returns whether the census
    is concentrated there.  A False is a bug or a wrong d_perp, never a valid
    outcome.  The caller supplies d_perp, which it has already read from the
    code's parameters, so the check itself enumerates nothing."""
    require_ints(d_perp=d_perp)
    if not 1 <= d_perp <= C.k + 1:
        raise ValueError(f"need 1 <= d_perp <= k+1 = {C.k + 1}, got d_perp={d_perp}")
    if nu <= C.n - d_perp:
        raise RegimeViolationError(
            f"nu={nu} is not above n - d_perp = {C.n - d_perp}")
    cen = census(C.H, nu, budget)
    return cen.counts == {C.n - C.k: binom(C.n, nu)}
