"""Linear constraint systems on weight distributions and their exact solvers.

Two families are built here.  The truncated-Pascal system constrains
sum_s binom(n-s, nu-s) A_s for every width nu above n minus the dual
distance; the power-moment system constrains sum_i binom(i, nu) A_i for
every nu below the dual distance.  Each has exactly d_perp equations in the
n+1 unknowns A_0..A_n, and every maximal minor of either coefficient matrix
is nonzero, so fixing any n - d_perp + 1 weights determines the rest
uniquely.  Disagreement between the two solutions, or a non-integral or
negative solve, is evidence that no code with the given parameters and
knowns exists.

Both families are integral, and each of their rows is the polynomial
binom(x, j) of one degree j evaluated at distinct integer nodes x, one node
per column.  A system holds that structure, its degrees and its nodes, and
no table of binomials.  With u unknowns left after the knowns are
substituted, the rows of degree < u are solved as the dual Vandermonde
problem in the binomial basis (Bjorck & Pereyra 1970), and every other row
is checked against that solution; this is the only solve, square or
overdetermined.  The right-hand side defines a functional on polynomials of
degree < u, which Newton's forward-difference formula writes as a weighted
sum of values at 0..u-1; its weights are a Taylor shift of the right-hand
side by -1.  Each unknown is that functional of one node's Lagrange
numerator, read from the values at 0..u-1 by exact divisions of a big
integer by a small one: O(u^2) integer operations, and none of the per-node
ones a product of two big integers.  Every closed form in
`closed_forms` (MDS, NMDS, AMDS, extremal type II) is this solve on the
truncated-Pascal system of its parameters.

This module imports `codes` and `errors` when it loads.  Every binomial is
a `math.comb`; `fractions` is imported only where a value is not integral,
and `matrices` only where a coefficient matrix is built
(`MomentSystem.matrix`) or ranked (`rank_relationship_report`), so no
solve with an integral solution loads either.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Mapping, Sequence

from .codes import CodeParameters, WeightDistribution
from .errors import (
    InconsistentKnownsError,
    NegativeSolutionError,
    NonIntegralSolutionError,
    TooFewKnownsError,
    Value,
    require_ints,
)

if TYPE_CHECKING:
    from fractions import Fraction

    from .matrices import RationalMatrix


class MomentSystem(Value):
    """An exact linear system rows x unknowns on the weight counts of a code
    with parameters `params`, given by its structure alone: its entry at row
    i and column s is binom(nodes[s], degrees[i]), the degrees are
    0..rows-1 in some order and the nodes are distinct integers.

    row_labels names each row (its width nu); col_labels lists which A_i
    each column stands for.
    """

    __slots__ = ("kind", "rhs", "row_labels", "col_labels", "params", "degrees", "nodes",
                 "_matrix")
    kind: str  # "pascal" | "pless"
    rhs: tuple[int, ...]
    row_labels: tuple[int, ...]
    col_labels: tuple[int, ...]
    params: CodeParameters
    degrees: tuple[int, ...]
    nodes: tuple[int, ...]

    def __init__(self, kind: str, rhs: tuple[int, ...], row_labels: tuple[int, ...],
                 col_labels: tuple[int, ...], params: CodeParameters,
                 degrees: tuple[int, ...], nodes: tuple[int, ...]):
        if sorted(degrees) != list(range(len(rhs))):
            raise ValueError(f"row degrees {degrees} are not 0..{len(rhs) - 1}")
        if len(nodes) != len(col_labels) or len(set(nodes)) != len(nodes):
            raise ValueError(f"need {len(col_labels)} distinct column nodes, got {nodes}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "row_labels", row_labels)
        object.__setattr__(self, "col_labels", col_labels)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "degrees", degrees)
        object.__setattr__(self, "nodes", nodes)

    @property
    def matrix(self) -> RationalMatrix:
        """The coefficient matrix, the binomials of the structure, built on
        first use and kept; no solve reads it."""
        try:
            return self._matrix
        except AttributeError:
            from .matrices import RationalMatrix

            M = RationalMatrix(tuple(tuple(math.comb(x, j) for x in self.nodes)
                                     for j in self.degrees), len(self.nodes))
            object.__setattr__(self, "_matrix", M)
            return M


def build_pascal_system(params: CodeParameters) -> MomentSystem:
    """One row per width nu in (n - d_perp, n]: the submatrix-census identity
    in its full-rank regime.  Row nu has entry binom(n-s, nu-s) at column s
    and right-hand side binom(n, nu) q^(nu+k-n); the nu = n row is the total
    count sum_s A_s = q^k.  As binom(n-s, nu-s) = binom(n-s, n-nu), row nu
    has degree n - nu and column s has node n - s; nu + k - n >= 0 because
    d_perp <= k + 1."""
    n, k, q, dp = params.n, params.k, params.q, params.d_perp
    widths = tuple(range(n - dp + 1, n + 1))
    rhs = tuple(math.comb(n, nu) * q ** (nu + k - n) for nu in widths)
    return MomentSystem("pascal", rhs, widths, tuple(range(n + 1)), params,
                        tuple(n - nu for nu in widths), tuple(range(n, -1, -1)))


def build_pless_system(params: CodeParameters) -> MomentSystem:
    """One row per nu in [0, d_perp): the dual-distribution-free power
    moments sum_i binom(i, nu) A_i = q^(k-nu) binom(n, nu) (q-1)^nu.  Row nu
    has degree nu and column i has node i; k - nu >= 0 because
    d_perp <= k + 1."""
    n, k, q, dp = params.n, params.k, params.q, params.d_perp
    widths, columns = tuple(range(dp)), tuple(range(n + 1))
    rhs = tuple(q ** (k - nu) * math.comb(n, nu) * (q - 1) ** nu for nu in widths)
    return MomentSystem("pless", rhs, widths, columns, params, widths, columns)


def verify_pless_full(A: WeightDistribution, B: WeightDistribution, nu: int
                      ) -> tuple[int, int | Fraction, bool]:
    """Both sides of the full power-moment identity relating a distribution
    to its dual's:  sum_{i>=nu} binom(i, nu) A_i  against
    q^(k-nu) sum_j (-1)^j binom(n-j, n-nu) (q-1)^(nu-j) B_j.  The right
    side is an int for nu <= k, and a Fraction past k, where q^(k-nu) is
    one."""
    n, q, k = A.n, A.q, A.k
    require_ints(nu=nu)
    if (B.n, B.q) != (n, q):
        raise ValueError(f"dual distribution of length {B.n} over GF({B.q}) given for "
                         f"one of length {n} over GF({q})")
    if not 0 <= nu <= n:
        raise ValueError(f"need 0 <= nu <= {n}")
    lhs = sum(math.comb(i, nu) * A.counts[i] for i in range(nu, n + 1))
    s = sum((-1) ** j * math.comb(n - j, n - nu) * (q - 1) ** (nu - j) * B.counts[j]
            for j in range(nu + 1))
    if nu <= k:
        rhs = q ** (k - nu) * s
    else:
        from fractions import Fraction

        rhs = Fraction(s, q ** (nu - k))
    return lhs, rhs, lhs == rhs


def binomial_interpolation(nodes: Sequence[int], degrees: Sequence[int],
                           rhs: Sequence[int]) -> tuple[int | Fraction, ...]:
    """Exact solution a of sum_s binom(nodes[s], degrees[i]) a_s = rhs[i],
    for distinct integer nodes, degrees 0..u-1 in any order and integer
    right-hand sides; each a_s is an int when it is integral (u = 0 gives ()).

    Let L be the functional on polynomials of degree < u with
    L(binom(x, j)) = b_j; the equations say L(f) = sum_t a_t f(x_t).  By
    Newton's forward-difference formula L(f) = sum_{i<u} g_i f(i), where g
    holds the coefficients of B(z - 1) for B(z) = sum_j b_j z^j: a Taylor
    shift of b by -1 in u(u-1)/2 subtractions.  With omega(x) =
    prod_t (x - x_t) and q_s(x) = omega(x) / (x - x_s), L(q_s) =
    q_s(x_s) a_s.  At a point i < u that is not a node, g_i q_s(i) is the
    exact division g_i omega(i) // (i - x_s), with g_i omega(i) formed once
    per call; at another node q_s is 0; and i = x_s, a point only when
    0 <= x_s < u, adds g_i q_s(x_s).  So each node costs u small products
    for q_s(x_s) and at most u exact divisions of a big integer by a small
    one, and no product of two big integers."""
    u = len(nodes)
    g = [0] * u
    for j, v in zip(degrees, rhs):
        g[j] = v
    for i in range(u - 1):
        for j in range(u - 2, i - 1, -1):
            g[j] -= g[j + 1]
    node_set = set(nodes)
    terms = []
    for i, gi in enumerate(g):
        if gi and i not in node_set:
            for t in nodes:
                gi *= i - t
            terms.append((i, gi))
    out = []
    for c in nodes:
        num = sum(d // (i - c) for i, d in terms)
        den = 1
        for t in nodes:
            den *= c - t or 1  # the node itself contributes 1
        if 0 <= c < u:
            num += g[c] * den
        whole, rem = divmod(num, den)
        if rem:
            from fractions import Fraction

            out.append(Fraction(num, den))
        else:
            out.append(whole)
    return tuple(out)


def _solve_counts(S: MomentSystem, knowns: Mapping[int, int],
                  unknown: Sequence[int]) -> tuple[int | Fraction, ...]:
    """Every count, in column order: `knowns` at their weights, the labels
    in `unknown` solved as they come out of the interpolation (an int, or a
    Fraction when not integral, negatives included), and every other count
    zero.  Each binomial is one `math.comb(node, degree)`, and a known zero
    is never multiplied out."""
    labels, nodes, degrees = S.col_labels, S.nodes, S.degrees
    pos = {lab: idx for idx, lab in enumerate(labels)}
    for j, v in knowns.items():
        if isinstance(j, bool) or j not in pos:
            raise ValueError(f"known index {j!r} is not an unknown of this system")
        if isinstance(v, bool) or not isinstance(v, int) or v < 0:
            raise ValueError(f"known A_{j} must be a nonnegative integer, got {v!r}")
    u, rows = len(unknown), len(degrees)
    if u > rows:
        raise TooFewKnownsError(
            f"{u} unknowns but only {rows} equations; supply at least {u - rows} more knowns")
    nonzero = [(nodes[pos[j]], v) for j, v in knowns.items() if v]
    red_rhs = [b - sum(math.comb(x, deg) * v for x, v in nonzero)
               for deg, b in zip(degrees, S.rhs)]
    xs = [nodes[pos[j]] for j in unknown]
    square = [i for i, deg in enumerate(degrees) if deg < u]
    sol = binomial_interpolation(xs, [degrees[i] for i in square], [red_rhs[i] for i in square])
    for label, deg, b in zip(S.row_labels, degrees, red_rhs):
        if deg >= u and (off := sum(math.comb(x, deg) * a for x, a in zip(xs, sol)) - b):
            raise InconsistentKnownsError(
                f"surplus equation {label} off by {off}; "
                "knowns admit no common solution")
    values = {**knowns, **dict(zip(unknown, sol))}
    return tuple(values.get(j, 0) for j in labels)


def solve_with_knowns(S: MomentSystem, knowns: Mapping[int, int]) -> WeightDistribution:
    """Substitute known weights into the system and solve for the rest.

    Needs at least (#unknown slots) - (#rows) knowns.  With u unknowns left,
    the rows of degree < u are binom(x, 0..u-1) at u distinct nodes, which
    are never singular: `binomial_interpolation` solves them, and every
    other row is checked against that solution in row order.  A row that
    misses, or a count that is not a nonnegative integer, is surfaced as the
    corresponding error and doubles as a nonexistence certificate for the
    requested parameters.  The solve reads the system's degrees and nodes
    and builds no matrix."""
    counts = _solve_counts(S, knowns, [j for j in S.col_labels if j not in knowns])
    for j, v in zip(S.col_labels, counts):
        if v.denominator != 1:
            raise NonIntegralSolutionError(
                f"A_{j} = {v} is not an integer; no code matches these knowns")
        if v < 0:
            raise NegativeSolutionError(
                f"A_{j} = {v} is negative; no code matches these knowns")
    return WeightDistribution(tuple(map(int, counts)), S.params.q, S.params.k)


def cross_check_systems(params: CodeParameters, knowns: Mapping[int, int]
                        ) -> tuple[WeightDistribution, WeightDistribution, bool]:
    """Solve both the truncated-Pascal and the power-moment systems from the
    same knowns.  Agreement is expected for any existing code; disagreement
    is a legitimate outcome certifying that no code has these parameters."""
    A_pascal = solve_with_knowns(build_pascal_system(params), knowns)
    A_pless = solve_with_knowns(build_pless_system(params), knowns)
    return A_pascal, A_pless, A_pascal.counts == A_pless.counts


class RankRelationshipReport(Value):
    """Observed ranks of the two systems and of their stack.

    Purely experimental evidence about how the two constraint families
    overlap; nothing is asserted beyond the numbers."""

    __slots__ = ("pascal_rank", "pless_rank", "joint_rank", "rows_each", "n_unknowns")
    pascal_rank: int
    pless_rank: int
    joint_rank: int
    rows_each: int
    n_unknowns: int

    def __init__(self, pascal_rank: int, pless_rank: int, joint_rank: int, rows_each: int,
                 n_unknowns: int):
        object.__setattr__(self, "pascal_rank", pascal_rank)
        object.__setattr__(self, "pless_rank", pless_rank)
        object.__setattr__(self, "joint_rank", joint_rank)
        object.__setattr__(self, "rows_each", rows_each)
        object.__setattr__(self, "n_unknowns", n_unknowns)


def rank_relationship_report(params: CodeParameters) -> RankRelationshipReport:
    from .matrices import rational_rank

    pas = build_pascal_system(params)
    ple = build_pless_system(params)
    joint = pas.matrix.stack(ple.matrix)
    return RankRelationshipReport(
        pascal_rank=rational_rank(pas.matrix),
        pless_rank=rational_rank(ple.matrix),
        joint_rank=rational_rank(joint),
        rows_each=pas.matrix.rows,
        n_unknowns=params.n + 1,
    )
