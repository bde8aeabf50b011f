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
per column.  The builders record that structure.  With u unknowns left
after the knowns are substituted, the rows of degree < u are solved as the
dual Vandermonde problem in the binomial basis (Bjorck & Pereyra 1970) in
O(u^2) integer operations, and every other row is checked against that
solution; this is the only solve, square or overdetermined.  Every closed
form in `closed_forms` (MDS, NMDS, AMDS, extremal type II) solves the
truncated-Pascal rows nearest n with the same `binomial_interpolation`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .codes import CodeParameters, WeightDistribution, require_ints
from .errors import (
    InconsistentKnownsError,
    NegativeSolutionError,
    NonIntegralSolutionError,
    TooFewKnownsError,
)
from .matrices import RationalMatrix, binom, rational_rank


@dataclass(frozen=True)
class MomentSystem:
    """An exact linear system rows x unknowns on weight counts.

    row_labels names each row (the width nu for moment rows, a symmetry tag
    for symmetry rows); col_labels lists which A_i each column stands for.
    A system whose entry at row i and column s is binom(nodes[s],
    degrees[i]) records that structure, which the solver relies on: the
    degrees are 0..rows-1 in some order and the nodes are distinct integers.
    Without it, degrees and nodes are None, `solve_with_knowns` refuses the
    system, and `solve_exact` solves its matrix.
    """

    kind: str  # "pascal" | "pless" | "extremal"
    matrix: RationalMatrix
    rhs: tuple[int | Fraction, ...]
    row_labels: tuple[object, ...]
    col_labels: tuple[int, ...]
    params: CodeParameters | None = None
    degrees: tuple[int, ...] | None = None
    nodes: tuple[int, ...] | None = None

    def __post_init__(self):
        if (self.degrees is None) != (self.nodes is None):
            raise ValueError("record both degrees and nodes, or neither")
        if self.degrees is not None:
            if sorted(self.degrees) != list(range(self.matrix.rows)):
                raise ValueError(f"row degrees {self.degrees} are not 0..{self.matrix.rows - 1}")
            if len(self.nodes) != self.matrix.cols or len(set(self.nodes)) != len(self.nodes):
                raise ValueError(f"need {self.matrix.cols} distinct column nodes, got {self.nodes}")


def _binomial_system(kind: str, params: CodeParameters, widths: Sequence[int],
                     degrees: Sequence[int], nodes: Sequence[int],
                     rhs: Sequence[int]) -> MomentSystem:
    """The system on A_0..A_n whose row of degree j, labelled by its width,
    is binom(x, j) at the node x of each column."""
    rows = tuple(tuple(math.comb(x, j) for x in nodes) for j in degrees)
    return MomentSystem(kind, RationalMatrix(rows, len(nodes)), tuple(rhs), tuple(widths),
                        tuple(range(len(nodes))), params, tuple(degrees), tuple(nodes))


def build_pascal_system(params: CodeParameters) -> MomentSystem:
    """One row per width nu in (n - d_perp, n]: the submatrix-census identity
    in its full-rank regime.  Row nu has entry binom(n-s, nu-s) at column s
    and right-hand side binom(n, nu) q^(nu+k-n); the nu = n row is the total
    count sum_s A_s = q^k.  As binom(n-s, nu-s) = binom(n-s, n-nu), row nu
    has degree n - nu and column s has node n - s; nu + k - n >= 0 because
    d_perp <= k + 1."""
    n, k, q, dp = params.n, params.k, params.q, params.d_perp
    widths = range(n - dp + 1, n + 1)
    return _binomial_system("pascal", params, widths, [n - nu for nu in widths],
                            range(n, -1, -1),
                            [binom(n, nu) * q ** (nu + k - n) for nu in widths])


def build_pless_system(params: CodeParameters) -> MomentSystem:
    """One row per nu in [0, d_perp): the dual-distribution-free power
    moments sum_i binom(i, nu) A_i = q^(k-nu) binom(n, nu) (q-1)^nu.  Row nu
    has degree nu and column i has node i; k - nu >= 0 because
    d_perp <= k + 1."""
    n, k, q, dp = params.n, params.k, params.q, params.d_perp
    widths = range(dp)
    return _binomial_system("pless", params, widths, widths, range(n + 1),
                            [q ** (k - nu) * binom(n, nu) * (q - 1) ** nu for nu in widths])


def verify_pless_full(A: WeightDistribution, B: WeightDistribution, nu: int
                      ) -> tuple[int, Fraction, bool]:
    """Both sides of the full power-moment identity relating a distribution
    to its dual's:  sum_{i>=nu} binom(i, nu) A_i  against
    q^(k-nu) sum_j (-1)^j binom(n-j, n-nu) (q-1)^(nu-j) B_j."""
    n, q, k = A.n, A.q, A.k
    require_ints(nu=nu)
    if (B.n, B.q) != (n, q):
        raise ValueError(f"dual distribution of length {B.n} over GF({B.q}) given for "
                         f"one of length {n} over GF({q})")
    if not 0 <= nu <= n:
        raise ValueError(f"need 0 <= nu <= {n}")
    lhs = sum(binom(i, nu) * A.counts[i] for i in range(nu, n + 1))
    s = sum((-1) ** j * binom(n - j, n - nu) * (q - 1) ** (nu - j) * B.counts[j]
            for j in range(nu + 1))
    rhs = Fraction(q) ** (k - nu) * s
    return lhs, rhs, lhs == rhs


def binomial_interpolation(nodes: Sequence[int], degrees: Sequence[int],
                           rhs: Sequence[int]) -> tuple[int | Fraction, ...]:
    """Exact solution a of sum_s binom(nodes[s], degrees[i]) a_s = rhs[i],
    for distinct integer nodes, degrees 0..u-1 in any order and integer
    right-hand sides; each a_s is an int when it is integral (u = 0 gives ()).

    With omega(x) = prod_t (x - x_t) and q_s(x) = omega(x) / (x - x_s), the
    binomial-basis coefficients c_s of q_s give <c_s, b> = sum_t q_s(x_t) a_t
    = q_s(x_s) a_s.  Multiplying by (x - c) maps binom(x, j) to
    (j+1) binom(x, j+1) + (j-c) binom(x, j), so every coefficient is an
    integer and dividing omega by (x - x_s) is an exact back-recurrence from
    q_u = 0, summed into <c_s, b> as it runs."""
    u = len(nodes)
    b = [0] * u
    for j, v in zip(degrees, rhs):
        b[j] = v
    omega = [1]
    for c in nodes:
        omega = [(j - c) * a + j * p for j, (a, p) in enumerate(zip(omega + [0], [0] + omega))]
    steps = [(j, omega[j], b[j - 1]) for j in range(u, 0, -1)]
    out = []
    for c in nodes:
        qj = num = 0
        for j, w, bj in steps:  # omega_j = j q_{j-1} + (j - c) q_j, for q_{j-1}
            qj = (w - (j - c) * qj) // j
            num += qj * bj
        den = 1
        for t in nodes:
            den *= c - t or 1  # the node itself contributes 1
        whole, rem = divmod(num, den)
        out.append(Fraction(num, den) if rem else whole)
    return tuple(out)


def solve_with_knowns(S: MomentSystem, knowns: Mapping[int, int]) -> WeightDistribution:
    """Substitute known weights into the system and solve for the rest.

    Needs at least (#unknown slots) - (#rows) knowns.  With u unknowns left,
    the rows of degree < u are binom(x, 0..u-1) at u distinct nodes, which
    are never singular: `binomial_interpolation` solves them, and every
    other row is checked against that solution in row order.  A row that
    misses, or a count that is not a nonnegative integer, is surfaced as the
    corresponding error and doubles as a nonexistence certificate for the
    requested parameters.  A system that records no degrees and nodes is
    refused; `solve_exact` solves it."""
    if S.params is None:
        raise ValueError("system carries no code parameters; solve it directly")
    if S.nodes is None:
        raise ValueError("system records no row degrees or column nodes; "
                         "solve it with solve_exact")
    labels = S.col_labels
    for j, v in knowns.items():
        if isinstance(j, bool) or j not in labels:
            raise ValueError(f"known index {j!r} is not an unknown of this system")
        if isinstance(v, bool) or not isinstance(v, int) or v < 0:
            raise ValueError(f"known A_{j} must be a nonnegative integer, got {v!r}")
    unknown = [j for j in labels if j not in knowns]
    u = len(unknown)
    if u > S.matrix.rows:
        raise TooFewKnownsError(
            f"{u} unknowns but only {S.matrix.rows} equations; "
            f"supply at least {u - S.matrix.rows} more knowns")
    pos = {lab: idx for idx, lab in enumerate(labels)}
    red_rhs = [b - sum(row[pos[j]] * v for j, v in knowns.items())
               for row, b in zip(S.matrix.entries, S.rhs)]
    cols = [pos[j] for j in unknown]
    square = [i for i, j in enumerate(S.degrees) if j < u]
    x = binomial_interpolation([S.nodes[c] for c in cols], [S.degrees[i] for i in square],
                               [red_rhs[i] for i in square])
    for i, (row, b) in enumerate(zip(S.matrix.entries, red_rhs)):
        if S.degrees[i] < u:
            continue
        off = sum(row[c] * v for c, v in zip(cols, x)) - b
        if off:
            raise InconsistentKnownsError(
                f"surplus equation {S.row_labels[i]} off by {off}; "
                "knowns admit no common solution")
    values = dict(zip(unknown, x))
    counts = []
    for j in labels:
        if j in knowns:
            counts.append(int(knowns[j]))
            continue
        v = values[j]
        if v.denominator != 1:
            raise NonIntegralSolutionError(
                f"A_{j} = {v} is not an integer; no code matches these knowns")
        if v < 0:
            raise NegativeSolutionError(
                f"A_{j} = {v} is negative; no code matches these knowns")
        counts.append(int(v))
    return WeightDistribution(tuple(counts), S.params.q, S.params.k)


def cross_check_systems(params: CodeParameters, knowns: Mapping[int, int]
                        ) -> tuple[WeightDistribution, WeightDistribution, bool]:
    """Solve both the truncated-Pascal and the power-moment systems from the
    same knowns.  Agreement is expected for any existing code; disagreement
    is a legitimate outcome certifying that no code has these parameters."""
    A_pascal = solve_with_knowns(build_pascal_system(params), knowns)
    A_pless = solve_with_knowns(build_pless_system(params), knowns)
    return A_pascal, A_pless, A_pascal.counts == A_pless.counts


@dataclass(frozen=True)
class RankRelationshipReport:
    """Observed ranks of the two systems and of their stack.

    Purely experimental evidence about how the two constraint families
    overlap; nothing is asserted beyond the numbers."""

    pascal_rank: int
    pless_rank: int
    joint_rank: int
    rows_each: int
    n_unknowns: int


def rank_relationship_report(params: CodeParameters) -> RankRelationshipReport:
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
