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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .codes import CodeParameters, WeightDistribution
from .errors import (
    InconsistentKnownsError,
    NegativeSolutionError,
    NonIntegralSolutionError,
    SingularMatrixError,
    SingularReducedSystemError,
    TooFewKnownsError,
)
from .matrices import (
    RationalMatrix,
    binom,
    echelon,
    rational_rank,
    solve_exact,
)


@dataclass(frozen=True)
class MomentSystem:
    """An exact linear system rows x unknowns on weight counts.

    row_labels names each row (the width nu for moment rows, a symmetry tag
    for symmetry rows); col_labels lists which A_i each column stands for.
    """

    kind: str  # "pascal" | "pless" | "extremal"
    matrix: RationalMatrix
    rhs: tuple[Fraction, ...]
    row_labels: tuple[object, ...]
    col_labels: tuple[int, ...]
    params: CodeParameters | None = None


def build_pascal_system(params: CodeParameters) -> MomentSystem:
    """One row per width nu in (n - d_perp, n]: the submatrix-census identity
    in its full-rank regime.  Row nu has entry binom(n-s, nu-s) at column s
    and right-hand side binom(n, nu) q^(nu+k-n); the nu = n row is the total
    count sum_s A_s = q^k."""
    n, k, q, dp = params.n, params.k, params.q, params.d_perp
    rows, rhs, labels = [], [], []
    for nu in range(n - dp + 1, n + 1):
        rows.append([binom(n - s, nu - s) for s in range(n + 1)])
        rhs.append(Fraction(binom(n, nu)) * Fraction(q) ** (nu + k - n))
        labels.append(nu)
    return MomentSystem("pascal", RationalMatrix.from_rows(rows), tuple(rhs),
                        tuple(labels), tuple(range(n + 1)), params)


def build_pless_system(params: CodeParameters) -> MomentSystem:
    """One row per nu in [0, d_perp): the dual-distribution-free power
    moments sum_i binom(i, nu) A_i = q^(k-nu) binom(n, nu) (q-1)^nu."""
    n, k, q, dp = params.n, params.k, params.q, params.d_perp
    rows, rhs, labels = [], [], []
    for nu in range(0, dp):
        rows.append([binom(i, nu) for i in range(n + 1)])
        rhs.append(Fraction(q) ** (k - nu) * binom(n, nu) * (q - 1) ** nu)
        labels.append(nu)
    return MomentSystem("pless", RationalMatrix.from_rows(rows), tuple(rhs),
                        tuple(labels), tuple(range(n + 1)), params)


def verify_pless_full(A: WeightDistribution, B: WeightDistribution, nu: int
                      ) -> tuple[int, Fraction, bool]:
    """Both sides of the full power-moment identity relating a distribution
    to its dual's:  sum_{i>=nu} binom(i, nu) A_i  against
    q^(k-nu) sum_j (-1)^j binom(n-j, n-nu) (q-1)^(nu-j) B_j."""
    n, q, k = A.n, A.q, A.k
    if not 0 <= nu <= n:
        raise ValueError(f"need 0 <= nu <= {n}")
    lhs = sum(binom(i, nu) * A.counts[i] for i in range(nu, n + 1))
    s = sum((-1) ** j * binom(n - j, n - nu) * (q - 1) ** (nu - j) * B.counts[j]
            for j in range(nu + 1))
    rhs = Fraction(q) ** (k - nu) * s
    return lhs, rhs, lhs == rhs


def _solve_reduced(matrix: RationalMatrix, rhs: Sequence[Fraction],
                   n_unknowns: int) -> tuple[Fraction, ...]:
    """Solve a possibly overdetermined consistent system exactly.

    The square subsystem of the first rows that extend the row space is
    solved and every row is checked against the solution; a residual means
    the constraints admit no common solution."""
    if matrix.rows == n_unknowns:
        try:
            return solve_exact(matrix, rhs)
        except SingularMatrixError as e:
            raise SingularReducedSystemError(
                str(e), rank=e.rank, kernel_vector=e.kernel_vector) from e
    # the rows that are not combinations of earlier rows: the transpose's pivot columns
    pivot_rows = echelon(zip(*matrix.entries)).pivots
    if len(pivot_rows) < n_unknowns:
        raise SingularReducedSystemError(
            f"reduced system has rank {len(pivot_rows)} < {n_unknowns} unknowns",
            rank=len(pivot_rows), kernel_vector=None)
    square = RationalMatrix(tuple(matrix.entries[i] for i in pivot_rows), n_unknowns)
    x = solve_exact(square, [rhs[i] for i in pivot_rows])
    for i, lhs in enumerate(matrix.matvec(x)):
        if lhs != rhs[i]:
            raise InconsistentKnownsError(
                f"surplus equation {i} off by {lhs - rhs[i]}; "
                "knowns admit no common solution")
    return x


def solve_with_knowns(S: MomentSystem, knowns: Mapping[int, int]) -> WeightDistribution:
    """Substitute known weights into the system and solve for the rest.

    Needs at least (#unknown slots) - (#rows) knowns.  The recovered counts
    must come out nonnegative integers; anything else is surfaced as the
    corresponding error and doubles as a nonexistence certificate for the
    requested parameters."""
    if S.params is None:
        raise ValueError("system carries no code parameters; solve it directly")
    labels = S.col_labels
    for j, v in knowns.items():
        if j not in labels:
            raise ValueError(f"known index {j} is not an unknown of this system")
        if not isinstance(v, int) or v < 0:
            raise ValueError(f"known A_{j} must be a nonnegative integer, got {v!r}")
    unknown = [j for j in labels if j not in knowns]
    if len(unknown) > S.matrix.rows:
        raise TooFewKnownsError(
            f"{len(unknown)} unknowns but only {S.matrix.rows} equations; "
            f"supply at least {len(unknown) - S.matrix.rows} more knowns")
    pos = {lab: idx for idx, lab in enumerate(labels)}
    red_rhs = []
    for row, b in zip(S.matrix.entries, S.rhs):
        red_rhs.append(b - sum(row[pos[j]] * knowns[j] for j in labels if j in knowns))
    red_rows = [[row[pos[j]] for j in unknown] for row in S.matrix.entries]
    if unknown:
        x = _solve_reduced(RationalMatrix.from_rows(red_rows, cols=len(unknown)),
                           red_rhs, len(unknown))
    else:
        x = ()
        for i, b in enumerate(red_rhs):
            if b != 0:
                raise InconsistentKnownsError(
                    f"equation {S.row_labels[i]} violated by the supplied knowns")
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
