"""Closed-form weight distributions for codes with small Singleton defect and
for extremal doubly-even self-dual binary codes.

All of these are pure parameter-to-distribution functions: none of them
checks that a code with the requested parameters exists.  Negative or
non-integral outputs are surfaced (as values or errors, per function), since
they are exactly the evidence one wants when probing nonexistence.

All four are one solve.  Each closed form is the truncated-Pascal system of
its parameters (the census identity at every width above n - d_perp),
solved by `moments` with the counts outside its unknowns fixed: A_0 = 1,
zeros, then s seed counts for the MDS, near-MDS and almost-MDS
distributions (MDS is the no-seed case and near-MDS the one-seed case), and
A_0 = A_24m = 1 and zeros for the extremal type II distribution.  The rows
the interpolation does not use are checked by the same solve: the MDS row
at width n - k, and the extremal rows at widths 20m-3..20m+1.

A type II code of the extremal family is its `CodeParameters` and its 4m-1
free counts, nothing more.  `extremal_system` selects some of its relations,
with symmetry rows if asked, as a plain matrix and right-hand side that
`solve_exact` solves; no closed form reads it.

This module imports `codes`, `errors` and `moments` when it loads;
`matrices` only in `extremal_system` and `reed_solomon_code`, which build a
matrix, so no closed form loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .codes import CodeParameters, LinearCode, WeightDistribution, require_ints
from .errors import (
    DEFAULT_BUDGET,
    InconsistentKnownsError,
    NegativeEntryError,
    NonIntegralSolutionError,
    RangeViolationError,
    cheapest_route,
)
from .moments import _solve_counts, build_pascal_system

if TYPE_CHECKING:
    from fractions import Fraction

    from .fields import Field
    from .matrices import RationalMatrix


def _pascal_counts(params: CodeParameters, known: dict[int, int],
                   unknowns: Sequence[int]) -> tuple[int | Fraction, ...]:
    """A_0..A_n: `known` at its weights, zero off `known` and `unknowns`, and
    the unknowns solved, negatives and fractions included, on the
    truncated-Pascal system of `params`."""
    return _solve_counts(build_pascal_system(params), known, unknowns)


def mds_distribution(n: int, k: int, q: int) -> WeightDistribution:
    """Distribution of a maximum-distance-separable [n, k, n-k+1]_q code,
    solved for A_d..A_n from A_0 = 1 alone:
    A_w = binom(n, w) sum_j (-1)^j binom(w, j) (q^(w-d+1-j) - 1) for w >= d.
    Depends on nothing but the parameters (defect sum zero)."""
    require_ints(n=n, k=k)  # before d and d_perp are computed from them
    params = CodeParameters(n=n, k=k, d=n - k + 1, d_perp=k + 1, q=q)
    return WeightDistribution(_pascal_counts(params, {0: 1}, range(n - k + 1, n + 1)), q, k)


def nmds_distribution(n: int, k: int, q: int, a_d: int) -> WeightDistribution:
    """Distribution of a near-MDS [n, k, n-k]_q code (defect 1 on both
    sides), solved for A_{d+1}..A_n from A_0 = 1 and the count a_d of
    minimum-weight words; the almost-MDS distribution at sigma = 2:

        A_{n-k+i} = binom(n, k-i) sum_{j<i} (-1)^j binom(n-k+i, j)(q^(i-j)-1)
                    + (-1)^i binom(k, i) a_d.

    An unrealizable a_d shows up as negative entries in the result; they are
    returned as computed, never clamped."""
    require_ints(n=n, k=k, a_d=a_d)  # before k is compared with n
    if k == n:  # d = 0, which CodeParameters would report in terms of d
        raise ValueError(f"need k <= n-1 = {n - 1} for d = n-k >= 1, got k={k}")
    if a_d < 0:
        raise ValueError(f"a_d must be >= 0, got a_d={a_d}")
    return WeightDistribution(amds_counts(AmdsInput(n, k, q, 2, (a_d,))), q, k)


def check_nonnegative(counts: Sequence[int], reason: str) -> None:
    """Raise NegativeEntryError naming the first negative count."""
    for i, c in enumerate(counts):
        if c < 0:
            raise NegativeEntryError(f"A_{i} = {c} is negative; {reason}")


@dataclass(frozen=True)
class AmdsInput:
    """Parameters of an almost-MDS [n, k, n-k]_q code whose dual has
    distance k - sigma + 2, plus the sigma-1 seed counts
    A_{n-k}, ..., A_{n-k+sigma-2} that pin the distribution."""

    n: int
    k: int
    q: int
    sigma: int
    seed_weights: tuple[int, ...]

    def __post_init__(self):
        require_ints(n=self.n, k=self.k, sigma=self.sigma)  # before params computes with them
        for w in self.seed_weights:
            require_ints(seed_weight=w)
        if self.sigma < 2:
            raise ValueError(f"need 2 <= sigma <= k+1, got sigma={self.sigma}")
        if len(self.seed_weights) != self.sigma - 1:
            raise ValueError(
                f"need {self.sigma - 1} seed weights, got {len(self.seed_weights)}")
        if any(w < 0 for w in self.seed_weights):
            raise ValueError("seed weights must be >= 0")
        self.params  # CodeParameters checks n, k, q and sigma <= k+1

    @property
    def params(self) -> CodeParameters:
        return CodeParameters(n=self.n, k=self.k, d=self.n - self.k,
                              d_perp=self.k - self.sigma + 2, q=self.q)


def amds_counts(inp: AmdsInput) -> tuple[int, ...]:
    """Raw closed-form counts for an almost-MDS code, negatives included: the
    census identity solved for A_{n-k+sigma-1}..A_n once A_0..A_{n-k+sigma-2}
    are in place."""
    n, lo = inp.n, inp.n - inp.k
    known = {0: 1, **dict(zip(range(lo, n), inp.seed_weights))}
    return _pascal_counts(inp.params, known, range(lo + inp.sigma - 1, n + 1))


def amds_distribution(inp: AmdsInput) -> WeightDistribution:
    """Closed-form distribution of an almost-MDS code from its seeds; raises
    NegativeEntryError when the seeds are inconsistent with any code.  At
    sigma = 2 this coincides with nmds_distribution."""
    counts = amds_counts(inp)
    check_nonnegative(counts, f"seeds match no [{inp.n},{inp.k},{inp.n - inp.k}]_{inp.q} "
                              f"code with dual distance {inp.k - inp.sigma + 2}")
    return WeightDistribution(counts, inp.q, inp.k)


# ---------------------------------------------------------------------------
# extremal doubly-even self-dual binary codes [24m, 12m, 4m+4]
# ---------------------------------------------------------------------------

def _type_ii(m: int) -> tuple[CodeParameters, tuple[int, ...]]:
    """The parameters of a [24m, 12m, 4m+4] type II code, whose dual
    distance is d as it is self-dual, and its 4m-1 free counts: the weights
    4m+4, 4m+8, ..., 20m-4 that divisibility and symmetry do not force to 0
    or 1."""
    require_ints(m=m)
    if m < 1:
        raise ValueError("m must be >= 1")
    d = 4 * m + 4
    return (CodeParameters(n=24 * m, k=12 * m, d=d, d_perp=d, q=2),
            tuple(range(d, 20 * m - 3, 4)))


class ExtremalSystem(NamedTuple):
    """Relations on the free counts of a type II code, as the rows and
    right-hand side that `solve_exact` takes."""

    matrix: RationalMatrix
    rhs: tuple[int, ...]
    row_labels: tuple[object, ...]
    col_labels: tuple[int, ...]


def extremal_system(m: int, nu_set: Sequence[int],
                    include_symmetry: bool = False) -> ExtremalSystem:
    """Relations on the free counts A_{4m+4l} of a [24m, 12m, 4m+4] type II
    code:

        sum_l binom(20m-4l, nu-4m-4l) A_{4m+4l}
            = binom(24m, nu) (2^(nu-12m) - 1) - delta(24m, nu)

    for each requested nu in (20m-4, 24m], the code's truncated-Pascal row
    nu less A_0 = A_24m = 1, optionally extended with the 2m-1 symmetry
    rows A_{4m+4l} = A_{20m-4l}."""
    from .matrices import RationalMatrix

    params, unknowns = _type_ii(m)
    pos = {u: i for i, u in enumerate(unknowns)}
    S = build_pascal_system(params)
    pascal = {nu: (deg, b) for nu, deg, b in zip(S.row_labels, S.degrees, S.rhs)}
    rows, rhs, labels = [], [], []
    for nu in nu_set:
        if nu not in pascal:
            raise RangeViolationError(
                f"nu={nu} outside ({20 * m - 4}, {24 * m}]")
        deg, b = pascal[nu]
        # column s of the Pascal system is A_s, at node n - s
        rows.append([math.comb(S.nodes[u], deg) for u in unknowns])
        rhs.append(b - math.comb(S.nodes[0], deg) - math.comb(S.nodes[params.n], deg))
        labels.append(nu)
    if include_symmetry:
        for l in range(1, 2 * m):
            row = [0] * len(unknowns)
            row[pos[4 * m + 4 * l]] += 1
            row[pos[20 * m - 4 * l]] -= 1
            rows.append(row)
            rhs.append(0)
            labels.append(f"sym A_{4 * m + 4 * l}=A_{20 * m - 4 * l}")
    return ExtremalSystem(RationalMatrix.from_rows(rows, cols=len(unknowns)),
                          tuple(rhs), tuple(labels), unknowns)


def _extremal_price(m: int) -> int:
    """An upper bound on the work of `extremal_distribution(m)`, with each
    big-integer step counted by the 64-bit words of its widest operand.

    There are u = 4m - 1 unknowns at the nodes 20m - 4l and 4m + 4 rows,
    and no point 0..u-1 of the interpolation is a node; every difference of
    a point or node and a node is below 2^L, L the bit length of 20m.
      - A right-hand side less the knowns is below 2^(24m) 2^(12m) +
        2^(24m) + 1: 36m + 1 bits, and 9 steps a row to form it.
      - The Taylor shift, u (u - 1) / 2 subtractions, adds at most u bits.
      - The u^2 products of g_i omega(i) add at most u L more.
      - Per node: u quotients and their u additions, a count's numerator
        at most the bit length of u wider; u products for its denominator
        +-4^(u-1) t! (u-1-t)!, below 2^(u L); at most 8 more steps.
      - The surplus rows: per row and unknown a binomial below 2^(20m), a
        product and a Fraction sum, at most 10 steps; every denominator
        divides 4^(u-1) (u-1)!, so the sums' denominators stay below
        2^(u L).
      - 4 checks per count.
    So the price grows as m^3, as the time does."""
    u, rows, n = 4 * m - 1, 4 * m + 4, 24 * m
    L = (20 * m).bit_length()
    rhs = 36 * m + 1
    shifted = rhs + u
    term = shifted + u * L
    count = term + u.bit_length()
    den = u * L
    row_sum = 20 * m + count + den + u.bit_length()

    def words(bits: int) -> int:
        return -(-bits // 64)

    return (rows * 9 * words(rhs)
            + u * (u - 1) // 2 * words(shifted)
            + u * u * words(term)
            + u * (u * (2 * words(count) + words(den)) + 8 * words(count))
            + (rows - u) * u * 10 * words(row_sum)
            + 4 * (n + 1) * words(count))


def extremal_distribution(m: int, budget: int | None = DEFAULT_BUDGET) -> WeightDistribution:
    """Full distribution of a [24m, 12m, 4m+4] extremal type II code: the
    free counts solved from A_0 = A_24m = 1 at the 4m-1 largest widths (the
    widths 20m-3..20m+1 are surplus rows), then symmetry and total checked.
    A count that is not a nonnegative integer raises NonIntegralSolutionError
    or NegativeEntryError naming its weight: no such code exists.  The
    budget caps the solve's price in 64-bit word operations (see
    `_extremal_price`) by `cheapest_route`, the rule of every exact count,
    before anything is solved."""
    params, unknowns = _type_ii(m)
    cheapest_route([("extremal solve", _extremal_price(m))], budget)
    n, k = params.n, params.k
    counts = _pascal_counts(params, {0: 1, n: 1}, unknowns)
    code = f"[{n},{k},{params.d}] extremal type II code"
    for u, v in enumerate(counts):
        if v.denominator != 1:
            raise NonIntegralSolutionError(f"A_{u} = {v} is not an integer; no {code} exists")
    check_nonnegative(counts, f"no {code} exists")
    if counts != counts[::-1] or sum(counts) != 2 ** k:
        raise InconsistentKnownsError("solved distribution is not symmetric or has wrong total")
    return WeightDistribution(counts, 2, k)


# ---------------------------------------------------------------------------
# Reed-Solomon fixture generator
# ---------------------------------------------------------------------------

def reed_solomon_code(field: Field, n: int, k: int) -> LinearCode:
    """Evaluation code of polynomials of degree < k at n distinct field
    elements, extended with the point at infinity when n = q+1; an
    [n, k, n-k+1] MDS code.  Test fixture for comparing the closed form
    against the enumeration oracle."""
    from .matrices import GFMatrix

    require_ints(n=n, k=k)
    if not 1 <= k <= n <= field.q + 1:
        raise ValueError(f"need 1 <= k <= n <= q+1, got n={n}, k={k}, q={field.q}")
    points = list(range(min(n, field.q)))
    rows = [[field.pow(x, i) for x in points] for i in range(k)]
    if n == field.q + 1:
        # infinity column: the coefficient of x^(k-1)
        for i in range(k):
            rows[i].append(1 if i == k - 1 else 0)
    return LinearCode(GFMatrix.from_rows(field, rows))
