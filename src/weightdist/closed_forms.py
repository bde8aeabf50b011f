"""Closed-form weight distributions for codes with small Singleton defect and
for extremal doubly-even self-dual binary codes.

All of these are pure parameter-to-distribution functions: none of them
checks that a code with the requested parameters exists.  Negative or
non-integral outputs are surfaced (as values or errors, per function), since
they are exactly the evidence one wants when probing nonexistence.

The MDS, near-MDS and almost-MDS distributions are one closed form: once the
counts below n - k + s are fixed (A_0 = 1, zeros, then s seed counts), the
census identity is a lower-triangular Pascal system in the rest, solved by
its explicit inverse.  MDS is the no-seed case and near-MDS the one-seed case.

The extremal relations have the binomial-Vandermonde structure of the moment
systems, so the extremal distribution is solved by the same interpolation.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Sequence

from .codes import LinearCode, WeightDistribution, require_ints
from .errors import (
    NegativeEntryError,
    RangeViolationError,
    SingularSelectionError,
)
from .fields import Field
from .matrices import GFMatrix, RationalMatrix, binom
from .moments import MomentSystem, binomial_interpolation


def kronecker_delta(a, b) -> int:
    return 1 if a == b else 0


def _defect_counts(n: int, k: int, q: int, seeds: Sequence[int]) -> tuple[int, ...]:
    """Counts of a length-n, dimension-k code over GF(q) with A_1..A_{n-k-1}
    zero, dual distance k + 1 - s and the s = len(seeds) counts
    A_{n-k}, ..., A_{n-k+s-1} given as seeds, negatives included.

    With those in place the census identity's widths above n - d_perp are a
    lower-triangular Pascal system in the rest, whose explicit inverse gives,
    for 0 <= i <= k - s,

        A_{n-k+s+i} = sum_{j<=i} (-1)^(i-j) binom(k-s-j, i-j) b_j,
        b_j = binom(n, n-k+s+j)(q^(j+s)-1) - sum_{h<s} binom(k-h, s+j-h) A_{n-k+h}.

    No seeds gives the MDS distribution, one seed the near-MDS one.  A_0 is
    set last: at k = n the i = 0 entry is the count of nonzero words of
    weight 0."""
    s = len(seeds)
    m, lo = k - s, n - k + s
    # c_j = (-1)^j b_j, so that A_{lo+i} = (-1)^i sum_{j<=i} binom(m-j, i-j) c_j
    c = [(-1) ** j * (comb(n, lo + j) * (q ** (j + s) - 1)
                      - sum(comb(k - h, s + j - h) * a for h, a in enumerate(seeds)))
         for j in range(m + 1)]
    counts = [0] * (n + 1)
    counts[n - k:lo] = seeds
    for i in range(m + 1):
        acc = sum(comb(m - j, i - j) * c[j] for j in range(i + 1))
        counts[lo + i] = -acc if i & 1 else acc
    counts[0] = 1
    return tuple(counts)


def mds_distribution(n: int, k: int, q: int) -> WeightDistribution:
    """Distribution of a maximum-distance-separable [n, k, n-k+1]_q code, the
    no-seed case of the defect closed form:
    A_w = binom(n, w) sum_j (-1)^j binom(w, j) (q^(w-d+1-j) - 1) for w >= d.
    Depends on nothing but the parameters (defect sum zero)."""
    require_ints(n=n, k=k, q=q)
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if q < 2:
        raise ValueError("field order must be >= 2")
    return WeightDistribution(_defect_counts(n, k, q, ()), q, k)


def nmds_distribution(n: int, k: int, q: int, a_d: int) -> WeightDistribution:
    """Distribution of a near-MDS [n, k, n-k]_q code (defect 1 on both
    sides), the one-seed case of the defect closed form, pinned by the count
    a_d of minimum-weight words:

        A_{n-k+i} = binom(n, k-i) sum_{j<i} (-1)^j binom(n-k+i, j)(q^(i-j)-1)
                    + (-1)^i binom(k, i) a_d.

    An unrealizable a_d shows up as negative entries in the result; they are
    returned as computed, never clamped."""
    require_ints(n=n, k=k, q=q, a_d=a_d)
    if not 0 < k < n:
        raise ValueError(f"need 0 < k < n, got k={k}, n={n}")
    if q < 2:
        raise ValueError("field order must be >= 2")
    if a_d < 0:
        raise ValueError("minimum-weight count must be >= 0")
    return WeightDistribution(_defect_counts(n, k, q, (a_d,)), q, k)


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
        require_ints(n=self.n, k=self.k, q=self.q, sigma=self.sigma)
        for w in self.seed_weights:
            require_ints(seed_weight=w)
        if not 0 < self.k < self.n:
            raise ValueError(f"need 0 < k < n, got k={self.k}, n={self.n}")
        if self.q < 2:
            raise ValueError("field order must be >= 2")
        if not 2 <= self.sigma <= self.k + 1:
            raise ValueError(f"need 2 <= sigma <= k+1, got sigma={self.sigma}")
        if len(self.seed_weights) != self.sigma - 1:
            raise ValueError(
                f"need {self.sigma - 1} seed weights, got {len(self.seed_weights)}")
        if any(w < 0 for w in self.seed_weights):
            raise ValueError("seed weights must be >= 0")


def amds_counts(inp: AmdsInput) -> tuple[int, ...]:
    """Raw closed-form counts for an almost-MDS code, negatives included: the
    defect closed form with the sigma - 1 seeds, i.e. the explicit inverse of
    the lower-triangular Pascal system that the census identity induces once
    A_0..A_{n-k+sigma-2} are in place."""
    return _defect_counts(inp.n, inp.k, inp.q, inp.seed_weights)


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

@dataclass(frozen=True)
class ExtremalParams:
    """Derived parameters of the extremal type II family."""

    m: int

    def __post_init__(self):
        require_ints(m=self.m)
        if self.m < 1:
            raise ValueError("m must be >= 1")

    @property
    def n(self) -> int:
        return 24 * self.m

    @property
    def k(self) -> int:
        return 12 * self.m

    @property
    def d(self) -> int:
        return 4 * self.m + 4

    @property
    def unknown_indices(self) -> tuple[int, ...]:
        """Weights not forced to 0 or 1 by divisibility and symmetry:
        A_{4m+4}, A_{4m+8}, ..., A_{20m-4}."""
        return tuple(4 * self.m + 4 * l for l in range(1, 4 * self.m))


def extremal_relation_range(m: int) -> range:
    """Widths nu for which the census identity collapses to a relation on
    the 4m-1 free counts: 20m-4 < nu <= 24m."""
    ExtremalParams(m)  # validates m
    return range(20 * m - 3, 24 * m + 1)


def extremal_system(m: int, nu_set: Sequence[int],
                    include_symmetry: bool = False) -> MomentSystem:
    """Relations on the free counts A_{4m+4l} of a [24m, 12m, 4m+4] type II
    code:

        sum_l binom(20m-4l, nu-4m-4l) A_{4m+4l}
            = binom(24m, nu) (2^(nu-12m) - 1) - delta(24m, nu)

    for each requested nu in (20m-4, 24m], optionally extended with the
    2m-1 symmetry rows A_{4m+4l} = A_{20m-4l}."""
    ep = ExtremalParams(m)
    unknowns = ep.unknown_indices
    pos = {u: i for i, u in enumerate(unknowns)}
    rows, rhs, labels, widths = [], [], [], extremal_relation_range(m)
    for nu in nu_set:
        if nu not in widths:
            raise RangeViolationError(
                f"nu={nu} outside ({20 * m - 4}, {24 * m}]")
        rows.append([binom(20 * m - 4 * l, nu - 4 * m - 4 * l)
                     for l in range(1, 4 * m)])
        rhs.append(binom(24 * m, nu) * (2 ** (nu - 12 * m) - 1)
                   - kronecker_delta(24 * m, nu))
        labels.append(nu)
    if include_symmetry:
        for l in range(1, 2 * m):
            row = [0] * len(unknowns)
            row[pos[4 * m + 4 * l]] += 1
            row[pos[20 * m - 4 * l]] -= 1
            rows.append(row)
            rhs.append(0)
            labels.append(f"sym A_{4 * m + 4 * l}=A_{20 * m - 4 * l}")
    return MomentSystem("extremal", RationalMatrix.from_rows(rows, cols=len(unknowns)),
                        tuple(rhs), tuple(labels), unknowns, None)


def extremal_distribution(m: int) -> WeightDistribution:
    """Full distribution of a [24m, 12m, 4m+4] extremal type II code.

    Solves the relations of the 4m-1 largest widths, then verifies the
    solution against every relation width and the symmetry pattern.  Width
    nu's entry at A_u is binom(24m-u, 24m-nu): binom(x, j) at the node
    x = 24m - u and the degree j = 24m - nu.  The degrees are 0..4m-2 and the
    nodes are distinct, so every minor is nonzero and the selection is solved
    exactly by binomial interpolation."""
    ep = ExtremalParams(m)
    unknowns = ep.unknown_indices
    widths = range(20 * m + 2, 24 * m + 1)
    x = binomial_interpolation([ep.n - u for u in unknowns], [ep.n - nu for nu in widths],
                               extremal_system(m, widths).rhs)
    counts = [0] * (ep.n + 1)
    counts[0] = counts[ep.n] = 1
    for u, v in zip(unknowns, x):
        if v.denominator != 1 or v < 0:
            raise SingularSelectionError(
                f"selection {tuple(widths)} solved to invalid count A_{u} = {v}")
        counts[u] = int(v)
    dist = WeightDistribution(tuple(counts), 2, ep.k)
    _verify_extremal(m, dist)
    return dist


def _verify_extremal(m: int, dist: WeightDistribution) -> None:
    full = extremal_system(m, list(extremal_relation_range(m)), include_symmetry=True)
    vec = [dist.counts[u] for u in full.col_labels]
    got = full.matrix.matvec(vec)
    for label, lhs, rhs in zip(full.row_labels, got, full.rhs):
        if lhs != rhs:
            raise SingularSelectionError(
                f"solved distribution violates relation {label!r}")
    if dist.total() != 2 ** (12 * m):
        raise SingularSelectionError("solved distribution has wrong total")


# ---------------------------------------------------------------------------
# Reed-Solomon fixture generator
# ---------------------------------------------------------------------------

def reed_solomon_code(field: Field, n: int, k: int) -> LinearCode:
    """Evaluation code of polynomials of degree < k at n distinct field
    elements, extended with the point at infinity when n = q+1; an
    [n, k, n-k+1] MDS code.  Test fixture for comparing the closed form
    against the enumeration oracle."""
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
