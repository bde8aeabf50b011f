"""Linear codes over GF(q): construction, duality, exhaustive weight
enumeration (the ground-truth oracle), parameter extraction, and the
MacWilliams transform used to obtain the dual distance without enumerating
the dual code.

This module imports only `errors` when it loads.  `matrices` is imported
by the functions that build or reduce a matrix (`LinearCode()` and
`random_code`), and `enumeration` on the first weight distribution, so the
parameters, distributions and MacWilliams transform that the moment systems
and closed forms read load neither.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Optional

from .errors import (
    DEFAULT_BUDGET,
    NonIntegralResultError,
    RankDeficientGeneratorError,
    Value,
    ZeroCodeError,
    require_ints,
)

if TYPE_CHECKING:
    from .fields import Field
    from .matrices import GFMatrix

enumeration = None  # bound on first use, so that solving moment systems never loads it


class CodeParameters(Value):
    """The scalar invariants [n, k, d]_q plus the dual distance and the sum
    of the two Singleton defects.  Construction checks the Singleton bounds
    d <= n-k+1 and d_perp <= k+1, which also make every moment-system
    right-hand side an integer."""

    __slots__ = ("n", "k", "d", "d_perp", "q")
    n: int
    k: int
    d: int
    d_perp: int
    q: int

    def __init__(self, n: int, k: int, d: int, d_perp: int, q: int):
        require_ints(n=n, k=k, d=d, d_perp=d_perp, q=q)
        if not 1 <= k <= n:
            raise ValueError(f"need 1 <= k <= n, got n={n}, k={k}")
        if not 1 <= d <= n - k + 1:
            raise ValueError(f"need 1 <= d <= n-k+1 = {n - k + 1}, got d={d}")
        if not 1 <= d_perp <= k + 1:
            raise ValueError(f"need 1 <= d_perp <= k+1 = {k + 1}, got d_perp={d_perp}")
        if q < 2:
            raise ValueError(f"field order must be >= 2, got q={q}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "d_perp", d_perp)
        object.__setattr__(self, "q", q)

    @property
    def sigma(self) -> int:
        return self.n + 2 - self.d - self.d_perp


class WeightDistribution(Value):
    """Counts A_0..A_n of codewords per Hamming weight, as exact integers.

    Closed-form constructors may produce negative entries for unrealizable
    inputs, so the invariants (A_0 = 1, nonnegativity, sum q^k) are checked
    by validate() rather than at construction.
    """

    __slots__ = ("counts", "q", "k")
    counts: tuple[int, ...]
    q: int
    k: int

    def __init__(self, counts: tuple[int, ...], q: int, k: int):
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "k", k)

    @property
    def n(self) -> int:
        return len(self.counts) - 1

    def __getitem__(self, i: int) -> int:
        return self.counts[i]

    def total(self) -> int:
        return sum(self.counts)

    @property
    def min_weight(self) -> int:
        for i in range(1, len(self.counts)):
            if self.counts[i]:
                return i
        raise ZeroCodeError("no nonzero codeword; minimum weight undefined")

    def validate(self) -> None:
        if self.counts[0] != 1:
            raise ValueError(f"A_0 = {self.counts[0]}, expected 1")
        if any(c < 0 for c in self.counts):
            raise ValueError("negative weight count")
        if self.total() != self.q ** self.k:
            raise ValueError(f"counts sum to {self.total()}, expected {self.q ** self.k}")


class LinearCode:
    """An [n, k] code over GF(q), given by a full-rank generator matrix G.
    The parity-check matrix H is derived from it, as the kernel basis of G,
    and the dual code is the code that H generates.

    Immutable; the distribution and parameters are cached once computed.
    """

    def __init__(self, G: GFMatrix):
        from .matrices import gf_kernel_basis, gf_rank

        self.field = G.field
        self.G = G
        self.n = G.cols
        self.k = G.rows
        if gf_rank(G) != self.k:
            raise RankDeficientGeneratorError(f"generator has rank {gf_rank(G)} < {self.k} rows")
        self.H = gf_kernel_basis(G)
        self._distribution: Optional[WeightDistribution] = None

    def dual(self) -> "LinearCode":
        """The code generated by H; its own H is another basis of this code."""
        return LinearCode(self.H)

    def weight_distribution(self, budget: int | None = DEFAULT_BUDGET,
                            workers: int = 1) -> WeightDistribution:
        """Exact distribution by `weight_histogram`: the table enumeration,
        or for a high-rate code the syndrome count.  The distribution is
        cached, and `check_count` checks every call once, from the memoised
        rank: inside `weight_histogram` on the first, directly on a cached one."""
        global enumeration
        if enumeration is None:
            from . import enumeration
        if self._distribution is None:
            counts = enumeration.weight_histogram(self.G, budget, workers)
            dist = WeightDistribution(tuple(counts), self.field.q, self.k)
            dist.validate()
            self._distribution = dist
        else:
            enumeration.check_count(self.G, budget, workers)
        return self._distribution

    def parameters(self, budget: int | None = DEFAULT_BUDGET) -> CodeParameters:
        """n, k, d, the dual distance, and the defect sum.  The dual distance
        comes from the MacWilliams transform of the primal distribution, so
        no second enumeration is needed."""
        if self.k == 0:
            raise ZeroCodeError("the zero code has no nonzero codeword")
        if self.k == self.n:
            raise ZeroCodeError("the dual of the full space is the zero code")
        A = self.weight_distribution(budget)
        B = macwilliams_transform(A)
        return CodeParameters(n=self.n, k=self.k, d=A.min_weight,
                              d_perp=B.min_weight, q=self.field.q)

    def __repr__(self) -> str:
        return f"LinearCode([{self.n}, {self.k}] over {self.field!r})"


def _krawtchouk_matrix(n: int, q: int) -> list[list[int]]:
    """Rows K_0..K_n of the Krawtchouk values K_j(i) = sum_l (-1)^l
    binom(i, l) binom(n-i, j-l) (q-1)^(j-l), i = 0..n, in O(n^2) integer
    operations: K_0(i) = 1, K_j(0) = binom(n, j)(q-1)^j, and
    K_j(i) = K_j(i-1) - K_{j-1}(i-1) - (q-1) K_{j-1}(i)."""
    K = [[1] * (n + 1)]
    for j in range(1, n + 1):
        prev = K[-1]
        row = [prev[0] * (n - j + 1) * (q - 1) // j]
        for i in range(1, n + 1):
            row.append(row[-1] - prev[i - 1] - (q - 1) * prev[i])
        K.append(row)
    return K


def macwilliams_transform(A: WeightDistribution) -> WeightDistribution:
    """Distribution of the dual code, B_j = q^{-k} sum_i A_i K_j(i).

    Raises NonIntegralResultError when the result is not a vector of
    nonnegative integers, which certifies the input was not the weight
    distribution of any [n, k]_q linear code.
    """
    n, q, k = A.n, A.q, A.k
    qk = q ** k
    counts = []
    for j, K_j in enumerate(_krawtchouk_matrix(n, q)):
        s = sum(a * K for a, K in zip(A.counts, K_j))
        if s % qk:
            raise NonIntegralResultError(
                f"B_{j} = {s}/{qk} is not an integer; invalid input distribution")
        bj = s // qk
        if bj < 0:
            raise NonIntegralResultError(
                f"B_{j} = {bj} is negative; invalid input distribution")
        counts.append(bj)
    return WeightDistribution(tuple(counts), q, n - k)


def random_code(field: Field, n: int, k: int, seed: int) -> LinearCode:
    """Uniformly sampled full-rank generator; deterministic for a seed."""
    from .matrices import GFMatrix, gf_rank

    require_ints(n=n, k=k)
    if not 0 < k < n:
        raise ValueError(f"need 0 < k < n, got k={k}, n={n}")
    rng = random.Random(seed)
    while True:
        rows = [[rng.randrange(field.q) for _ in range(n)] for _ in range(k)]
        G = GFMatrix.from_rows(field, rows)
        if gf_rank(G) == k:
            return LinearCode(G)
