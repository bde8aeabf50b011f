"""Linear codes over GF(q): construction, duality, exhaustive weight
enumeration (the ground-truth oracle), parameter extraction, and the
MacWilliams transform used to obtain the dual distance without enumerating
the dual code.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional

from .errors import (
    DEFAULT_BUDGET,
    NonIntegralResultError,
    RankDeficientGeneratorError,
    ZeroCodeError,
)
from .matrices import GFMatrix, gf_kernel_basis, gf_matmul, gf_rank

if TYPE_CHECKING:
    from .fields import Field

enumeration = None  # bound on first use, so that solving moment systems never loads it


def require_ints(**values) -> None:
    """Raise ValueError naming the first value that is not an int.  A bool is
    refused although it is one, so that True is never taken for the count 1."""
    for name, v in values.items():
        if isinstance(v, bool) or not isinstance(v, int):
            raise ValueError(f"{name} must be an integer, got {v!r}")


@dataclass(frozen=True)
class CodeParameters:
    """The scalar invariants [n, k, d]_q plus the dual distance and the sum
    of the two Singleton defects.  Construction checks the Singleton bounds
    d <= n-k+1 and d_perp <= k+1, which also make every moment-system
    right-hand side an integer."""

    n: int
    k: int
    d: int
    d_perp: int
    q: int

    def __post_init__(self):
        require_ints(n=self.n, k=self.k, d=self.d, d_perp=self.d_perp, q=self.q)
        n, k, d, dp = self.n, self.k, self.d, self.d_perp
        if not 1 <= k <= n:
            raise ValueError(f"need 1 <= k <= n, got n={n}, k={k}")
        if not 1 <= d <= n - k + 1:
            raise ValueError(f"need 1 <= d <= n-k+1 = {n - k + 1}, got d={d}")
        if not 1 <= dp <= k + 1:
            raise ValueError(f"need 1 <= d_perp <= k+1 = {k + 1}, got d_perp={dp}")
        if self.q < 2:
            raise ValueError(f"field order must be >= 2, got q={self.q}")

    @property
    def sigma(self) -> int:
        return self.n + 2 - self.d - self.d_perp


@dataclass(frozen=True)
class WeightDistribution:
    """Counts A_0..A_n of codewords per Hamming weight, as exact integers.

    Closed-form constructors may produce negative entries for unrealizable
    inputs, so the invariants (A_0 = 1, nonnegativity, sum q^k) are checked
    by validate() rather than at construction.
    """

    counts: tuple[int, ...]
    q: int
    k: int

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
    """An [n, k] code over GF(q), held as a full-rank generator matrix G and
    a full-rank parity-check matrix H with G H^T = 0.

    Immutable; the distribution and parameters are cached once computed.
    """

    def __init__(self, G: GFMatrix, H: Optional[GFMatrix] = None, check: bool = True):
        self.field = G.field
        self.G = G
        self.H = gf_kernel_basis(G) if H is None else H
        self.n = G.cols
        self.k = G.rows
        if check:
            if gf_rank(self.G) != self.k:
                raise RankDeficientGeneratorError(
                    f"generator has rank {gf_rank(self.G)} < {self.k} rows")
            if self.H.cols != self.n or self.H.rows != self.n - self.k:
                raise ValueError("parity-check shape mismatch")
            if H is not None and gf_rank(H) != self.n - self.k:
                raise ValueError(f"parity-check rank {gf_rank(H)} < {self.n - self.k} rows")
            prod = gf_matmul(self.G, self.H.transpose())
            if any(any(r) for r in prod.entries):
                raise ValueError("G H^T != 0")
        self._distribution: Optional[WeightDistribution] = None

    def dual(self) -> "LinearCode":
        return LinearCode(self.H, self.G, check=False)

    def codewords(self) -> Iterator[tuple[int, ...]]:
        """All q^k codewords, for small-code tests and demos."""
        f, k = self.field, self.k
        msg = [0] * k
        while True:
            yield tuple(self._encode(msg))
            i = k - 1
            while i >= 0 and msg[i] == f.q - 1:
                msg[i] = 0
                i -= 1
            if i < 0:
                return
            msg[i] += 1

    def _encode(self, msg) -> list[int]:
        f = self.field
        out = [0] * self.n
        for mi, row in zip(msg, self.G.entries):
            if mi:
                for j, e in enumerate(row):
                    if e:
                        out[j] = f.add(out[j], f.mul(mi, e))
        return out

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
    require_ints(n=n, k=k)
    if not 0 < k < n:
        raise ValueError(f"need 0 < k < n, got k={k}, n={n}")
    rng = random.Random(seed)
    while True:
        rows = [[rng.randrange(field.q) for _ in range(n)] for _ in range(k)]
        G = GFMatrix.from_rows(field, rows)
        if gf_rank(G) == k:
            return LinearCode(G, check=False)
