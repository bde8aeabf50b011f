"""Seeded search for almost-MDS specimens.

find_amds_specimens draws random codes over GF(3), GF(4) and GF(5) of
length at most 10, with both q^k and q^(n-k) small enough to enumerate
cheaply, and keeps those with a requested defect sum, which is how concrete
sigma = 3 instances for the closed-form check are produced.
"""

from __future__ import annotations

import random
from typing import Iterator

from .codes import CodeParameters, LinearCode, random_code
from .fields import GF


def find_amds_specimens(sigma: int, count: int, seed: int
                        ) -> Iterator[tuple[LinearCode, CodeParameters]]:
    """Yield up to `count` random codes with Singleton defect exactly 1 and
    defect sum exactly `sigma` (so the dual distance is k - sigma + 2),
    among the first 200,000 draws."""
    rng = random.Random(seed)
    found = 0
    for _ in range(200_000):
        if found == count:
            return
        q = rng.choice((3, 4, 5))
        n = rng.randrange(5, 11)
        k = rng.choice([k for k in range(2, n - 1) if q ** max(k, n - k) <= 100_000])
        code = random_code(GF(q), n, k, seed=rng.randrange(2 ** 30))
        params = code.parameters()
        if params.d == n - k and params.sigma == sigma:
            found += 1
            yield code, params
