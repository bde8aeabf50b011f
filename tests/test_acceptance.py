"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line
with its runtime (run with -s to see them as they complete).

The shared corpus fixture provides >= 100 seeded random codes over GF(q),
q in {2,3,4,5}, n <= 10, with cheaply enumerable duals.
"""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from gf_oracle import matvec

from weightdist.rank_census import census, check_full_rank_regime, verify_counting_identity
from weightdist.cli import main
from weightdist.closed_forms import (
    AmdsInput,
    amds_distribution,
    extremal_distribution,
    extremal_system,
    mds_distribution,
    nmds_distribution,
    reed_solomon_code,
)
from weightdist.codes import macwilliams_transform, random_code
from weightdist.corpus import find_amds_specimens
from weightdist.errors import NegativeEntryError, SingularMatrixError
from weightdist.fields import GF
from weightdist.fileio import format_code_file
from weightdist.matrices import binom, pascal_minor_check, solve_exact
from weightdist.moments import (
    build_pascal_system,
    cross_check_systems,
    solve_with_knowns,
    verify_pless_full,
)
from weightdist.reference import (
    NMDS_844_DISTRIBUTION_A,
    NMDS_844_DISTRIBUTION_B,
    nmds_844_codes,
)


class _Timer:
    def __init__(self, ident, limit=None):
        self.ident = ident
        self.limit = limit

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        dt = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        bound = f" [limit {self.limit}s]" if self.limit else ""
        print(f"criterion {self.ident}: {status} ({dt:.2f}s{bound})")
        if exc_type is None and self.limit is not None:
            assert dt < self.limit, f"criterion {self.ident} exceeded {self.limit}s ({dt:.2f}s)"
        return False


def _knowns_patterns(A, params):
    """Trivial knowns plus sigma-1 enumerated weights: a consecutive pattern
    and, whenever there is room for a gap, a spread (non-consecutive) one."""
    d, n, sigma = params.d, params.n, params.sigma
    trivial = {i: A.counts[i] for i in range(d)}
    need = sigma - 1
    consecutive = dict(trivial)
    for i in range(d, d + need):
        consecutive[i] = A.counts[i]
    patterns = [consecutive]
    if need >= 1 and (n - d + 1) > need:
        spread_idx = []
        i = d
        while len(spread_idx) < need and i <= n:
            spread_idx.append(i)
            i += 2
        j = n
        while len(spread_idx) < need:
            if j not in spread_idx:
                spread_idx.append(j)
            j -= 1
        spread = dict(trivial)
        for i in spread_idx:
            spread[i] = A.counts[i]
        if spread.keys() != consecutive.keys():
            patterns.append(spread)
    return patterns


def test_criterion_01_reference_enumeration(tmp_path, capsys):
    a, b = nmds_844_codes()
    fa, fb = tmp_path / "a.code", tmp_path / "b.code"
    fa.write_text(format_code_file(a))
    fb.write_text(format_code_file(b))
    t0 = time.perf_counter()
    outputs = []
    for path in (fa, fb):
        assert main(["enumerate", str(path)]) == 0
        outputs.append(capsys.readouterr().out)
    dt = time.perf_counter() - t0
    for out, expect in zip(outputs, (NMDS_844_DISTRIBUTION_A, NMDS_844_DISTRIBUTION_B)):
        assert tuple(int(c) for c in json.loads(out)["A"]) == expect
    with capsys.disabled():
        print(f"criterion 1: PASS ({dt:.2f}s [limit 1.0s])")
    assert dt < 1.0, f"criterion 1 exceeded 1s ({dt:.2f}s)"


def test_criterion_02_counting_identity(corpus):
    assert len(corpus) >= 100
    with _Timer(2, limit=120.0):
        for code in corpus:
            A = code.weight_distribution()
            for nu in range(1, code.n + 1):
                lhs, rhs, ok = verify_counting_identity(code, A, nu)
                assert ok, (code, nu, lhs, rhs)


def test_criterion_03_full_rank_regime(corpus):
    with _Timer(3):
        for code in corpus:
            d_perp = code.parameters().d_perp
            n, k = code.n, code.k
            for nu in range(n - d_perp + 1, n + 1):
                assert check_full_rank_regime(code, nu, d_perp=d_perp)
                assert census(code.H, nu).counts == {n - k: binom(n, nu)}


def test_criterion_04_mds_formula_vs_oracle():
    with _Timer(4, limit=60.0):
        for q in (4, 5, 7, 8, 9):
            field = GF(q)
            for n in range(1, q + 1):
                for k in range(1, n + 1):
                    rs = reed_solomon_code(field, n, k)
                    brute = rs.weight_distribution(budget=10 ** 9)
                    assert mds_distribution(n, k, q).counts == brute.counts, (n, k, q)


def test_criterion_05_nmds_formula():
    with _Timer(5):
        got27 = nmds_distribution(8, 4, 4, 27)
        got30 = nmds_distribution(8, 4, 4, 30)
        assert got27.counts == NMDS_844_DISTRIBUTION_A
        assert got30.counts == NMDS_844_DISTRIBUTION_B
        assert amds_distribution(AmdsInput(8, 4, 4, 2, (27,))).counts == got27.counts
        assert amds_distribution(AmdsInput(8, 4, 4, 2, (30,))).counts == got30.counts


def test_criterion_06_amds_formula_vs_oracle():
    with _Timer(6, limit=300.0):
        specimens = list(find_amds_specimens(sigma=3, count=5, seed=424242))
        assert len(specimens) >= 5
        for code, params in specimens:
            assert params.sigma == 3 and params.d == params.n - params.k
            A = code.weight_distribution()
            seeds = tuple(A.counts[params.d + h] for h in range(2))
            got = amds_distribution(
                AmdsInput(params.n, params.k, params.q, 3, seeds))
            assert got.counts == A.counts


def test_criterion_07_extremal():
    with _Timer(7):
        independent = extremal_system(1, [22, 24], include_symmetry=True)
        x = solve_exact(independent.matrix, independent.rhs)
        assert x == (Fraction(759), Fraction(2576), Fraction(759))

        dependent = extremal_system(1, [23, 24], include_symmetry=True)
        with pytest.raises(SingularMatrixError) as ei:
            solve_exact(dependent.matrix, dependent.rhs)
        assert ei.value.rank == 2

        for m in range(1, 6):
            dist = extremal_distribution(m)
            n = 24 * m
            assert dist.total() == 2 ** (12 * m)
            assert all(dist.counts[i] == dist.counts[n - i] for i in range(n + 1))
            widths = list(range(20 * m - 3, 24 * m + 1))
            assert len(widths) == 4 * m + 4
            full = extremal_system(m, widths, include_symmetry=True)
            vec = [dist.counts[u] for u in full.col_labels]
            assert matvec(full.matrix, vec) == full.rhs


def test_criterion_07_extremal_nonexistence_at_m_154():
    # Zhang's bound: no extremal type II code of length 24m exists for
    # m >= 154, and at m = 154 the solve certifies it with a negative A_624
    with _Timer("7 (m = 154)", limit=8.0):
        with pytest.raises(NegativeEntryError, match=r"^A_624 = -\d+ is negative; "
                           r"no \[3696,1848,620\] extremal type II code exists$"):
            extremal_distribution(154)


def test_criterion_08_moment_recovery(corpus):
    with _Timer(8):
        n_noncons = 0
        for code in corpus:
            params = code.parameters()
            A = code.weight_distribution()
            S = build_pascal_system(params)
            patterns = _knowns_patterns(A, params)
            if len(patterns) > 1:
                n_noncons += 1
            for knowns in patterns:
                got = solve_with_knowns(S, knowns)
                assert got.counts == A.counts, (code, sorted(knowns))
        assert n_noncons >= len(corpus) // 2  # non-consecutive widely exercised


def test_criterion_09_pless_equivalence(corpus):
    with _Timer(9):
        for code in corpus:
            params = code.parameters()
            A = code.weight_distribution()
            knowns = _knowns_patterns(A, params)[0]
            ap, al, agree = cross_check_systems(params, knowns)
            assert agree and ap.counts == A.counts
            B = macwilliams_transform(A)
            for nu in range(code.n + 1):
                lhs, rhs, ok = verify_pless_full(A, B, nu)
                assert ok, (code, nu, lhs, rhs)


def test_criterion_10_pascal_minors():
    with _Timer(10):
        for r in range(1, 6):
            for t in range(r - 1, 13):
                if t + 1 < r:
                    continue
                assert pascal_minor_check(r, t), (r, t)


def test_criterion_11_oracle_self_consistency(corpus):
    with _Timer(11):
        for code in corpus:
            via_transform = macwilliams_transform(code.weight_distribution())
            via_dual = code.dual().weight_distribution()
            assert via_transform.counts == via_dual.counts, code


# A fresh interpreter, so that its peak resident size is the census's own.
# It reads its own VmHWM (in kB): ru_maxrss would also carry the peak of the
# process that started it across the exec.
LARGE_CENSUS_SCRIPT = """
import json
from weightdist import GF, random_code, verify_counting_identity
code = random_code(GF(2), 24, 12, seed=2412)
ok = verify_counting_identity(code, code.weight_distribution(), 12)[2]
with open("/proc/self/status") as status:
    hwm_kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
print(json.dumps({"ok": ok, "maxrss_mb": hwm_kb / 1024}))
"""


def test_criterion_12_large_censuses():
    # nu = 12 of a [24,12]_2 (2.7 million subsets) in at most 64 MB, and
    # every width of a [20,10]_2; the identity reads each code's whole table
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    with _Timer(12, limit=5.0):
        proc = subprocess.run([sys.executable, "-c", LARGE_CENSUS_SCRIPT], env=env, cwd=root,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert out["ok"]
        assert out["maxrss_mb"] <= 64, out
        code = random_code(GF(2), 20, 10, seed=2010)
        A = code.weight_distribution()
        for nu in range(1, code.n + 1):
            lhs, rhs, ok = verify_counting_identity(code, A, nu)
            assert ok, (nu, lhs, rhs)
