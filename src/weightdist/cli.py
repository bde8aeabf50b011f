"""Command-line surface for batch computation and verification.

Exit codes: 0 success / all checks pass; 1 mathematical failure (singular,
inconsistent, non-integral, negative); 2 input error; 3 budget exceeded.
All integers are emitted as decimal strings in JSON and in full in tables;
nothing is ever rounded.

Every command reads a code file or writes its result through `fileio`, so
`codes`, `errors` and `fileio` load with this module; each command imports
what else it runs, so that it loads no module of the package that it does
not run.  `matrices` loads only where a code file is read or a matrix
built, so `solve`, `crosscheck`, `mds`, `nmds`, `amds` and `extremal` load
neither it nor `fractions`; `pless-report`, which ranks the two systems'
matrices, loads both.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from dataclasses import asdict
from pathlib import Path

from .codes import CodeParameters, WeightDistribution, macwilliams_transform
from .errors import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    CodeFileFormatError,
    InconsistentKnownsError,
    NegativeEntryError,
    NegativeSolutionError,
    NonIntegralResultError,
    NonIntegralSolutionError,
    SingularMatrixError,
    WeightDistError,
    ZeroCodeError,
)
from .fileio import (
    census_to_json,
    distribution_from_json,
    distribution_to_json,
    dumps,
    format_code_file,
    knowns_from_json,
    parse_code_file,
)

EXIT_OK = 0
EXIT_MATH = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3

_MATH_ERRORS = (
    SingularMatrixError,
    InconsistentKnownsError,
    NonIntegralSolutionError,
    NegativeSolutionError,
    NegativeEntryError,
    NonIntegralResultError,
    ZeroCodeError,
)


def _emit(args, text: str) -> None:
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)


def _render_counts(args, columns: dict[str, tuple[int, ...]],
                   extra: dict | None = None) -> str:
    """Count columns indexed by i as csv, or as a table followed by the
    `extra` lines; in the table every column but the last is right-aligned."""
    names, cols = list(columns), list(columns.values())
    rows = [(str(i), *map(str, r)) for i, r in enumerate(zip(*cols))]
    if args.format == "csv":
        lines = [",".join(["i", *names])] + [",".join(r) for r in rows]
    else:
        table = [("i", *names), *rows]
        widths = [max(len(str(len(rows) - 1)), 2)]
        widths += [max(len(r[c]) for r in table) for c in range(1, len(names))]
        lines = ["  ".join([*(cell.rjust(w) for cell, w in zip(r, widths)), r[-1]])
                 for r in table]
        if extra:
            lines.extend(f"{k} = {v}" for k, v in extra.items())
    return "\n".join(lines) + "\n"


def _render_distribution(args, dist: WeightDistribution,
                         extra: dict | None = None) -> str:
    if args.format == "json":
        return dumps(distribution_to_json(dist, extra))
    return _render_counts(args, {"A_i": dist.counts}, extra)


def _positive_int(text: str) -> int:
    """argparse type for a count flag: a decimal integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _load_code(path: str):
    return parse_code_file(Path(path).read_text())


def _load_json_arg(text: str):
    """Inline JSON if it looks like it, else a file path."""
    s = text.strip()
    if s.startswith("{") or s.startswith("["):
        return json.loads(s)
    return json.loads(Path(text).read_text())


def _require_same_code(A: WeightDistribution, what: str, n: int, k: int, q: int) -> None:
    """An input error unless the distribution object is for an [n, k]_q code."""
    if (A.n, A.k, A.q) != (n, k, q):
        raise CodeFileFormatError(
            f"{what} is for [{A.n}, {A.k}]_{A.q}, the code is [{n}, {k}]_{q}")


def _knowns_from_args(args, params: CodeParameters) -> dict[int, int]:
    """The --knowns map; a full distribution object must be for the code that
    the parameters describe."""
    obj = _load_json_arg(args.knowns)
    if isinstance(obj, dict) and "A" in obj:
        _require_same_code(distribution_from_json(obj), "the --knowns distribution",
                           params.n, params.k, params.q)
    return knowns_from_json(obj)


def _params_from_args(args) -> CodeParameters:
    if args.code:
        return _load_code(args.code).parameters(budget=args.budget)
    missing = [f for f in ("n", "k", "q", "d", "dperp") if getattr(args, f) is None]
    if missing:
        raise CodeFileFormatError(
            f"give --code or all of --n --k --q --d --dperp (missing {missing})")
    return CodeParameters(n=args.n, k=args.k, d=args.d, d_perp=args.dperp, q=args.q)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_enumerate(args) -> int:
    code = _load_code(args.codefile)
    dist = code.weight_distribution(budget=args.budget, workers=args.workers)
    extra = {}
    try:
        p = code.parameters(budget=args.budget)
        extra = {"d": p.d, "d_perp": p.d_perp, "sigma": p.sigma}
    except ZeroCodeError:
        pass  # degenerate k = 0 or k = n: distribution still valid
    _emit(args, _render_distribution(args, dist, extra))
    return EXIT_OK


def cmd_dual(args) -> int:
    code = _load_code(args.codefile)
    _emit(args, format_code_file(code.dual()))
    return EXIT_OK


def cmd_census(args) -> int:
    from .rank_census import census

    code = _load_code(args.codefile)
    M = code.G if args.matrix == "g" else code.H
    cen = census(M, args.nu, budget=args.budget)
    ranks = sorted(cen.counts.items())
    if args.format == "json":
        _emit(args, dumps(census_to_json(cen)))
    elif args.format == "csv":
        _emit(args, "".join(f"{r},{c}\n" for r, c in [("rank", "count"), *ranks]))
    else:
        _emit(args, "".join([f"nu = {cen.nu}\n", *(f"rank {r}: {c}\n" for r, c in ranks)]))
    return EXIT_OK


def _trivial_plus_seed_knowns(A: WeightDistribution, params: CodeParameters) -> dict[int, int]:
    """A_0..A_{d-1}, then the next counts up to n + 1 - d_perp knowns."""
    return {i: A.counts[i] for i in range(max(params.d, params.n + 1 - params.d_perp))}


def cmd_verify(args) -> int:
    from .moments import cross_check_systems, verify_pless_full
    from .rank_census import check_full_rank_regime, verify_counting_identity

    code = _load_code(args.codefile)
    if args.inject_distribution:
        A = distribution_from_json(_load_json_arg(args.inject_distribution))
        _require_same_code(A, "injected distribution", code.n, code.k, code.field.q)
    else:
        A = code.weight_distribution(budget=args.budget, workers=args.workers)
    which = args.which
    results: list[tuple[str, bool, str]] = []

    def run(name: str, fn) -> None:
        try:
            ok, detail = fn()
        except BudgetExceededError:
            raise
        except WeightDistError as e:
            ok, detail = False, f"{type(e).__name__}: {e}"
        results.append((name, ok, detail))

    if which in ("identity", "all"):
        def check_identity():
            for nu in range(1, code.n + 1):
                lhs, rhs, ok = verify_counting_identity(code, A, nu, budget=args.budget)
                if not ok:
                    return False, f"nu={nu}: {lhs} != {rhs}"
            return True, f"all nu in 1..{code.n}"
        run("identity", check_identity)
    if which in ("pless", "all"):
        def check_pless():
            B = macwilliams_transform(A)
            for nu in range(0, code.n + 1):
                lhs, rhs, ok = verify_pless_full(A, B, nu)
                if not ok:
                    return False, f"nu={nu}: {lhs} != {rhs}"
            return True, f"all nu in 0..{code.n}"
        run("pless", check_pless)
    if which in ("regime", "all"):
        def check_regime():
            params = code.parameters(budget=args.budget)
            for nu in range(code.n - params.d_perp + 1, code.n + 1):
                if not check_full_rank_regime(code, nu, d_perp=params.d_perp,
                                              budget=args.budget):
                    return False, f"nu={nu} not concentrated at rank n-k"
            return True, f"all nu > {code.n - params.d_perp}"
        run("regime", check_regime)
    if which in ("crosscheck", "all"):
        def check_crosscheck():
            params = code.parameters(budget=args.budget)
            knowns = _trivial_plus_seed_knowns(A, params)
            ap, al, agree = cross_check_systems(params, knowns)
            if not agree:
                return False, "system solutions differ"
            if ap.counts != A.counts:
                return False, "solutions differ from the enumerated distribution"
            return True, "both systems reproduce the enumerated distribution"
        run("crosscheck", check_crosscheck)

    if args.format == "json":
        _emit(args, dumps({name: {"pass": ok, "detail": detail} for name, ok, detail in results}))
    elif args.format == "csv":
        import csv  # here, so that no other command or format pays for the import

        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["check", "pass", "detail"])
        writer.writerows((name, str(ok).lower(), detail) for name, ok, detail in results)
        _emit(args, out.getvalue())
    else:
        width = max(len(n) for n, _, _ in results)
        _emit(args, "".join(f"{name:<{width}}  {'PASS' if ok else 'FAIL'}  {detail}\n"
                            for name, ok, detail in results))
    return EXIT_OK if all(ok for _, ok, _ in results) else EXIT_MATH


def cmd_solve(args) -> int:
    from .moments import build_pascal_system, build_pless_system, solve_with_knowns

    params = _params_from_args(args)
    knowns = _knowns_from_args(args, params)
    build = build_pascal_system if args.system == "pascal" else build_pless_system
    _emit(args, _render_distribution(args, solve_with_knowns(build(params), knowns)))
    return EXIT_OK


def cmd_crosscheck(args) -> int:
    from .moments import cross_check_systems

    params = _params_from_args(args)
    knowns = _knowns_from_args(args, params)
    ap, al, agree = cross_check_systems(params, knowns)
    if args.format == "json":
        _emit(args, dumps({
            "pascal": distribution_to_json(ap),
            "pless": distribution_to_json(al),
            "agree": agree,
        }))
    else:
        _emit(args, _render_counts(args, {"pascal": ap.counts, "pless": al.counts},
                                   {"agree": "yes" if agree else "no"}))
    return EXIT_OK if agree else EXIT_MATH


def cmd_mds(args) -> int:
    from .closed_forms import mds_distribution

    _emit(args, _render_distribution(args, mds_distribution(args.n, args.k, args.q)))
    return EXIT_OK


def cmd_nmds(args) -> int:
    from .closed_forms import check_nonnegative, nmds_distribution

    dist = nmds_distribution(args.n, args.k, args.q, args.a_d)
    check_nonnegative(dist.counts, f"A_{args.n - args.k} = {args.a_d} matches no "
                                   f"[{args.n},{args.k},{args.n - args.k}]_{args.q} code")
    _emit(args, _render_distribution(args, dist))
    return EXIT_OK


def cmd_amds(args) -> int:
    from .closed_forms import AmdsInput, amds_distribution

    seeds = tuple(int(s) for s in args.seeds.split(","))
    dist = amds_distribution(AmdsInput(args.n, args.k, args.q, args.sigma, seeds))
    _emit(args, _render_distribution(args, dist))
    return EXIT_OK


def cmd_extremal(args) -> int:
    from .closed_forms import extremal_distribution

    _emit(args, _render_distribution(args, extremal_distribution(args.m, args.budget)))
    return EXIT_OK


def cmd_pless_report(args) -> int:
    from .moments import rank_relationship_report

    obj = asdict(rank_relationship_report(_params_from_args(args)))
    _emit(args, dumps(obj) if args.format == "json" else
          f"{','.join(obj)}\n{','.join(map(str, obj.values()))}\n" if args.format == "csv" else
          "".join(f"{k} = {v}\n" for k, v in obj.items()))
    return EXIT_OK


def cmd_fixtures(args) -> int:
    """Write the NMDS [8,4]_4 codes and distributions, extremal m = 1 files, MDS and NMDS tables."""
    from .closed_forms import (extremal_distribution, extremal_system, mds_distribution,
                               nmds_distribution)
    from .matrices import solve_exact
    from .reference import nmds_844_codes

    outdir = Path(args.output or "fixtures")
    outdir.mkdir(parents=True, exist_ok=True)
    a, b = nmds_844_codes()
    (outdir / "nmds_844_a.code").write_text(format_code_file(a))
    (outdir / "nmds_844_b.code").write_text(format_code_file(b))
    (outdir / "nmds_844_a.dist.json").write_text(
        dumps(distribution_to_json(a.weight_distribution(budget=args.budget))))
    (outdir / "nmds_844_b.dist.json").write_text(
        dumps(distribution_to_json(b.weight_distribution(budget=args.budget))))

    reports = {}
    for name, nus in (("independent", [22, 24]), ("dependent", [23, 24])):
        S = extremal_system(1, nus, include_symmetry=True)
        entry: dict = {"relation_widths": nus, "symmetry_rows": 1}
        try:
            x = solve_exact(S.matrix, S.rhs)
            entry["solution"] = {str(u): str(v) for u, v in zip(S.col_labels, x)}
        except SingularMatrixError as e:
            entry["singular"] = True
            entry["rank"] = e.rank
            entry["kernel_vector"] = [str(v) for v in e.kernel_vector]
        reports[name] = entry
    (outdir / "extremal_m1_systems.json").write_text(dumps(reports))
    (outdir / "extremal_m1.dist.json").write_text(
        dumps(distribution_to_json(extremal_distribution(1))))

    mds_table = {}
    for q in (4, 5, 7, 8, 9):
        for k in range(1, q + 1):
            d = mds_distribution(q, k, q)
            mds_table[f"[{q},{k}]_{q}"] = [str(c) for c in d.counts]
    (outdir / "mds_table.json").write_text(dumps(mds_table))

    nmds_table = {
        "[8,4,4]_4 A_4=27": [str(c) for c in nmds_distribution(8, 4, 4, 27).counts],
        "[8,4,4]_4 A_4=30": [str(c) for c in nmds_distribution(8, 4, 4, 30).counts],
    }
    (outdir / "nmds_table.json").write_text(dumps(nmds_table))
    sys.stdout.write(f"fixtures written to {outdir}\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    # every command takes --output, and --format and the count flags only
    # where it reads them
    def output_flags(default_format: str | None) -> argparse.ArgumentParser:
        flags = argparse.ArgumentParser(add_help=False)
        if default_format:
            flags.add_argument("--format", choices=("json", "csv", "table"), default=default_format)
        flags.add_argument("--output", help="write to this path instead of stdout")
        return flags

    common, output = output_flags("json"), output_flags(None)
    budget, workers = (argparse.ArgumentParser(add_help=False) for _ in range(2))
    budget.add_argument("--budget", type=_positive_int, default=DEFAULT_BUDGET,
                        help="max element operations of each enumeration, census or "
                             "extremal solve, counted on the route it takes (default 1e9)")
    workers.add_argument("--workers", type=_positive_int, default=1,
                         help="parallel workers for enumeration, capped at the core count")

    params_help = argparse.ArgumentParser(add_help=False)
    params_help.add_argument("--code", help="code file to derive parameters from")
    params_help.add_argument("--n", type=int)
    params_help.add_argument("--k", type=int)
    params_help.add_argument("--q", type=int)
    params_help.add_argument("--d", type=int)
    params_help.add_argument("--dperp", type=int)

    p = argparse.ArgumentParser(
        prog="weightdist",
        description="Exact weight distributions of linear codes over finite fields.")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("enumerate", parents=[budget, workers, common],
                       help="brute-force distribution and parameters of a code file")
    s.add_argument("codefile")
    s.set_defaults(func=cmd_enumerate)

    s = sub.add_parser("dual", parents=[output], help="emit the dual code file")
    s.add_argument("codefile")
    s.set_defaults(func=cmd_dual)

    s = sub.add_parser("census", parents=[budget, common],
                       help="rank census of the parity-check (or generator) columns")
    s.add_argument("codefile")
    s.add_argument("--nu", type=int, required=True)
    s.add_argument("--matrix", choices=("h", "g"), default="h")
    s.set_defaults(func=cmd_census)

    # verify alone prints a table unless told otherwise
    s = sub.add_parser("verify", parents=[budget, workers, output_flags("table")],
                       help="run consistency checks against the enumeration oracle")
    s.add_argument("codefile")
    s.add_argument("--which", choices=("identity", "pless", "regime", "crosscheck", "all"),
                   default="all")
    s.add_argument("--inject-distribution",
                   help="JSON distribution to check instead of the enumerated one "
                        "(negative testing)")
    s.set_defaults(func=cmd_verify)

    s = sub.add_parser("solve", parents=[budget, common, params_help],
                       help="recover a distribution from known weights")
    s.add_argument("--knowns", required=True,
                   help='JSON map {"i": "A_i"} (inline or a file path); '
                        "a full distribution object is accepted too")
    s.add_argument("--system", choices=("pascal", "pless"), default="pascal")
    s.set_defaults(func=cmd_solve)

    s = sub.add_parser("crosscheck", parents=[budget, common, params_help],
                       help="solve both systems and compare")
    s.add_argument("--knowns", required=True)
    s.set_defaults(func=cmd_crosscheck)

    s = sub.add_parser("mds", parents=[common], help="closed-form MDS distribution")
    s.add_argument("n", type=int)
    s.add_argument("k", type=int)
    s.add_argument("q", type=int)
    s.set_defaults(func=cmd_mds)

    s = sub.add_parser("nmds", parents=[common],
                       help="closed-form near-MDS distribution from A_d")
    s.add_argument("n", type=int)
    s.add_argument("k", type=int)
    s.add_argument("q", type=int)
    s.add_argument("a_d", type=int)
    s.set_defaults(func=cmd_nmds)

    s = sub.add_parser("amds", parents=[common],
                       help="closed-form almost-MDS distribution from seed weights")
    s.add_argument("n", type=int)
    s.add_argument("k", type=int)
    s.add_argument("q", type=int)
    s.add_argument("sigma", type=int)
    s.add_argument("seeds", help="comma-separated A_{n-k},...,A_{n-k+sigma-2}")
    s.set_defaults(func=cmd_amds)

    s = sub.add_parser("extremal", parents=[budget, common],
                       help="distribution of a [24m,12m,4m+4] type II code")
    s.add_argument("m", type=int)
    s.set_defaults(func=cmd_extremal)

    s = sub.add_parser("pless-report", parents=[budget, common, params_help],
                       help="ranks of the two moment systems and their stack")
    s.set_defaults(func=cmd_pless_report)

    s = sub.add_parser("fixtures", parents=[budget, output],
                       help="regenerate golden files (default ./fixtures)")
    s.set_defaults(func=cmd_fixtures)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except _MATH_ERRORS as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_MATH
    except (WeightDistError, ValueError, OSError, json.JSONDecodeError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
