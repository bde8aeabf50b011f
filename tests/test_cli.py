import contextlib
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weightdist import cli, closed_forms, errors
from weightdist.cli import main
from weightdist.codes import WeightDistribution, random_code
from weightdist.fields import GF
from weightdist.fileio import (
    distribution_from_json,
    distribution_to_json,
    format_code_file,
    parse_code_file,
)
from weightdist.reference import (
    GOLAY_FREE_COUNTS,
    NMDS_844_DISTRIBUTION_A,
    nmds_844_codes,
)

from gf_oracle import same_codewords


@pytest.fixture(scope="module")
def code_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("codes")
    a, b = nmds_844_codes()
    fa = d / "a.code"
    fb = d / "b.code"
    fa.write_text(format_code_file(a))
    fb.write_text(format_code_file(b))
    return fa, fb


def run(capsys, *argv):
    rc = main([str(a) for a in argv])
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_enumerate_reference(code_files, capsys):
    fa, _ = code_files
    rc, out, _ = run(capsys, "enumerate", fa)
    assert rc == 0
    obj = json.loads(out)
    assert [int(c) for c in obj["A"]] == list(NMDS_844_DISTRIBUTION_A)
    assert (obj["d"], obj["d_perp"], obj["sigma"]) == (4, 4, 2)


def test_enumerate_malformed_header(tmp_path, capsys):
    bad = tmp_path / "bad.code"
    bad.write_text("order=4\n2 1\n1 1\n")
    rc, _, err = run(capsys, "enumerate", bad)
    assert rc == 2
    assert "q=p^m" in err


def test_enumerate_budget_exceeded(code_files, capsys):
    fa, _ = code_files
    rc, _, err = run(capsys, "enumerate", fa, "--budget", "100")
    assert rc == 3
    assert "budget" in err


@pytest.mark.parametrize("flags", [
    ("enumerate", "--workers", "0"), ("enumerate", "--workers", "-3"),
    ("enumerate", "--budget", "0"), ("enumerate", "--budget", "-5"),
    ("verify", "--budget", "-1"), ("enumerate", "--workers", "two"),
])
def test_count_flags_must_be_positive_integers(code_files, capsys, flags):
    fa, _ = code_files
    command, *flag = flags
    with pytest.raises(SystemExit) as exc:
        run(capsys, command, fa, *flag)
    assert exc.value.code == 2
    assert "expected a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("command, flags", [
    (["mds", "8", "4", "9"], ["--workers", "2"]),
    (["dual", "{code}"], ["--budget", "10"]),
    (["extremal", "1"], ["--workers", "2"]),
    (["census", "{code}", "--nu", "2"], ["--workers", "2"]),
    (["fixtures"], ["--workers", "2"]),
    # dual prints a code file and fixtures writes its files, in one format
    (["dual", "{code}"], ["--format", "json"]),
    (["fixtures"], ["--format", "csv"]),
])
def test_commands_refuse_count_flags_they_do_not_read(code_files, capsys, command, flags):
    fa, _ = code_files
    with pytest.raises(SystemExit) as exc:
        run(capsys, *(str(fa) if a == "{code}" else a for a in command), *flags)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_enumerate_formats(code_files, capsys):
    fa, _ = code_files
    rc, out, _ = run(capsys, "enumerate", fa, "--format", "csv")
    assert rc == 0 and out.splitlines()[0] == "i,A_i"
    rc, out, _ = run(capsys, "enumerate", fa, "--format", "table")
    assert rc == 0 and "A_i" in out.splitlines()[0]


def test_dual_roundtrips(code_files, capsys):
    fa, _ = code_files
    rc, out, _ = run(capsys, "dual", fa)
    assert rc == 0
    dual = parse_code_file(out)
    a, _ = nmds_844_codes()
    assert same_codewords(dual, a.dual())


def test_census_json(code_files, capsys):
    fa, _ = code_files
    rc, out, _ = run(capsys, "census", fa, "--nu", "8")
    assert rc == 0
    obj = json.loads(out)
    assert obj["counts"] == {"4": "1"}


def test_census_formats(code_files, capsys):
    fa, _ = code_files
    rc, out, _ = run(capsys, "census", fa, "--nu", "5", "--format", "csv")
    assert rc == 0 and out.splitlines() == ["rank,count", "4,56"]
    rc, out, _ = run(capsys, "census", fa, "--nu", "5", "--format", "table")
    assert rc == 0 and out.splitlines() == ["nu = 5", "rank 4: 56"]


def test_verify_all_passes(code_files, capsys):
    fa, fb = code_files
    for f in (fa, fb):
        rc, out, _ = run(capsys, "verify", f)
        assert rc == 0
        assert out.count("PASS") == 4 and "FAIL" not in out


def test_verify_corrupted_distribution_fails(code_files, capsys):
    fa, _ = code_files
    corrupted = distribution_to_json(
        WeightDistribution((1, 0, 0, 0, 28, 59, 78, 60, 30), q=4, k=4))
    rc, out, _ = run(capsys, "verify", fa, "--inject-distribution", json.dumps(corrupted))
    assert rc == 1
    assert "FAIL" in out


def test_verify_tells_the_two_nmds_codes_apart_by_the_census_alone(code_files, capsys):
    """Codes A and B share every parameter, so B's distribution passes every
    check on A but the census identity, which A's submatrix ranks decide."""
    fa, _ = code_files
    _, b = nmds_844_codes()
    injected = json.dumps(distribution_to_json(b.weight_distribution()))
    rc, out, _ = run(capsys, "verify", fa, "--inject-distribution", injected)
    assert rc == 1
    identity, *rest = out.splitlines()
    assert identity == "identity    FAIL  nu=4: 100 != 97"
    assert [line.split()[:2] for line in rest] == [
        ["pless", "PASS"], ["regime", "PASS"], ["crosscheck", "PASS"]]


def test_verify_honours_format(code_files, capsys):
    """verify prints its table by default; json prints one object of the
    checks, csv a header and one row per check, and the exit code is the
    same in every format, a failed check included."""
    fa, _ = code_files
    corrupted = json.dumps(distribution_to_json(
        WeightDistribution((1, 0, 0, 0, 28, 59, 78, 60, 30), q=4, k=4)))
    for extra, want_rc in (((), 0), (("--inject-distribution", corrupted), 1)):
        rc, table, _ = run(capsys, "verify", fa, *extra)
        assert rc == want_rc
        assert run(capsys, "verify", fa, *extra, "--format", "table") == (rc, table, "")
        rows = [line.split(None, 2) for line in table.splitlines()]
        assert [name for name, _, _ in rows] == ["identity", "pless", "regime", "crosscheck"]
        rc, out, _ = run(capsys, "verify", fa, *extra, "--format", "json")
        assert rc == want_rc
        assert json.loads(out) == {name: {"pass": verdict == "PASS", "detail": detail}
                                   for name, verdict, detail in rows}
        rc, out, _ = run(capsys, "verify", fa, *extra, "--format", "csv")
        assert rc == want_rc
        assert list(csv.reader(io.StringIO(out))) == [["check", "pass", "detail"]] + [
            [name, "true" if verdict == "PASS" else "false", detail]
            for name, verdict, detail in rows]


def test_budget_refusal_inside_verify_exits_3(code_files, capsys):
    """A check that the budget refuses is no failed check: verify exits 3,
    as census does on a refusal, and prints no check lines.  The identity
    reads the whole table; width 4 alone is the cheaper walk."""
    fa, _ = code_files
    injected = distribution_to_json(WeightDistribution(NMDS_844_DISTRIBUTION_A, q=4, k=4))
    for argv, route in ((["verify", fa, "--inject-distribution", json.dumps(injected)],
                         "whole census table"),
                        (["census", fa, "--nu", "4"], "census at width 4")):
        rc, out, err = run(capsys, *argv, "--budget", "1")
        assert rc == 3, argv
        assert out == ""
        assert err.startswith(f"error: {route} costs ")


def test_one_budget_covers_high_rate_codes_at_the_default(tmp_path, capsys):
    """A random [30,27]_2 code counts 8 syndromes and walks a census table
    of at most 435 nodes, so verify passes at the default budget; so does
    the enumeration of a random [80,72]_2 code over 256 syndromes, past the
    2^72 messages of its generator."""
    for n, k in ((30, 27), (80, 72)):
        path = tmp_path / f"{n}_{k}.code"
        path.write_text(format_code_file(random_code(GF(2), n, k, seed=n)))
        rc, out, _ = run(capsys, "enumerate", path)
        assert rc == 0
        assert sum(int(c) for c in json.loads(out)["A"]) == 2 ** k
    rc, out, _ = run(capsys, "verify", tmp_path / "30_27.code")
    assert rc == 0
    assert [line.split()[:2] for line in out.splitlines()] == [
        ["identity", "PASS"], ["pless", "PASS"], ["regime", "PASS"], ["crosscheck", "PASS"]]


def test_verify_walks_one_census_table_for_a_long_low_rate_code(tmp_path, capsys):
    """The 197-row H of a random [200,3]_2 code walks one whole census table
    on its 3-row kernel, 1 + 199 + 19,701 nodes of 200 columns and a tally
    of 4 * 201^2 additions, which every width reads; verify passes at the
    default budget, where 200 widths walked alone would exceed it."""
    path = tmp_path / "200_3.code"
    path.write_text(format_code_file(random_code(GF(2), 200, 3, seed=200)))
    rc, out, _ = run(capsys, "verify", path, "--which", "all")
    assert rc == 0
    assert [line.split()[:2] for line in out.splitlines()] == [
        ["identity", "PASS"], ["pless", "PASS"], ["regime", "PASS"], ["crosscheck", "PASS"]]


def test_enumerate_over_a_61_bit_prime_field(tmp_path, capsys):
    # deciding that the order is prime no longer takes trial division
    q = 2 ** 61 - 1
    path = tmp_path / "mersenne.code"
    path.write_text(f"q={q}\n4 1\n1 {q - 1} 0 12345\n")
    rc, out, _ = run(capsys, "enumerate", path)
    assert rc == 0
    assert json.loads(out)["A"] == ["1", "0", "0", str(q - 1), "0"]


def test_verify_rejects_injected_distribution_of_another_code(code_files, capsys):
    fa, _ = code_files  # an [8,4]_4 code
    shorter = WeightDistribution((1, 0, 0, 0, 255), q=4, k=4)
    other_field = WeightDistribution(NMDS_844_DISTRIBUTION_A, q=3, k=4)
    for dist in (shorter, other_field):
        rc, out, err = run(capsys, "verify", fa, "--inject-distribution",
                           json.dumps(distribution_to_json(dist)))
        assert rc == 2
        assert out == ""  # rejected before any check runs
        assert "injected distribution" in err


def test_verify_rejects_non_integer_injected_counts(code_files, capsys):
    fa, _ = code_files
    for A in ([True, False, 0, 0, 27, 72, 66, 60, 30], [1, 0, 0, 0, 27, 60, 78, 60, 30.0]):
        injected = json.dumps({"n": "8", "k": "4", "q": "4", "A": A})
        rc, out, err = run(capsys, "verify", fa, "--inject-distribution", injected)
        assert rc == 2
        assert out == "" and "CodeFileFormatError" in err


def test_solve_rejects_non_integer_knowns(capsys):
    for bad in ('0.9', 'true', '"0.9"', '"3 "'):
        rc, out, err = run(capsys, "solve", "--n", "8", "--k", "4", "--q", "5", "--d", "5",
                           "--dperp", "5", "--knowns", '{"0":"1","1":0,"2":0,"3":%s}' % bad)
        assert rc == 2, bad
        assert out == "" and "CodeFileFormatError" in err


@pytest.mark.parametrize("flags", [
    ("--n", "8", "--k", "4", "--q", "5", "--d", "5", "--dperp", "9"),  # d_perp > k+1
    ("--n", "8", "--k", "4", "--q", "5", "--d", "6", "--dperp", "5"),  # d > n-k+1
    ("--n", "4", "--k", "6", "--q", "5", "--d", "1", "--dperp", "1"),  # k > n
    ("--n", "8", "--k", "4", "--q", "1", "--d", "5", "--dperp", "5"),  # q < 2
    ("--n", "8", "--k", "4", "--q", "5", "--d", "0", "--dperp", "5"),  # d < 1
])
def test_invalid_code_parameters_are_input_errors(capsys, flags):
    for command in ("solve", "crosscheck"):
        rc, out, err = run(capsys, command, *flags, "--knowns", '{"0":"1"}')
        assert rc == 2, (command, flags)
        assert out == "" and "ValueError" in err


def test_solve_without_a_code_needs_every_parameter(capsys):
    rc, out, err = run(capsys, "solve", "--n", "8", "--k", "4", "--knowns", '{"0":"1"}')
    assert rc == 2 and out == ""
    assert err.rstrip().endswith("(missing ['q', 'd', 'dperp'])")


def test_solve_reference(code_files, capsys):
    fa, _ = code_files
    rc, out, _ = run(capsys, "solve", "--code", fa, "--knowns",
                     '{"0":"1","1":"0","2":"0","3":"0","4":"27"}')
    assert rc == 0
    obj = json.loads(out)
    assert [int(c) for c in obj["A"]] == list(NMDS_844_DISTRIBUTION_A)


def test_solve_params_flags_pless_system(capsys):
    rc, out, _ = run(capsys, "solve", "--n", "8", "--k", "4", "--q", "4",
                     "--d", "4", "--dperp", "4", "--system", "pless",
                     "--knowns", '{"0":"1","1":"0","2":"0","3":"0","4":"30"}')
    assert rc == 0
    obj = json.loads(out)
    assert [int(c) for c in obj["A"]] == [1, 0, 0, 0, 30, 48, 96, 48, 33]


def test_solve_too_few_knowns_is_input_error(capsys):
    rc, _, err = run(capsys, "solve", "--n", "8", "--k", "4", "--q", "4",
                     "--d", "4", "--dperp", "4", "--knowns", '{"0":"1"}')
    assert rc == 2
    assert "knowns" in err.lower()


def test_solve_inconsistent_knowns_is_math_error(capsys):
    rc, _, err = run(capsys, "solve", "--n", "8", "--k", "4", "--q", "4",
                     "--d", "4", "--dperp", "4",
                     "--knowns", '{"0":"1","1":"0","2":"0","3":"0","4":"27","8":"31"}')
    assert rc == 1


def test_solve_negative_solution_is_math_error(capsys):
    rc, _, err = run(capsys, "solve", "--n", "8", "--k", "4", "--q", "4",
                     "--d", "4", "--dperp", "4",
                     "--knowns", '{"0":"1","1":"0","2":"0","3":"0","4":"60"}')
    assert rc == 1


def test_distribution_roundtrips_into_solve(code_files, capsys, tmp_path):
    # enumerate output is directly consumable as knowns
    fa, _ = code_files
    rc, out, _ = run(capsys, "enumerate", fa)
    assert rc == 0
    knowns_file = tmp_path / "knowns.json"
    knowns_file.write_text(out)
    rc, out2, _ = run(capsys, "solve", "--code", fa, "--knowns", knowns_file)
    assert rc == 0
    assert json.loads(out2)["A"] == json.loads(out)["A"]


@pytest.mark.parametrize("command", ["solve", "crosscheck"])
def test_knowns_distribution_of_another_code_is_input_error(capsys, command):
    # a full distribution object names its code; a mismatch with the
    # parameters is an input error, not a nonexistence certificate
    rc, mds_849, _ = run(capsys, "mds", "8", "4", "9")
    assert rc == 0
    params = ("--n", "8", "--k", "4", "--q", "5", "--d", "5", "--dperp", "5")
    rc, out, err = run(capsys, command, *params, "--knowns", mds_849)
    assert rc == 2
    assert out == "" and "CodeFileFormatError" in err and "--knowns" in err
    rc, out, _ = run(capsys, command, *params[:5], "9", *params[6:], "--knowns", mds_849)
    assert rc == 0


def test_crosscheck_agrees(code_files, capsys):
    fa, _ = code_files
    rc, out, _ = run(capsys, "crosscheck", "--code", fa, "--knowns",
                     '{"0":"1","1":"0","2":"0","3":"0","4":"27"}')
    assert rc == 0
    obj = json.loads(out)
    assert obj["agree"] is True
    assert obj["pascal"]["A"] == obj["pless"]["A"]


KNOWNS_844 = '{"0":"1","1":"0","2":"0","3":"0","4":"27"}'
PARAMS_844 = ("--n", "8", "--k", "4", "--q", "4", "--d", "4", "--dperp", "4")


def test_crosscheck_honours_format(capsys):
    rc, out, _ = run(capsys, "crosscheck", *PARAMS_844, "--knowns", KNOWNS_844,
                     "--format", "table")
    assert rc == 0
    assert out.splitlines() == [
        " i  pascal  pless",
        " 0       1  1", " 1       0  0", " 2       0  0", " 3       0  0",
        " 4      27  27", " 5      60  60", " 6      78  78", " 7      60  60",
        " 8      30  30", "agree = yes"]
    rc, out, _ = run(capsys, "crosscheck", *PARAMS_844, "--knowns", KNOWNS_844,
                     "--format", "csv")
    assert rc == 0
    assert out.splitlines() == ["i,pascal,pless"] + [
        f"{i},{c},{c}" for i, c in enumerate(NMDS_844_DISTRIBUTION_A)]
    # the default stays the JSON object, key order included
    rc, out, _ = run(capsys, "crosscheck", *PARAMS_844, "--knowns", KNOWNS_844)
    assert rc == 0 and list(json.loads(out)) == ["pascal", "pless", "agree"]


# Every command reads or writes through fileio, which needs codes and errors;
# beside those each loads the modules of the package it runs, and reading a
# code file loads fields and matrices.
READ_WRITE = {"cli", "codes", "errors", "fileio"}
SOLVES = READ_WRITE | {"moments"}
CLOSED_FORMS = SOLVES | {"closed_forms"}
READS_CODE = READ_WRITE | {"fields", "matrices"}
ENUMERATES = READS_CODE | {"enumeration"}
# matrices imports fractions, which imports decimal
RATIONALS = ["decimal", "fractions"]
# what generating methods at start-up loads; numpy's own import loads inspect too
START_UP = ("dataclasses", "inspect")


def loaded_by(argv) -> tuple[list[str], list[str]]:
    """The modules of the package, and of numpy, the process pool, fractions,
    decimal, dataclasses and inspect, that one command loads in a new
    interpreter; it must exit 0."""
    script = f"""
import contextlib, io, json, sys
from weightdist.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main({[str(a) for a in argv]!r}) == 0
print(json.dumps([sorted(m[len("weightdist."):] for m in sys.modules
                         if m.startswith("weightdist.")),
                  sorted(m for m in ("numpy", "concurrent.futures.process", "fractions", "decimal",
                                     *{START_UP!r}) if m in sys.modules)]))
"""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", script], env=env, cwd=root,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_commands_that_do_not_enumerate_never_load_numpy():
    """Nor do the moment-system and closed-form commands load matrices or
    fractions: only pless-report, which ranks the systems' matrices.  None
    loads dataclasses or inspect."""
    for argv, modules, others in (
            (["crosscheck", *PARAMS_844, "--knowns", KNOWNS_844], SOLVES, []),
            (["solve", *PARAMS_844, "--knowns", KNOWNS_844], SOLVES, []),
            (["pless-report", *PARAMS_844], SOLVES | {"matrices"}, RATIONALS),
            (["mds", "7", "3", "8"], CLOSED_FORMS, []),
            (["nmds", "8", "4", "4", "27"], CLOSED_FORMS, []),
            (["amds", "8", "4", "4", "2", "30"], CLOSED_FORMS, []),
            (["extremal", "1"], CLOSED_FORMS, [])):
        assert loaded_by(argv) == [sorted(modules), others], argv[0]


def test_enumerating_commands_load_only_what_they_run(code_files):
    fa, _ = code_files
    for argv, modules in (
            (["enumerate", fa], ENUMERATES),
            (["dual", fa], READS_CODE),
            (["census", fa, "--nu", "4"], READS_CODE | {"rank_census"}),
            (["verify", fa], ENUMERATES | {"rank_census", "moments"})):
        loaded, others = loaded_by(argv)
        assert loaded == sorted(modules), argv[0]
        # inspect only under numpy, which imports it itself
        assert "dataclasses" not in others, argv[0]
        assert "inspect" not in others or "numpy" in others, argv[0]


def test_closed_form_commands(capsys):
    rc, out, _ = run(capsys, "mds", "7", "3", "8")
    assert rc == 0 and int(json.loads(out)["A"][5]) == 147
    rc, out, _ = run(capsys, "nmds", "8", "4", "4", "27")
    assert rc == 0 and [int(c) for c in json.loads(out)["A"]] == list(NMDS_844_DISTRIBUTION_A)
    rc, out, _ = run(capsys, "amds", "8", "4", "4", "2", "30")
    assert rc == 0 and int(json.loads(out)["A"][4]) == 30
    rc, out, _ = run(capsys, "extremal", "1")
    assert rc == 0
    obj = json.loads(out)
    for i, c in GOLAY_FREE_COUNTS.items():
        assert int(obj["A"][i]) == c


def test_extremal_reads_the_budget(capsys):
    price = closed_forms._extremal_price(1)
    rc, out, _ = run(capsys, "extremal", "1", "--budget", str(price))
    assert rc == 0 and int(json.loads(out)["A"][8]) == 759
    rc, out, err = run(capsys, "extremal", "1", "--budget", str(price - 1))
    assert (rc, out, err) == (3, "", f"error: extremal solve costs {price} element operations, "
                                     f"over the budget of {price - 1}\n")
    rc, out, err = run(capsys, "extremal", "1000")
    assert rc == 3 and out == "" and err.endswith("over the budget of 1000000000\n")


def test_negative_closed_form_counts_are_math_errors(capsys):
    for argv in (("nmds", "8", "4", "4", "1000"), ("amds", "8", "4", "4", "2", "1000")):
        rc, out, err = run(capsys, *argv)
        assert rc == 1, argv
        assert out == ""
        assert "NegativeEntryError: A_5 = -3832 is negative" in err


def test_nmds_input_errors_name_a_d_and_k(capsys):
    for argv, message in ((("nmds", "8", "4", "4", "-1"), "a_d must be >= 0, got a_d=-1"),
                          (("nmds", "8", "8", "4", "1"),
                           "need k <= n-1 = 7 for d = n-k >= 1, got k=8")):
        rc, out, err = run(capsys, *argv)
        assert (rc, out, err) == (2, "", f"error: ValueError: {message}\n"), argv


# The README's exit codes: 1 a mathematical failure, 3 a budget exceeded,
# 2 every other (input) error.
EXIT_CODES = {
    "WeightDistError": 2,
    "NotPrimeError": 2,
    "ReduciblePolynomialError": 2,
    "UnsupportedOrderError": 2,
    "DivisionByZeroError": 2,
    "SingularMatrixError": 1,
    "RankDeficientGeneratorError": 2,
    "BudgetExceededError": 3,
    "ZeroCodeError": 1,
    "NonIntegralResultError": 1,
    "RegimeViolationError": 2,
    "TooFewKnownsError": 2,
    "NonIntegralSolutionError": 1,
    "NegativeSolutionError": 1,
    "InconsistentKnownsError": 1,
    "NegativeEntryError": 1,
    "RangeViolationError": 2,
    "CodeFileFormatError": 2,
}
ERROR_CLASSES = {name: cls for name, cls in vars(errors).items()
                 if isinstance(cls, type) and issubclass(cls, errors.WeightDistError)}
COMMAND_ARGV = {
    "mds": ["mds", "7", "3", "8"],
    "enumerate": ["enumerate", "never-read.code"],
    "solve": ["solve", "--knowns", "{}"],
}


def test_exit_code_table_names_every_error_class():
    assert set(EXIT_CODES) == set(ERROR_CLASSES)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(ERROR_CLASSES)), st.sampled_from(sorted(COMMAND_ARGV)))
def test_every_error_class_exits_with_its_code_from_every_command(name, command):
    cls = ERROR_CLASSES[name]
    error = cls("boom", rank=0) if issubclass(cls, errors.SingularMatrixError) else cls("boom")

    def raise_error(args):
        raise error

    stderr = io.StringIO()
    with mock.patch.object(cli, f"cmd_{command}", raise_error), \
            contextlib.redirect_stderr(stderr):
        rc = main(COMMAND_ARGV[command])
    assert rc == EXIT_CODES[name], (name, command)
    assert stderr.getvalue().startswith("error: ")


def test_amds_bad_seed_count_is_input_error(capsys):
    rc, _, _ = run(capsys, "amds", "8", "4", "4", "3", "27")
    assert rc == 2


@pytest.mark.parametrize("argv", [
    ("mds", "8", "4", "1"),
    ("nmds", "8", "4", "1", "0"),
    ("nmds", "8", "4", "0", "0"),
    ("amds", "8", "4", "1", "3", "1,2"),
])
def test_closed_form_field_order_below_two_is_input_error(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 2, argv
    assert out == ""
    assert "field order must be >= 2" in err


PLESS_REPORT_FORMATS = {
    "json": ('{\n  "pascal_rank": 4,\n  "pless_rank": 4,\n  "joint_rank": 4,\n'
             '  "rows_each": 4,\n  "n_unknowns": 9\n}\n'),
    "csv": "pascal_rank,pless_rank,joint_rank,rows_each,n_unknowns\n4,4,4,4,9\n",
    "table": ("pascal_rank = 4\npless_rank = 4\njoint_rank = 4\nrows_each = 4\n"
              "n_unknowns = 9\n"),
}


def test_pless_report(capsys):
    rc, out, _ = run(capsys, "pless-report", "--n", "8", "--k", "4", "--q", "4",
                     "--d", "4", "--dperp", "4")
    assert rc == 0
    obj = json.loads(out)
    assert obj["pascal_rank"] == 4 and obj["pless_rank"] == 4
    assert obj["joint_rank"] <= 8
    assert out == PLESS_REPORT_FORMATS["json"]  # the default


@pytest.mark.parametrize("fmt", sorted(PLESS_REPORT_FORMATS))
def test_pless_report_formats(capsys, fmt):
    rc, out, err = run(capsys, "pless-report", "--n", "8", "--k", "4", "--q", "4",
                       "--d", "4", "--dperp", "4", "--format", fmt)
    assert (rc, out, err) == (0, PLESS_REPORT_FORMATS[fmt], "")


def test_output_flag_writes_file(code_files, capsys, tmp_path):
    fa, _ = code_files
    target = tmp_path / "out.json"
    rc, out, _ = run(capsys, "enumerate", fa, "--output", target)
    assert rc == 0 and out == ""
    assert json.loads(target.read_text())["n"] == 8


def test_fixtures_command(tmp_path, capsys):
    outdir = tmp_path / "golden"
    rc, _, _ = run(capsys, "fixtures", "--output", outdir)
    assert rc == 0
    a = parse_code_file((outdir / "nmds_844_a.code").read_text())
    assert a.n == 8
    dist = distribution_from_json(json.loads((outdir / "nmds_844_a.dist.json").read_text()))
    assert dist.counts == NMDS_844_DISTRIBUTION_A
    systems = json.loads((outdir / "extremal_m1_systems.json").read_text())
    assert systems["independent"]["solution"] == {"8": "759", "12": "2576", "16": "759"}
    assert systems["dependent"]["singular"] is True and systems["dependent"]["rank"] == 2
    golay = json.loads((outdir / "extremal_m1.dist.json").read_text())
    assert int(golay["A"][8]) == 759
    mds_table = json.loads((outdir / "mds_table.json").read_text())
    assert [int(x) for x in mds_table["[7,3]_7"]][:5] == [1, 0, 0, 0, 0]
    nmds_table = json.loads((outdir / "nmds_table.json").read_text())
    assert [int(x) for x in nmds_table["[8,4,4]_4 A_4=27"]] == list(NMDS_844_DISTRIBUTION_A)
