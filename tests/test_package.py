"""The package namespace: `import weightdist` loads no module, and the first
read of a public name loads them all and binds every name at once."""

import copy
import dataclasses
import json
import os
import pickle
import subprocess
import sys
import types
from fractions import Fraction
from importlib import import_module
from pathlib import Path

import pytest

import weightdist

ROOT = Path(__file__).resolve().parent.parent

# The public names of the package before its names were bound on first use,
# when every module was imported by `import weightdist`, less the extremal
# family's parameter class and relation range, which were removed since, and
# `gf_matmul` and `random_corpus`, which only the tests used and which moved
# into them.
PUBLIC_NAMES = {
    "AmdsInput", "BudgetExceededError", "CodeFileFormatError", "CodeParameters",
    "DEFAULT_BUDGET", "DivisionByZeroError", "Field", "GF", "GFMatrix",
    "InconsistentKnownsError", "LinearCode", "MomentSystem", "NegativeEntryError",
    "NegativeSolutionError", "NonIntegralResultError", "NonIntegralSolutionError",
    "NotPrimeError", "RangeViolationError", "RankCensus", "RankDeficientGeneratorError",
    "RankRelationshipReport", "RationalMatrix", "ReduciblePolynomialError",
    "RegimeViolationError", "SingularMatrixError", "TooFewKnownsError",
    "UnsupportedOrderError", "WeightDistError", "WeightDistribution", "ZeroCodeError",
    "amds_counts", "amds_distribution", "binom", "build_pascal_system",
    "build_pless_system", "census", "check_full_rank_regime", "cross_check_systems",
    "default_modulus", "distribution_from_json", "distribution_to_json",
    "extremal_distribution", "extremal_system",
    "find_amds_specimens", "format_code_file", "gf_kernel_basis", "gf_rank",
    "is_irreducible", "knowns_from_json", "macwilliams_transform", "mds_distribution",
    "nmds_distribution", "parse_code_file", "pascal_minor_check", "random_code",
    "rank_relationship_report", "reed_solomon_code", "solve_exact",
    "solve_with_knowns", "truncated_pascal", "verify_counting_identity",
    "verify_pless_full", "weight_histogram",
}

# every module of the package but the command line
MODULES = {"closed_forms", "codes", "corpus", "enumeration", "errors", "fields", "fileio",
           "matrices", "moments", "rank_census", "reference"}

LOADED = ("import json, sys; print(json.dumps(sorted(m[len('weightdist.'):] "
          "for m in sys.modules if m.startswith('weightdist.'))))")


def fresh(script: str):
    """The JSON that `script`, run in a new interpreter, prints last."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_submodule():
    assert fresh(f"import weightdist\n{LOADED}") == []


def test_dunder_lookups_load_nothing():
    script = f"""
import weightdist
assert weightdist.__path__ and weightdist.__version__
for name in ("__wrapped__", "__test__", "codes"):
    assert not hasattr(weightdist, name), name
assert "census" in dir(weightdist)
{LOADED}"""
    assert fresh(script) == []


def test_first_public_name_binds_every_name():
    script = f"""
import weightdist
weightdist.GF
missing = [n for n in weightdist.__all__ if n not in vars(weightdist)]
assert not missing, missing
{LOADED}"""
    assert set(fresh(script)) == MODULES - {"reference"}  # which defines no public name


def test_census_is_the_function_in_every_import_order():
    # the module first, the name first, and the name imported from the package
    for first, read in (("import weightdist.rank_census, weightdist", "weightdist.census"),
                        ("import weightdist", "weightdist.census"),
                        ("from weightdist import census", "census")):
        script = f"""
{first}
got = {read}
import weightdist, weightdist.rank_census
assert got is weightdist.census is weightdist.rank_census.census
print("[]")"""
        assert fresh(script) == [], first


def test_all_is_the_public_names_and_each_resolves():
    assert sorted(weightdist.__all__) == sorted(PUBLIC_NAMES)
    for name in PUBLIC_NAMES:
        module = import_module(f"weightdist.{weightdist._MODULE_OF[name]}")
        assert getattr(weightdist, name) is getattr(module, name), name
    bound = {n for n, v in vars(weightdist).items()
             if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert bound == PUBLIC_NAMES
    # the table lists every error class
    errors = import_module("weightdist.errors")
    assert {n for n, v in vars(errors).items()
            if isinstance(v, type) and issubclass(v, errors.WeightDistError)} <= PUBLIC_NAMES


# Each value type with its fields, in the order its dataclass declared them,
# and the field values of one instance.
VALUE_TYPES = {
    "CodeParameters": (("n", "k", "d", "d_perp", "q"), lambda wd: (48, 24, 25, 25, 49)),
    "WeightDistribution": (("counts", "q", "k"), lambda wd: ((1, 2, 3), 2, 1)),
    "GFMatrix": (("field", "entries", "cols"), lambda wd: (wd.GF(3), ((1, 0, 2), (0, 1, 1)), 3)),
    "RationalMatrix": (("entries", "cols"), lambda wd: (((1, Fraction(1, 2)), (0, 3)), 2)),
    "MomentSystem": (("kind", "rhs", "row_labels", "col_labels", "params", "degrees", "nodes"),
                     lambda wd: ("pless", (1, 6), (0, 1), (0, 1, 2),
                                 wd.CodeParameters(2, 1, 2, 2, 3), (1, 0), (0, 1, 2))),
    "RankRelationshipReport": (("pascal_rank", "pless_rank", "joint_rank", "rows_each",
                                "n_unknowns"), lambda wd: (4, 4, 5, 4, 9)),
    "RankCensus": (("nu", "counts", "source_dims"), lambda wd: (2, {1: 3, 2: 3}, (2, 4))),
    "AmdsInput": (("n", "k", "q", "sigma", "seed_weights"), lambda wd: (8, 4, 4, 2, (27,))),
}


@pytest.mark.parametrize("name", VALUE_TYPES)
def test_value_types_behave_as_their_frozen_dataclasses(name):
    """Each value type against a frozen dataclass of the same fields: built
    by position or keyword, equal and hashed as it is (a census holds a dict
    and hashes as the dataclass did not), equal to no other type with the
    same values, with its repr unless the type writes its own, refusing
    assignment and deletion, and rebuilt by pickle and copy."""
    cls = getattr(weightdist, name)
    names, make = VALUE_TYPES[name]
    values = make(weightdist)
    oracle = dataclasses.make_dataclass(name, names, frozen=True)(*values)
    obj, twin = cls(*values), cls(**dict(zip(names, values)))
    assert twin is not obj and twin == obj and not twin != obj
    assert tuple(getattr(obj, n) for n in names) == values
    sub = type(name, (cls,), {})(*values)
    for other in (values, oracle, sub):
        assert obj != other and other != obj
    if "__repr__" not in vars(cls):
        assert repr(obj) == repr(oracle)
    try:
        expected = hash(oracle)
    except TypeError:
        with pytest.raises(TypeError):
            hash(obj)
    else:
        assert hash(obj) == hash(twin) == expected
    for n in names + ("other",):
        with pytest.raises(AttributeError):
            setattr(obj, n, 0)
        with pytest.raises(AttributeError):
            delattr(obj, n)
    assert tuple(getattr(obj, n) for n in names) == values
    assert pickle.loads(pickle.dumps(obj)) == copy.copy(obj) == copy.deepcopy(obj) == obj
