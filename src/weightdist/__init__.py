"""Exact weight distributions of linear codes over finite fields.

Exhaustive enumeration is the ground-truth oracle; submatrix rank censuses,
truncated-Pascal and power-moment systems, and closed forms for MDS, NMDS,
AMDS and extremal type II codes all cross-validate against it, in exact
integer and rational arithmetic throughout.

Importing the package loads none of its modules.  The first read of any
public name imports every module and binds every public name at once, so
that later reads are plain attribute lookups and no later call pays for an
import; a module imported directly, such as `weightdist.cli`, loads only
what it imports itself.  `weightdist.census` is the census function, from
the module `weightdist.rank_census`.
"""

# each public name and the module that defines it
_MODULE_OF = {
    **dict.fromkeys(("RankCensus", "census", "check_full_rank_regime",
                     "verify_counting_identity"), "rank_census"),
    **dict.fromkeys(("AmdsInput", "amds_counts", "amds_distribution", "extremal_distribution",
                     "extremal_system", "mds_distribution", "nmds_distribution",
                     "reed_solomon_code"), "closed_forms"),
    **dict.fromkeys(("CodeParameters", "LinearCode", "WeightDistribution",
                     "macwilliams_transform", "random_code"), "codes"),
    "find_amds_specimens": "corpus",
    "weight_histogram": "enumeration",
    # the error hierarchy is the API
    **dict.fromkeys(("DEFAULT_BUDGET", "WeightDistError", "NotPrimeError",
                     "ReduciblePolynomialError", "UnsupportedOrderError",
                     "DivisionByZeroError", "SingularMatrixError",
                     "RankDeficientGeneratorError", "BudgetExceededError", "ZeroCodeError",
                     "NonIntegralResultError", "RegimeViolationError", "TooFewKnownsError",
                     "NonIntegralSolutionError", "NegativeSolutionError",
                     "InconsistentKnownsError", "NegativeEntryError", "RangeViolationError",
                     "CodeFileFormatError"), "errors"),
    **dict.fromkeys(("GF", "Field", "default_modulus", "is_irreducible"), "fields"),
    **dict.fromkeys(("distribution_from_json", "distribution_to_json", "format_code_file",
                     "knowns_from_json", "parse_code_file"), "fileio"),
    **dict.fromkeys(("GFMatrix", "RationalMatrix", "binom", "gf_kernel_basis", "gf_rank",
                     "pascal_minor_check", "solve_exact", "truncated_pascal"), "matrices"),
    **dict.fromkeys(("MomentSystem", "RankRelationshipReport", "build_pascal_system",
                     "build_pless_system", "cross_check_systems", "rank_relationship_report",
                     "solve_with_knowns", "verify_pless_full"), "moments"),
}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    """Bind every public name on the first read of any (PEP 562); any other
    name, a dunder or a submodule not yet imported, is missing as usual."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    for public, module in _MODULE_OF.items():
        globals()[public] = getattr(import_module(f"{__name__}.{module}"), public)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
