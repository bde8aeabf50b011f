"""Exact weight distributions of linear codes over finite fields.

Exhaustive enumeration is the ground-truth oracle; submatrix rank censuses,
truncated-Pascal and power-moment systems, and closed forms for MDS, NMDS,
AMDS and extremal type II codes all cross-validate against it, in exact
integer and rational arithmetic throughout.

`weightdist.census` is the census function, which shadows the module of
that name as a package attribute;
`importlib.import_module("weightdist.census")` reaches the module.
"""

from .census import RankCensus, census, check_full_rank_regime, verify_counting_identity
from .closed_forms import (
    AmdsInput,
    ExtremalParams,
    amds_counts,
    amds_distribution,
    extremal_distribution,
    extremal_relation_range,
    extremal_system,
    mds_distribution,
    nmds_distribution,
    reed_solomon_code,
)
from .codes import (
    CodeParameters,
    LinearCode,
    WeightDistribution,
    macwilliams_transform,
    random_code,
)
from .corpus import find_amds_specimens, random_corpus
from .enumeration import DEFAULT_BUDGET, weight_histogram
from .errors import *  # noqa: F401,F403 -- the error hierarchy is the API
from .fields import GF, Field, default_modulus, is_irreducible
from .fileio import (
    distribution_from_json,
    distribution_to_json,
    format_code_file,
    knowns_from_json,
    parse_code_file,
)
from .matrices import (
    GFMatrix,
    RationalMatrix,
    binom,
    gf_kernel_basis,
    gf_matmul,
    gf_rank,
    pascal_minor_check,
    solve_exact,
    truncated_pascal,
)
from .moments import (
    MomentSystem,
    RankRelationshipReport,
    build_pascal_system,
    build_pless_system,
    cross_check_systems,
    rank_relationship_report,
    solve_with_knowns,
    verify_pless_full,
)

__version__ = "0.1.0"
