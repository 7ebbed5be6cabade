"""Exact machinery for even-contact lines on double covers of projective space.

The package computes, with exact rational arithmetic throughout:
defining equations of the variety of even-contact tangent directions at a
base point, perfect-square certificates for line restrictions, the
inverse construction realizing prescribed equations, zero-dimensional
point counts by resultants, and the linear-algebra verdicts showing the
equations vary maximally with the base point.
"""

from .eco import EcoCertificate, EcoFamily, build_family, certify, is_weighted_homogeneous
from .errors import (
    BasePointOnBranch,
    InvalidInput,
    NormalizationViolated,
    ParseError,
    ResultantDegenerate,
    VariableMismatch,
    VmrtError,
)
from .jets import Jet1, restrict_to_line_jets
from .lines import (
    Hypersurface,
    VmrtSystem,
    build_converse,
    count_vmrt_points,
    eco_witness,
    is_eco_line,
    line_certificate,
    recenter,
    vmrt_equations,
)
from .poly import (
    SparsePoly,
    format_poly,
    monomials_of_degree,
    parse_poly,
)
from .selftest import run_selftest
from .unipoly import (
    UniPoly,
    is_perfect_square,
    restrict_to_line,
    resultant,
    squarefree_factorization,
)
from .variation import (
    MonomialBasis,
    VariationReport,
    coeff_vector,
    dmu_formula,
    dmu_jet,
    explicit_family,
    mu,
    orbit_tangent,
    variation_report,
)

__version__ = "0.1.0"

__all__ = [
    "BasePointOnBranch",
    "EcoCertificate",
    "EcoFamily",
    "Hypersurface",
    "InvalidInput",
    "Jet1",
    "MonomialBasis",
    "NormalizationViolated",
    "ParseError",
    "ResultantDegenerate",
    "SparsePoly",
    "UniPoly",
    "VariableMismatch",
    "VariationReport",
    "VmrtError",
    "VmrtSystem",
    "build_converse",
    "build_family",
    "certify",
    "coeff_vector",
    "count_vmrt_points",
    "dmu_formula",
    "dmu_jet",
    "eco_witness",
    "explicit_family",
    "format_poly",
    "is_eco_line",
    "is_perfect_square",
    "is_weighted_homogeneous",
    "line_certificate",
    "monomials_of_degree",
    "mu",
    "orbit_tangent",
    "parse_poly",
    "recenter",
    "restrict_to_line",
    "restrict_to_line_jets",
    "resultant",
    "run_selftest",
    "squarefree_factorization",
    "variation_report",
    "vmrt_equations",
]
