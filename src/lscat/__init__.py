"""Symmetric and twisted special-unitary matrix manifolds.

Membership predicates and Haar sampling for the two families, Takagi-type
congruence factorizations, branch-restricted matrix logarithms with
winding indices, eigenvalue-avoidance covers with explicit contracting
homotopies, and the Lusternik-Schnirelmann category bounds of the
classical symmetric families.
"""

from . import errors
from .catbounds import (
    ClassicalFamily,
    GradedAlgebraSpec,
    KahlerFlag,
    SpaceDescriptor,
    ai_cohomology_generators,
    aii_cohomology_generators,
    cover_upper_bound,
    cup_length,
    describe,
    ganea_upper,
    kahler_cat,
    render_table,
    table_rows,
)
from .cover import (
    CoverAuditReport,
    CoverClassification,
    CoverConfig,
    classify,
    cover_audit,
    default_cover,
    multiplicity_audit,
)
from .factorizations import (
    FactorizationResult,
    factor_aii,
    factor_skew,
    factor_symmetric,
)
from .homotopy import (
    BranchLog,
    HomotopyPath,
    PathSample,
    branch_log,
    contract,
)
from .linalg_core import (
    EigenDecomposition,
    eig_normal,
    matrix_to_json,
)
from .spaces import (
    Family,
    MembershipReport,
    SpaceKind,
    SpacePoint,
    haar_special_unitary,
    is_member,
    point_from_json,
    point_to_json,
    sample,
    sample_points,
    structural_J,
)

__all__ = [
    "errors",
    "ClassicalFamily",
    "GradedAlgebraSpec",
    "KahlerFlag",
    "SpaceDescriptor",
    "ai_cohomology_generators",
    "aii_cohomology_generators",
    "cover_upper_bound",
    "cup_length",
    "describe",
    "ganea_upper",
    "kahler_cat",
    "render_table",
    "table_rows",
    "CoverAuditReport",
    "CoverClassification",
    "CoverConfig",
    "classify",
    "cover_audit",
    "default_cover",
    "multiplicity_audit",
    "FactorizationResult",
    "factor_aii",
    "factor_skew",
    "factor_symmetric",
    "BranchLog",
    "HomotopyPath",
    "PathSample",
    "branch_log",
    "contract",
    "EigenDecomposition",
    "eig_normal",
    "matrix_to_json",
    "Family",
    "MembershipReport",
    "SpaceKind",
    "SpacePoint",
    "haar_special_unitary",
    "is_member",
    "point_from_json",
    "point_to_json",
    "sample",
    "sample_points",
    "structural_J",
]
