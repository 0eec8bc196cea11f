"""Exact Smith normal forms of matrix polynomials over Q (and Q+iQ at the
arithmetic level), assembled from local forms at each irreducible factor
of the determinant."""

from .errors import (
    BadFamilyParam,
    DegreeTooHigh,
    DegreeZero,
    DimensionMismatch,
    DivisibilityFailure,
    EmptyInput,
    FactorSetMismatch,
    MultiplicityMismatch,
    NotIrreducible,
    NotMonic,
    NotRegular,
    NotSquare,
    NotUnimodular,
    ParseError,
    PrimeDoesNotDivideDet,
    ShapeMismatch,
    SmithError,
    TooLarge,
    UnsupportedField,
)
from .factorization import FactoredPoly, factor_over_rationals
from .families import FamilySpec, family_diagonal, gen_test_matrix
from .field import GaussianRational, Rational, format_scalar, parse_scalar
from .globalsmith import (
    CombinedMultiplier,
    SmithResult,
    combine_local,
    compute_E,
    factor_determinant,
    invert_unimodular,
    smith_with_multipliers,
    triangularize,
)
from .localsmith import (
    LocalSmithResult,
    local_smith,
    local_smith_over_K,
    local_smith_reference,
    rref_over_residue,
)
from .matio import (
    read_matpoly,
    read_matpoly_file,
    write_matpoly_json,
    write_matpoly_text,
)
from .matpoly import (
    MatPoly,
    PAdicExpansion,
    expand_in_p,
    lambda_iso,
    mat_det,
)
from .oracle import elementary_smith, minors_gcd_smith
from .poly import Poly, parse_poly, poly_gcd, poly_xgcd
from .verify import VerifyReport, verify_smith

__version__ = "0.1.0"
