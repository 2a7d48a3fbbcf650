"""Exact invariants for torus-knot link-surgery families.

The pipeline: Alexander polynomials of torus knots (closed formula, checked
against Fox calculus), the Torres specialization of the link polynomial,
Seiberg-Witten polynomials of the surgery manifolds X_p, and certificates
that the basic-class lower bounds grow without bound over the family.
"""

from .family import (
    CERTIFICATE_SCHEMA_VERSION,
    DEFAULT_P_CAP,
    CapExhaustedError,
    FamilyReport,
    FamilyRow,
    UnboundednessCertificate,
    Witness,
    analyze_family,
    certify_unbounded,
    verify_certificate,
)
from .fox import GroupPresentation, UnsupportedPresentationError, alexander_fox_oracle
from .knots import (
    ConnectedSum,
    InternalInconsistencyError,
    KnotExpr,
    KnotParseError,
    Mirror,
    Torus,
    TorusKnotSpec,
    Unknot,
    alexander_expr,
    alexander_torus,
    format_knot_expr,
    genus_torus,
    parse_knot_expr,
)
from .laurent import (
    ExponentOverflowError,
    LaurentPoly,
    NotDivisibleError,
    NotSymmetrizableError,
    PolyParseError,
    VariableSet,
)
from .surgery import (
    LinkFamilyMember,
    SurgerySpec,
    SWResult,
    basic_class_lower_bound,
    sw_link_surgery,
    sw_prefactor,
    sw_specialized,
    torres_specialize,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "VariableSet",
    "LaurentPoly",
    "ExponentOverflowError",
    "NotDivisibleError",
    "NotSymmetrizableError",
    "PolyParseError",
    "TorusKnotSpec",
    "KnotExpr",
    "Unknot",
    "Torus",
    "Mirror",
    "ConnectedSum",
    "KnotParseError",
    "InternalInconsistencyError",
    "alexander_torus",
    "alexander_expr",
    "genus_torus",
    "parse_knot_expr",
    "format_knot_expr",
    "GroupPresentation",
    "UnsupportedPresentationError",
    "alexander_fox_oracle",
    "LinkFamilyMember",
    "SurgerySpec",
    "SWResult",
    "torres_specialize",
    "sw_prefactor",
    "sw_link_surgery",
    "sw_specialized",
    "basic_class_lower_bound",
    "FamilyRow",
    "FamilyReport",
    "Witness",
    "UnboundednessCertificate",
    "CapExhaustedError",
    "DEFAULT_P_CAP",
    "CERTIFICATE_SCHEMA_VERSION",
    "analyze_family",
    "certify_unbounded",
    "verify_certificate",
]
