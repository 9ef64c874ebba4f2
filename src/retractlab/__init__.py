"""retractlab: exact tools for plane polynomial endomorphisms and retracts."""

import logging

logging.getLogger(__name__).addHandler(logging.NullHandler())

from .poly_core import (  # noqa: E402,F401
    MINUS_INF,
    Monomial,
    Poly2,
    UniPoly,
    monomial_degree_under,
    substitute1,
    substitute2,
    try_sqrt,
)
from .errors import InternalCheckError  # noqa: E402,F401
from .endo_algebra import (  # noqa: E402,F401
    Affine,
    AutoDecision,
    ElemX,
    ElemY,
    Endo,
    Move,
    TameAuto,
    compose,
    is_automorphism,
    jacobian,
    move_from_obj,
    move_to_obj,
    random_tame,
)
from .retracts import (  # noqa: E402,F401
    Retraction,
    RetractCertificate,
    SearchResult,
    SpanResult,
    generates_kz,
    is_retract_generator_bounded,
    make_retract_generator,
    retraction_endo,
    verify_retract_generator,
)
from .theorem_lab import (  # noqa: E402,F401
    CaseReport,
    Dependence,
    LeadingPair,
    NormalizedEndo,
    RatioDecomposition,
    ReductionOutcome,
    am_divisibility,
    coordinate_image_experiment,
    leading_dependence,
    normalize,
    ratio_value,
    reduction_step,
    run_reduction,
    transport_sequence_check,
    witness_coordinate,
    witness_degree_analysis,
    witness_exponent,
    witness_pair,
)
from .free_algebra import (  # noqa: E402,F401
    DEGREE_CAP,
    DeformationReport,
    NcEndo,
    NcPoly,
    PrimeField,
    RATIONALS,
    abelianization,
    commutator,
    commute_check,
    deformation_endo,
    evaluate_unipoly,
    nc_substitute,
    verify_deformed_retraction,
)
from .parsing import (  # noqa: E402,F401
    ParseError,
    parse_ncpoly,
    parse_poly2,
    parse_unipoly,
)
