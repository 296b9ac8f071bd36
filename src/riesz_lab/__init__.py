"""Exact arithmetic for lattices of orthogonally additive polynomials on two
concrete backends: finite point sets and eventually constant sequences."""

from __future__ import annotations

from .carriers import (
    BandDescriptor,
    NakanoReport,
    carrier,
    carriers_disjoint,
    local_carrier_check,
    nakano_regression_pair,
    nakano_verify,
    null_ideal,
    null_ideal_matches_modulus,
)
from .checks import (
    OA_MODES,
    OS_MODES,
    CheckVerdict,
    oa_identity_sides,
    oa_mode_agreement,
    orthogonal_additivity_check,
    orthosymmetry_check,
    os_identity_sides,
    structured_pair_count,
)
from .convergence import (
    ConvergenceCertificate,
    ExplicitFamily,
    TailFamily,
    verify_certificate,
)
from .errors import (
    BoundViolationError,
    CertificateError,
    ConfigError,
    DegreeMismatchError,
    InvalidGeneratorError,
    InvariantViolation,
    MalformedInstanceError,
    NoWitnessError,
    PositivityError,
    RepresentationError,
    RieszLabError,
    SpaceMismatchError,
    UnsupportedFamilyError,
)
from .lattice import (
    LIMIT,
    Element,
    PrincipalIdeal,
    RadicalElement,
    Space,
    decreasing_rearrangements,
    krivine_radical,
)
from .jsonio import (
    dumps_canonical,
    element_to_obj,
    parse_element,
    parse_instance,
    parse_instance_file,
    to_obj,
)
from .measures import Measure, is_normal_measure
from .order_continuity import (
    DiscontinuityWitness,
    Functional,
    ProductFunctionalPolynomial,
    dichotomy_agrees,
    discontinuity_witness,
    oa_order_continuity,
    power_net_dominator,
    urysohn_witness_net,
    zero_order_continuity_probe,
)
from .polynomials import (
    Polynomial,
    norm_check,
    polarize,
    polys_disjoint,
    to_measure,
    to_polynomial,
)
from .report import PropertyResult, Report, attach_instance, emit_report, reverify_counterexample
from .restriction import (
    LocalDisjointnessReport,
    default_generators,
    local_disjointness,
    local_lattice_consistency,
    restrict,
)
from .suites import SUITES, SuiteConfig, run_suite
from .tensors import GeneralMatrixForm, SymTensor

__version__ = "0.1.0"
