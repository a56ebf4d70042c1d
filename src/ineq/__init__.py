"""Certified evaluation of reverse Schwarz, triangle, Bessel, and Gruss-type
inequalities on concrete inner-product spaces.

The package computes both sides of each inequality together with the full
chain of intermediate comparisons, checks the hypothesis under which the
inequality is claimed, and reports everything as data: an instance that
fails its hypothesis gets `holds=False` admissibility, not an exception.
Exceptions are reserved for inputs on which the requested quantity is not
even defined (degenerate scalar pairs, zero radii, rank-deficient families,
malformed documents).
"""

__version__ = "0.1.0"

from .bessel import (
    BesselReport,
    bessel_reverse_ball,
    bessel_reverse_pair,
    gruss_orthonormal_ball,
    gruss_orthonormal_gap,
    gruss_orthonormal_pair,
)
from .conditions import (
    ConditionForm,
    ConditionReport,
    ScalarPair,
    family_two_sided,
    in_closed_ball,
    two_sided_ball,
    two_sided_realpart,
)
from .errors import (
    DegeneratePairError,
    DimensionMismatchError,
    FieldMismatchError,
    IneqError,
    InputFormatError,
    NotOrthonormalError,
    NotUnitVectorError,
    PreconditionError,
    RankDeficiencyError,
)
from .gruss import (
    GrussReport,
    gruss_ball,
    gruss_ball_refined,
    gruss_gap,
    gruss_pair,
    gruss_pair_refined,
)
from .harness import THEOREM_IDS, evaluate_file, evaluate_instance, run_suite, sample_admissible
from .integral import (
    DiscretizedFunction,
    WeightedDomain,
    build_domain,
    embedded_vector,
    integral_gruss,
    integral_schwarz_ball,
    integral_schwarz_pair,
    integral_schwarz_range,
    integral_triangle,
    pointwise_ball,
    pointwise_pair,
    pointwise_range,
    polynomial,
)
from .legacy import (
    legacy_bessel_ball,
    legacy_bessel_pair,
    legacy_gruss_ball,
    legacy_gruss_pair,
    legacy_schwarz_ball,
    legacy_schwarz_pair,
    legacy_triangle_ball,
    legacy_triangle_pair,
)
from .schwarz import BoundChain, reverse_schwarz_ball, reverse_schwarz_pair
from .sharpness import (
    CONSTRUCTIONS,
    ProbeResult,
    SweepResult,
    random_probe,
    sweep,
    sweep_legacy11,
    sweep_thm21,
    sweep_thm22,
)
from .space import (
    CoefficientSequence,
    FieldTag,
    OrthonormalFamily,
    Vector,
    coefficients,
    fourier_coefficients,
    gram_schmidt,
    inner,
    norm,
    project,
    standard_basis,
    synthesize,
    vector,
)
from .tally import InstanceResult, SuiteReport, emit_report
from .triangle import TriangleDefect, triangle_reverse_ball, triangle_reverse_pair

__all__ = [
    "__version__",
    # space
    "FieldTag",
    "Vector",
    "vector",
    "inner",
    "norm",
    "CoefficientSequence",
    "coefficients",
    "OrthonormalFamily",
    "standard_basis",
    "gram_schmidt",
    "fourier_coefficients",
    "synthesize",
    "project",
    # conditions
    "ScalarPair",
    "ConditionForm",
    "ConditionReport",
    "in_closed_ball",
    "two_sided_realpart",
    "two_sided_ball",
    "family_two_sided",
    # chains and reports
    "BoundChain",
    "reverse_schwarz_ball",
    "reverse_schwarz_pair",
    "TriangleDefect",
    "triangle_reverse_ball",
    "triangle_reverse_pair",
    "GrussReport",
    "gruss_gap",
    "gruss_ball",
    "gruss_ball_refined",
    "gruss_pair",
    "gruss_pair_refined",
    "BesselReport",
    "bessel_reverse_ball",
    "bessel_reverse_pair",
    "gruss_orthonormal_gap",
    "gruss_orthonormal_ball",
    "gruss_orthonormal_pair",
    # squared-level originals
    "legacy_schwarz_ball",
    "legacy_schwarz_pair",
    "legacy_triangle_ball",
    "legacy_triangle_pair",
    "legacy_gruss_ball",
    "legacy_gruss_pair",
    "legacy_bessel_ball",
    "legacy_bessel_pair",
    # integral forms
    "DiscretizedFunction",
    "WeightedDomain",
    "build_domain",
    "polynomial",
    "embedded_vector",
    "pointwise_ball",
    "pointwise_pair",
    "pointwise_range",
    "integral_schwarz_ball",
    "integral_schwarz_pair",
    "integral_schwarz_range",
    "integral_triangle",
    "integral_gruss",
    # sharpness
    "CONSTRUCTIONS",
    "SweepResult",
    "sweep",
    "sweep_thm21",
    "sweep_thm22",
    "sweep_legacy11",
    "ProbeResult",
    "random_probe",
    # harness
    "THEOREM_IDS",
    "InstanceResult",
    "SuiteReport",
    "run_suite",
    "sample_admissible",
    "evaluate_instance",
    "evaluate_file",
    "emit_report",
    # errors
    "IneqError",
    "FieldMismatchError",
    "DimensionMismatchError",
    "RankDeficiencyError",
    "NotOrthonormalError",
    "NotUnitVectorError",
    "DegeneratePairError",
    "PreconditionError",
    "InputFormatError",
]
