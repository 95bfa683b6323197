"""Rate-distortion analysis for noisily observed finite sources under
nonlinear pooling of per-letter distortion.

The public surface mirrors the pipeline: describe a source and a per-letter
distortion, pick a pooling transform, then either sweep the curve with the
solver, evaluate the analytic models, or cross-check against brute-force
block codes.
"""

from .closed_form import (
    BecModel,
    BscModel,
    bec_irdf,
    bec_optimal_conditional,
    binary_entropy,
    binary_entropy_inverse,
    bsc_irdf,
    domain_bounds,
)
from .distortion import (
    AmendedDistortions,
    DistortionMatrix,
    SubadditivityReport,
    build_amended,
    f_separable_n,
    is_subadditive_sample,
    quasi_arithmetic_mean,
)
from .errors import (
    DomainError,
    EmptyInput,
    IrdfError,
    LengthMismatch,
    MonotonicityError,
    NegativeProbability,
    NonStochastic,
    NotConverged,
    OutOfRange,
    TooLarge,
)
from .ftransform import FTransform
from .operational import (
    BlockCode,
    CodeEvaluation,
    ExcessEquivalence,
    best_code_search,
    evaluate_code,
    excess_event_equivalence,
)
from .solver import (
    RdCurve,
    SlopePoint,
    ba_fixed_slope,
    distortion_at_rate,
    f_domain_bounds,
    solve_at_distortion,
    sweep_curve,
)
from .source import Alphabet, JointSource, load_source

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "AmendedDistortions",
    "BecModel",
    "BlockCode",
    "BscModel",
    "CodeEvaluation",
    "DistortionMatrix",
    "DomainError",
    "EmptyInput",
    "ExcessEquivalence",
    "FTransform",
    "IrdfError",
    "JointSource",
    "LengthMismatch",
    "MonotonicityError",
    "NegativeProbability",
    "NonStochastic",
    "NotConverged",
    "OutOfRange",
    "RdCurve",
    "SlopePoint",
    "SubadditivityReport",
    "TooLarge",
    "ba_fixed_slope",
    "bec_irdf",
    "bec_optimal_conditional",
    "best_code_search",
    "binary_entropy",
    "binary_entropy_inverse",
    "bsc_irdf",
    "build_amended",
    "distortion_at_rate",
    "domain_bounds",
    "evaluate_code",
    "excess_event_equivalence",
    "f_domain_bounds",
    "f_separable_n",
    "is_subadditive_sample",
    "load_source",
    "quasi_arithmetic_mean",
    "solve_at_distortion",
    "sweep_curve",
]
