"""Certified very weak norms and generalized Ehrling inequalities on truncations.

The library works with finite truncations of sequence spaces. Its core
objects are dual families (deterministic enumerations of the dual unit
ball), the very weak norm they induce (computed as a certified interval),
and Ehrling certificates (eps, delta, C) for linear operators, produced by
a bracketing search over an inner maximization and checked by adversarial
sampling.
"""

from .convergence import (
    ModeReport,
    SequenceGen,
    appendix_counterexample,
    basis_sequence,
    classify,
    counterexample_sequence,
    cutoff_index,
    default_dim,
    default_probes,
    implication_suite,
    strongly_convergent_sequence,
)
from .ehrling import (
    DEFAULT_EPS_GRID,
    CertificateRow,
    EhrlingCertificate,
    OptimalConstantResult,
    VerificationReport,
    Witness,
    certify,
    falsify,
    optimal_constant,
    reverse_certificate,
    three_space_certificate,
    verify_certificate,
)
from .errors import (
    DimensionMismatchError,
    EhrlabError,
    EnumerationError,
    InvalidElementError,
    NoModulusError,
    NonInjectiveError,
    ScenarioError,
    ToleranceError,
    UnsupportedNormError,
)
from .operators import (
    LinearOperator,
    apply_batch,
    as_matrix,
    kernel_from_csv,
    make_dense,
    make_diagonal,
    make_kernel,
    make_shift,
    make_sobolev_embedding,
    operator_from_json,
)
from .optimize import OptimizerSettings, SamplerSettings, ball_points, bisect_modulus
from .spaces import (
    DualFamily,
    Element,
    dual_norm,
    enumerate_phi,
    family_from_json,
    norm,
    norm_batch,
    normalized_functional,
    normspec_from_json,
    NormSpec,
    pair,
)
from .veryweak import (
    CertifiedValue,
    tail_bound,
    very_weak_norm,
    very_weak_norm_batch,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # spaces
    "Element", "NormSpec", "DualFamily",
    "norm", "norm_batch", "dual_norm",
    "pair", "normalized_functional", "enumerate_phi",
    "normspec_from_json", "family_from_json",
    # veryweak
    "CertifiedValue", "very_weak_norm", "very_weak_norm_batch", "tail_bound",
    # operators
    "LinearOperator", "apply_batch", "as_matrix",
    "make_diagonal", "make_dense", "make_kernel", "make_shift",
    "make_sobolev_embedding", "kernel_from_csv", "operator_from_json",
    # optimize
    "OptimizerSettings", "SamplerSettings", "ball_points", "bisect_modulus",
    # ehrling
    "DEFAULT_EPS_GRID", "CertificateRow", "EhrlingCertificate", "Witness",
    "VerificationReport", "OptimalConstantResult",
    "certify", "verify_certificate", "optimal_constant", "falsify",
    "reverse_certificate", "three_space_certificate",
    # convergence
    "SequenceGen", "ModeReport", "classify", "default_probes",
    "cutoff_index", "default_dim",
    "appendix_counterexample", "implication_suite", "basis_sequence",
    "strongly_convergent_sequence", "counterexample_sequence",
    # errors
    "EhrlabError", "InvalidElementError", "DimensionMismatchError",
    "UnsupportedNormError", "EnumerationError", "ToleranceError",
    "NoModulusError", "NonInjectiveError", "ScenarioError",
]
