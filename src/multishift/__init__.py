"""Similarity and unitary-equivalence certificates for truncated
operator-valued multishifts, via the sandwich criterion on their moment
(Gram) families."""

from .equivalence import (
    GrowthDiagnostic,
    IntertwinerBasis,
    IntertwinerMatrix,
    SimilarityCertificate,
    UnitaryEquivalenceResult,
    VerificationReport,
    brute_force_intertwiner,
    growth_diagnostic,
    optimize_C,
    sandwich_certificate,
    sandwich_ratio,
    test_unitary_equivalence,
    verify_certificate,
)
from .kernelgen import (
    KernelSpec,
    PochhammerPair,
    homogeneous_kernel,
    kernel_moments,
    log_pochhammer,
    perturb_kernel,
    pochhammer_ground_truth,
    pochhammer_kernel,
)
from .lattice import MultiIndex, Truncation, enumerate_indices, monotone_path
from .numerics import (
    HermPD,
    herm_eig,
    hermpd,
    inv_pd,
    inv_sqrt_pd,
    polar_unitary,
    sqrt_pd,
)
from .shiftcore import (
    MomentSystem,
    TruncatedMz,
    ValidationReport,
    WeightSystem,
    build_mz,
    canonical_weights,
    check_adjoint_formula,
    moments_from_weights,
    validate_weights,
)

__version__ = "0.1.0"
