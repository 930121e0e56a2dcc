"""Exact-arithmetic Painleve systems from loop-algebra reductions.

The package builds Heisenberg subalgebras of the A-type loop algebra for a
partition, realizes the associated Painleve Hamiltonian systems with their
explicit Lax pairs, applies the affine Weyl symmetries, and checks every
claimed identity either exactly over the rationals (with algebraic symbols
where the formulas demand roots) or numerically along integrated flows.
"""

from .heisenberg import (
    Partition,
    build_heisenberg,
    compute_N,
    gradation_type,
    verify_heisenberg,
)
from .lax import (
    canonical_to_ds,
    constraint_residuals,
    lax_matrices,
    sample_point,
    time_root,
    verify_partition,
    zero_curvature_residual,
)
from .painleve import (
    SystemParameters,
    check_normalization,
    gauge_log_derivatives,
    hamiltonian,
    reduction_constants,
    reduction_parameters,
    vector_field,
)
from .reductions import REDUCTIONS, Reduction, reduction
from .scalars import QQ, ExtScalar, Extension, PoleError
from .weyl import (
    apply_generator,
    apply_word,
    check_conjugation,
    check_equivariance,
    check_relations,
    conjugation_residual,
    equivariance_residual,
)
from .flow import Trajectory, integrate, order_check, residual_along

__all__ = [
    "Partition",
    "build_heisenberg",
    "compute_N",
    "gradation_type",
    "verify_heisenberg",
    "canonical_to_ds",
    "constraint_residuals",
    "lax_matrices",
    "sample_point",
    "time_root",
    "verify_partition",
    "zero_curvature_residual",
    "REDUCTIONS",
    "Reduction",
    "reduction",
    "SystemParameters",
    "check_normalization",
    "gauge_log_derivatives",
    "hamiltonian",
    "reduction_constants",
    "reduction_parameters",
    "vector_field",
    "QQ",
    "ExtScalar",
    "Extension",
    "PoleError",
    "apply_generator",
    "apply_word",
    "check_conjugation",
    "check_equivariance",
    "check_relations",
    "conjugation_residual",
    "equivariance_residual",
    "Trajectory",
    "integrate",
    "order_check",
    "residual_along",
]

__version__ = "0.1.0"
