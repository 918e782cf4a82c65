"""Finite-state Markov jump process interpretation of matrix-exponential
distributions.

The pipeline: validate a parameter triple (alpha, T, s), sign-split it into
nonnegative pieces, assemble the doubled original/anti-state generator at a
tilting rate at least the subintensity threshold, simulate the terminating
jump process, and recover tilted and untilted densities and expectations by
signed Monte Carlo, cross-checked against exact matrix-analytic formulas.
"""

from .errors import (
    EigenConvergenceError,
    LambdaTooSmallError,
    MEJumpError,
    NotADensityError,
    NotTransientError,
    PositiveDiagonalError,
    SingularMatrixError,
    UnstableTError,
    ZeroAlphaError,
)
from .estimators import (
    DensityEstimate,
    ExitCounts,
    ExpectationEstimate,
    Grid,
    HSpec,
    analytic_untilted_doubled,
    count_exits,
    decay_cancellation_check,
    mc_density_beta,
    mc_density_qbar,
    mc_expectation_untilted,
    tilted_bin_averages,
)
from .jumpsim import PathBatch, RngStream, simulate_batch
from .linalg import mat_exp, solve_linear, spectral_abscissa
from .medist import MEParams, ValidationReport, density, laplace_transform, tilt, validate
from .models import exponential_model, phase_type_example, reference_model
from .splitting import (
    DoubledGenerator,
    InitialSplit,
    SignSplit,
    build_generator,
    check_transience,
    doubled_matrix,
    exit_profile,
    initial_split,
    resolve_lambda,
    sign_split,
)

__version__ = "0.1.0"

__all__ = [
    "MEJumpError", "NotADensityError", "UnstableTError", "PositiveDiagonalError",
    "ZeroAlphaError", "LambdaTooSmallError", "NotTransientError",
    "SingularMatrixError", "EigenConvergenceError",
    "MEParams", "ValidationReport", "validate", "density", "laplace_transform", "tilt",
    "SignSplit", "InitialSplit", "DoubledGenerator",
    "sign_split", "initial_split", "build_generator",
    "doubled_matrix", "exit_profile", "check_transience", "resolve_lambda",
    "PathBatch", "RngStream", "simulate_batch",
    "Grid", "DensityEstimate", "ExitCounts", "ExpectationEstimate", "HSpec",
    "count_exits", "mc_density_beta", "mc_density_qbar", "mc_expectation_untilted",
    "analytic_untilted_doubled", "decay_cancellation_check", "tilted_bin_averages",
    "mat_exp", "solve_linear", "spectral_abscissa",
    "reference_model", "exponential_model", "phase_type_example",
]
