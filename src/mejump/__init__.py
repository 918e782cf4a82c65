"""Finite-state Markov jump process interpretation of matrix-exponential
distributions.

The pipeline: validate a parameter triple (alpha, T, s), sign-split it into
nonnegative pieces, assemble the doubled original/anti-state generator at a
tilting rate at least the subintensity threshold, simulate the terminating
jump process, and recover tilted and untilted densities and expectations by
signed Monte Carlo, cross-checked against exact matrix-analytic formulas.

Importing the package loads numpy with OpenBLAS on one thread, unless numpy
is already loaded or one of ``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS``
and ``OMP_NUM_THREADS`` is set; the variable is set only while numpy loads,
so no child process inherits it.  The package's BLAS work is a few small
oracles and the simulation makes none, so a second thread buys nothing; but
the ``nproc - 1`` threads OpenBLAS would start spin for about 0.1 s on the
CPUs the simulation's workers use, and their count would move the oracles'
last digits with the host's core count.
"""


def _load_numpy_on_one_blas_thread():
    """Import numpy with ``OPENBLAS_NUM_THREADS=1``, then unset it again.

    OpenBLAS reads its thread count once, when numpy loads it; a
    ``set_num_threads`` call afterwards still leaves the started thread
    spinning.  An explicit choice, or numpy loaded first by the host
    program, is left alone.
    """
    import os
    import sys

    names = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    if "numpy" in sys.modules or any(name in os.environ for name in names):
        return
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]


_load_numpy_on_one_blas_thread()

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
    "doubled_matrix", "check_transience", "resolve_lambda",
    "PathBatch", "RngStream", "simulate_batch",
    "Grid", "DensityEstimate", "ExitCounts", "ExpectationEstimate", "HSpec",
    "count_exits", "mc_density_beta", "mc_density_qbar", "mc_expectation_untilted",
    "analytic_untilted_doubled", "decay_cancellation_check", "tilted_bin_averages",
    "mat_exp", "solve_linear", "spectral_abscissa",
    "reference_model", "exponential_model", "phase_type_example",
]
