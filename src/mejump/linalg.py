"""Dense small-matrix kernel: matrix exponential, linear solves, eigenvalues.

Everything here is an exact (deterministic) oracle for the stochastic side of
the package.  Matrices are tiny (at most a few hundred rows), and the kernel
is numpy alone: the exponential is Higham's (2005) scaling and squaring with a
diagonal Pade approximant, solves go through numpy's LU factorization with a
residual check, and eigenvalues come from the dense nonsymmetric QR iteration.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import EigenConvergenceError, SingularMatrixError

#: Relative residual bound enforced after every linear solve.
SOLVE_RESIDUAL_RTOL = 1e-10


def as_matrix(A, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-d float64 array with finite entries."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError(f"{name} has non-finite entries")
    return A


def as_square(A, name: str = "matrix") -> np.ndarray:
    A = as_matrix(A, name)
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be square, got shape {A.shape}")
    return A


def as_vector(v, name: str = "vector") -> np.ndarray:
    """Coerce to a 1-d float64 array with finite entries."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"{name} must be 1-dimensional, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} has non-finite entries")
    return v


#: Largest 1-norm at which the degree-m diagonal Pade approximant of e^A has
#: relative backward error below double-precision unit roundoff (Higham 2005,
#: "The scaling and squaring method for the matrix exponential revisited",
#: SIAM J. Matrix Anal. Appl. 26(4), Table 2.3).
PADE_THETA = {
    3: 1.495585217958292e-2,
    5: 2.539398330063230e-1,
    7: 9.504178996162932e-1,
    9: 2.097847961257068e0,
    13: 5.371920351148152e0,
}

#: Coefficients b_0..b_m of the degree-m diagonal Pade numerator of e^x.
PADE_COEFFS = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (
        17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0,
    ),
    13: (
        64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
        1187353796428800.0, 129060195264000.0, 10559470521600.0,
        670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
        16380.0, 182.0, 1.0,
    ),
}


def _pade_uv(A: np.ndarray, m: int):
    """Odd and even parts ``U``, ``V`` of the degree-m Pade numerator of e^A,
    so that the approximant is ``(V - U)^{-1} (V + U)``."""
    b = PADE_COEFFS[m]
    ident = np.eye(A.shape[0])
    A2 = A @ A
    if m < 13:
        powers = [ident, A2]  # A^0, A^2, ..., A^(m-1)
        while len(powers) <= m // 2:
            powers.append(powers[-1] @ A2)
        U = A @ sum(b[2 * k + 1] * P for k, P in enumerate(powers))
        V = sum(b[2 * k] * P for k, P in enumerate(powers))
        return U, V
    A4 = A2 @ A2
    A6 = A4 @ A2
    U = A @ (
        A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
        + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * ident
    )
    V = (
        A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
        + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * ident
    )
    return U, V


def mat_exp(A) -> np.ndarray:
    """Matrix exponential e^A of a square real matrix.

    Scaling and squaring (Higham 2005): the lowest Pade degree whose theta
    bound covers the 1-norm, or degree 13 on ``A / 2^s`` followed by ``s``
    squarings.  A diagonal matrix maps to ``exp`` of its diagonal.

    Raises
    ------
    ValueError
        If A is not square and finite, or its 1-norm overflows.
    """
    A = as_square(A)
    diagonal = np.diagonal(A)
    if np.array_equal(A, np.diag(diagonal)):
        return np.diag(np.exp(diagonal))
    with np.errstate(over="ignore"):
        norm = float(np.abs(A).sum(axis=0).max())
    if not math.isfinite(norm):
        raise ValueError("matrix 1-norm overflows; e^A cannot be scaled")
    m = next((m for m in (3, 5, 7, 9) if norm <= PADE_THETA[m]), 13)
    s = max(0, math.ceil(math.log2(norm / PADE_THETA[13]))) if m == 13 else 0
    U, V = _pade_uv(A * 2.0**-s, m)
    E = np.linalg.solve(V - U, V + U)
    # A zero row of A is a unit row of e^A.  Set it exactly: squaring keeps
    # it exact, where a rounded 1 - 2^-53 would be raised to the power 2^s.
    zero_rows = ~A.any(axis=1)
    E[zero_rows] = np.eye(A.shape[0])[zero_rows]
    for _ in range(s):
        E = E @ E
    return E


def solve_linear(A, b, rtol: float = SOLVE_RESIDUAL_RTOL) -> np.ndarray:
    """Solve A x = b, enforcing ``|Ax - b| <= rtol * (|A| |x| + |b|)``.

    Raises
    ------
    SingularMatrixError
        If A is singular or the residual bound cannot be met (numerically
        rank-deficient A, e.g. an invalid tilting rate).
    """
    A = as_square(A, "A")
    b = as_vector(b, "b")
    if A.shape[0] != b.shape[0]:
        raise ValueError(f"shape mismatch: A is {A.shape}, b has length {b.shape[0]}")
    try:
        x = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"singular linear system: {exc}") from exc
    # the bound is homogeneous in (x, b): check it at unit scale, where the
    # squares inside the norms cannot overflow; a power of two scales exactly
    _, e = np.frexp(max(np.abs(x).max(), np.abs(b).max()))
    xs, bs = np.ldexp(x, -e), np.ldexp(b, -e)
    norm_a = np.linalg.norm(A, 1)
    residual = np.linalg.norm(A @ xs - bs)
    bound = rtol * (norm_a * np.linalg.norm(xs) + np.linalg.norm(bs))
    if not np.isfinite(residual) or residual > bound:
        raise SingularMatrixError(
            f"solve residual {residual:.3e} exceeds bound {bound:.3e}; "
            "matrix is numerically rank-deficient"
        )
    return x


def eigenvalues(A) -> np.ndarray:
    """Eigenvalue multiset of a square real matrix (complex array)."""
    A = as_square(A)
    try:
        return np.linalg.eigvals(A)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(f"eigenvalue iteration failed: {exc}") from exc


def spectral_abscissa(A) -> float:
    """Largest real part over the eigenvalues of A."""
    return float(eigenvalues(A).real.max())
