"""Matrix-exponential distributions: validation, density, tilting.

A matrix-exponential distribution on ``(0, inf)`` has density
``f(x) = alpha @ expm(T x) @ s`` for a row vector ``alpha``, a square matrix
``T`` and a column vector ``s``.  The parameters carry no probabilistic
meaning by themselves; this module only requires

* all entries real and finite,
* the dominant eigenvalue of ``T`` strictly negative (so ``f`` is integrable),
* ``alpha (-T)^{-1} s = 1`` (so ``f`` integrates to one).

Exponential tilting with rate ``lam`` maps the triple to
``(alpha / L(lam), T - lam I, s)`` where ``L(lam) = alpha (lam I - T)^{-1} s``
is the Laplace transform of the density at ``lam``; the tilted triple is again
a matrix-exponential distribution.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import linalg
from .errors import LambdaTooSmallError, NotADensityError, UnstableTError
from .records import Record

#: Tolerance on |alpha (-T)^{-1} s - 1|.
NORMALIZATION_TOL = 1e-8

#: Density values in (-DENSITY_CLAMP, 0) are rounding noise and clamp to zero;
#: anything more negative means the triple is not a valid density.
DENSITY_CLAMP = 1e-12


class MEParams(Record):
    """Parameter triple (alpha, T, s) of a p-dimensional matrix-exponential
    distribution.  The record freezes copies of the caller's arrays."""

    alpha: np.ndarray
    T: np.ndarray
    s: np.ndarray

    def __post_init__(self):
        alpha = linalg.as_vector(self.alpha, "alpha")
        T = linalg.as_square(self.T, "T")
        s = linalg.as_vector(self.s, "s")
        p = alpha.shape[0]
        if T.shape != (p, p) or s.shape != (p,):
            raise ValueError(
                f"inconsistent shapes: alpha {alpha.shape}, T {T.shape}, s {s.shape}"
            )
        for arr, name in ((alpha, "alpha"), (T, "T"), (s, "s")):
            object.__setattr__(self, name, arr.copy())

    @property
    def p(self) -> int:
        return self.alpha.shape[0]

    @cached_property
    def sigma0(self) -> float:
        """Dominant eigenvalue (spectral abscissa) of T, solved once."""
        return linalg.spectral_abscissa(self.T)


class ValidationReport(Record):
    """Outcome of :func:`validate`; reproducible from the parameters alone."""

    sigma0: float
    normalization: float
    diag_nonpositive: bool

    @property
    def messages(self) -> list:
        if self.diag_nonpositive:
            return []
        return [
            "T has a positive diagonal entry: analytic use is fine, but the "
            "sign split / jump construction will be refused"
        ]


def resolvent_moment(params: MEParams, z: float, k: int) -> float:
    """``k! alpha (z I - T)^{-(k+1)} s``, the factorial riding along one factor
    per solve.  Each caller refuses its own ``z`` and silences its warnings.

    After each solve the vector is brought back to unit scale by a power of
    two, which is exact, and the exponents are applied once, to ``alpha v``:
    a vector that shrinks or grows with ``k`` never reaches the subnormals,
    where the solve's residual check fails, or overflows, so a moment beyond
    the float range comes out as 0 or inf.
    """
    A = z * np.eye(params.p) - params.T
    v = linalg.solve_linear(A, params.s)
    exponent = 0
    for j in range(1, k + 1):
        v = j * linalg.solve_linear(A, v)
        _, shift = np.frexp(np.abs(v).max())
        v = np.ldexp(v, -shift)
        exponent += int(shift)
    return float(np.ldexp(params.alpha @ v, exponent))


def validate(params: MEParams) -> ValidationReport:
    """Check the standing assumptions and return a report.

    Raises
    ------
    UnstableTError
        If the dominant eigenvalue of T is not strictly negative.
    NotADensityError
        If ``alpha (-T)^{-1} s`` differs from 1 by more than NORMALIZATION_TOL.
    """
    if params.sigma0 >= 0.0:
        raise UnstableTError(
            f"dominant eigenvalue of T is {params.sigma0:.6g}; must be strictly negative"
        )
    normalization = resolvent_moment(params, 0.0, 0)
    if abs(normalization - 1.0) > NORMALIZATION_TOL:
        raise NotADensityError(
            f"alpha (-T)^-1 s = {normalization:.12g}, not 1 within {NORMALIZATION_TOL:g}"
        )
    return ValidationReport(
        sigma0=params.sigma0,
        normalization=normalization,
        diag_nonpositive=bool(np.all(np.diag(params.T) <= 0.0)),
    )


def density(params: MEParams, x):
    """Density ``alpha @ expm(T x) @ s`` at ``x >= 0`` (scalar or 1-d array).

    Values in ``(-DENSITY_CLAMP, 0)`` are clamped to zero; materially negative
    values raise :class:`NotADensityError` since they indicate an invalid
    triple.
    """
    xs = linalg.as_points(x)
    out = np.array([params.alpha @ linalg.mat_exp(params.T * xi) @ params.s for xi in xs])
    if np.any(out < -DENSITY_CLAMP):
        raise NotADensityError(
            f"density evaluates to {out.min():.6g} < -{DENSITY_CLAMP:g}; "
            "parameters do not define a probability density"
        )
    out[out < 0.0] = 0.0
    return out if np.ndim(x) else float(out[0])


def require_finite_rate(lam: float):
    """Refuse a NaN or infinite tilting rate: every matrix built from it is
    non-finite, and a jump table built from it lets no path exit."""
    if not np.isfinite(lam):
        raise ValueError(f"tilting rate must be finite, got {lam!r}")


def laplace_transform(params: MEParams, lam: float) -> float:
    """``alpha (lam I - T)^{-1} s``, the integral of e^{-lam x} f(x) over x >= 0.

    Requires a finite ``lam`` above the dominant eigenvalue of T, where the
    resolvent exists and the integral converges.
    """
    require_finite_rate(lam)
    if lam <= params.sigma0:
        raise LambdaTooSmallError(
            f"tilting rate {lam:g} must exceed the dominant eigenvalue {params.sigma0:.6g}"
        )
    return resolvent_moment(params, lam, 0)


def tilt(params: MEParams, lam: float) -> tuple[MEParams, float]:
    """Exponentially tilted parameters ``(alpha / L(lam), T - lam I, s)`` and
    the normalizer ``L(lam)`` they were divided by, from one resolvent solve.

    The tilted triple is a valid matrix-exponential distribution; its density
    is ``e^{-lam x} f(x) / L(lam)``.  ``lam = 0`` is the identity.
    """
    norm = laplace_transform(params, lam)
    tilted = MEParams(
        alpha=params.alpha / norm,
        T=params.T - lam * np.eye(params.p),
        s=params.s,
    )
    return tilted, norm
