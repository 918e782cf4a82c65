"""Built-in reference models and random model generators."""

from __future__ import annotations

import numpy as np

from .medist import MEParams


def reference_model() -> MEParams:
    """The 3-dimensional oscillating reference model.

    Its density has the closed form ``(2/3) e^{-x} (1 + cos x)``; the
    parameters are not a phase-type representation (T has negative
    off-diagonal entries), which is exactly what the doubled construction is
    for.  Sign-splitting it gives tilting threshold 2.
    """
    return MEParams(
        alpha=np.array([1.0, 0.0, 0.0]),
        T=np.array(
            [
                [-1.0, -1.0, 2.0 / 3.0],
                [1.0, -1.0, -2.0 / 3.0],
                [0.0, 0.0, -1.0],
            ]
        ),
        s=np.array([4.0 / 3.0, 2.0 / 3.0, 1.0]),
    )


def reference_density(x):
    """Closed form ``(2/3) e^{-x} (1 + cos x)`` of the reference model."""
    x = np.asarray(x, dtype=float)
    return (2.0 / 3.0) * np.exp(-x) * (1.0 + np.cos(x))


def exponential_model(rate: float = 1.0) -> MEParams:
    """Exp(rate) as a 1-dimensional triple."""
    if rate <= 0.0:
        raise ValueError("rate must be positive")
    return MEParams(
        alpha=np.array([1.0]), T=np.array([[-rate]]), s=np.array([rate])
    )


def phase_type_example() -> MEParams:
    """A small genuine phase-type model (nonnegative off-diagonals,
    probability initial vector, exit vector -T 1)."""
    T = np.array([[-2.0, 1.0], [0.5, -1.5]])
    return MEParams(
        alpha=np.array([0.6, 0.4]),
        T=T,
        s=-T @ np.ones(2),
    )


def random_phase_type(p: int, rng: np.random.Generator) -> MEParams:
    """Random phase-type triple: nonnegative off-diagonal rates, strictly
    positive exit rates, Dirichlet initial vector."""
    T = rng.uniform(0.0, 1.0, size=(p, p))
    np.fill_diagonal(T, 0.0)
    exit_rates = rng.uniform(0.2, 1.5, size=p)
    np.fill_diagonal(T, -(T.sum(axis=1) + exit_rates))
    alpha = rng.dirichlet(np.ones(p))
    return MEParams(alpha=alpha, T=T, s=exit_rates)


def random_me_model(p: int, rng: np.random.Generator, max_tries: int = 200) -> MEParams:
    """Random valid matrix-exponential triple with negative entries.

    Applies a random similarity transform to a random phase-type model, which
    keeps the density (and so the normalization and the dominant eigenvalue)
    unchanged while scrambling the parameter signs; retries until the
    transformed T keeps a nonpositive diagonal so the sign split applies.

    Needs ``p >= 2``: for ``p = 1`` the transform is a scalar and cannot make
    any parameter negative.  ``exponential_model`` covers the 1-state case.
    """
    if p < 2:
        raise ValueError(
            f"random_me_model needs p >= 2, got p = {p}: a 1-state similarity "
            "transform leaves every sign as it is (use exponential_model)"
        )
    for _ in range(max_tries):
        base = random_phase_type(p, rng)
        K = rng.normal(0.0, 0.25 / p, size=(p, p))
        M = np.eye(p) + K
        if abs(np.linalg.det(M)) < 1e-3:
            continue
        T = np.linalg.solve(M, base.T @ M)
        alpha = base.alpha @ M
        s = np.linalg.solve(M, base.s)
        if np.any(np.diag(T) > 0.0):
            continue
        has_negative = (
            np.any(T[~np.eye(p, dtype=bool)] < 0.0)
            or np.any(alpha < 0.0)
            or np.any(s < 0.0)
        )
        if not has_negative:
            continue
        params = MEParams(alpha=alpha, T=T, s=s)
        if params.sigma0 >= 0.0:
            continue
        return params
    raise RuntimeError(f"no valid random model found in {max_tries} tries")
