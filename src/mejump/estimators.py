"""Signed Monte-Carlo estimators and their exact analytic counterparts.

The tilted density is the signed landing law of the doubled jump process, so
every Monte-Carlo estimator here folds the exit times against one signed
weight per path: its landing sign (+1/-1/0), or the conditional expected sign
``qbar`` of its pre-exit state, which keeps terminated paths contributing and
never increases the per-bin variance.  The two weights give the two histogram
estimators of the tilted density and the two forms of the untilted
expectation, which reweights by ``e^{lam tau}``.

``_signed_chunks`` yields the ``(tau, weight)`` pairs one generation chunk at
a time, in chunk order, so no estimator holds a full-length temporary, and an
estimate built by merging partials from the generation chunks is
bit-identical to the one-call result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .jumpsim import PathBatch
from .medist import MEParams, laplace_transform
from .splitting import ExitProfile, InitialSplit, SignSplit, doubled_expm_action


@dataclass(frozen=True)
class Grid:
    """Histogram grid on [x_min, x_max) with n_bins equal bins."""

    x_min: float
    x_max: float
    n_bins: int

    def __post_init__(self):
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_max)):
            raise ValueError("grid bounds must be finite")
        if self.x_min < 0.0 or self.x_max < 0.0:
            raise ValueError("grid bounds must be nonnegative")
        if not self.x_min < self.x_max:
            raise ValueError("grid needs x_min < x_max")
        if self.n_bins < 1:
            raise ValueError("grid needs at least one bin")

    @property
    def delta(self) -> float:
        return (self.x_max - self.x_min) / self.n_bins

    @property
    def edges(self) -> np.ndarray:
        return self.x_min + self.delta * np.arange(self.n_bins + 1)

    @property
    def mids(self) -> np.ndarray:
        return self.x_min + self.delta * (np.arange(self.n_bins) + 0.5)


@dataclass
class DensityEstimate:
    """Per-bin density estimates with standard errors.

    Bins with ``n_hits == 0`` report estimate 0 and stderr 0; the count
    distinguishes them from a true zero.
    """

    grid: Grid
    estimate: np.ndarray
    stderr: np.ndarray
    n_hits: np.ndarray
    n_paths: int
    scale: float

    @property
    def x_mid(self) -> np.ndarray:
        return self.grid.mids


@dataclass
class ExpectationEstimate:
    """Untilted expectation estimate; ``max_abs_weight`` is the largest
    ``|h(tau) e^{lam tau}|`` seen, a heavy-tail diagnostic."""

    value: float
    stderr: float
    n_paths: int
    max_abs_weight: float


@dataclass
class DensityPartial:
    """Per-bin running sums (weights, squared weights, hit counts)."""

    sum_w: np.ndarray
    sum_w2: np.ndarray
    n_hits: np.ndarray
    n_paths: int


def density_partial(taus: np.ndarray, weights: np.ndarray, grid: Grid) -> DensityPartial:
    """Bin one block of paths.  Accumulation is in path order."""
    inside = (taus >= grid.x_min) & (taus < grid.x_max)
    idx = ((taus[inside] - grid.x_min) / grid.delta).astype(np.int64)
    np.clip(idx, 0, grid.n_bins - 1, out=idx)
    w = weights[inside].astype(float)
    return DensityPartial(
        sum_w=np.bincount(idx, weights=w, minlength=grid.n_bins),
        sum_w2=np.bincount(idx, weights=w * w, minlength=grid.n_bins),
        n_hits=np.bincount(idx, minlength=grid.n_bins).astype(np.int64),
        n_paths=int(taus.shape[0]),
    )


def merge_density_partials(parts) -> DensityPartial:
    """Fold partials in the given order (left to right); merging generation
    chunks in chunk order reproduces the one-call estimate bit for bit."""
    parts = list(parts)
    if not parts:
        raise ValueError("no partials to merge")
    total = DensityPartial(
        sum_w=parts[0].sum_w.copy(),
        sum_w2=parts[0].sum_w2.copy(),
        n_hits=parts[0].n_hits.copy(),
        n_paths=parts[0].n_paths,
    )
    for part in parts[1:]:
        total.sum_w += part.sum_w
        total.sum_w2 += part.sum_w2
        total.n_hits += part.n_hits
        total.n_paths += part.n_paths
    return total


def finalize_density(partial: DensityPartial, grid: Grid, scale: float) -> DensityEstimate:
    n = partial.n_paths
    if n == 0:
        raise ValueError("empty outcome set")
    per_path = scale / grid.delta
    estimate = per_path * partial.sum_w / n
    if n > 1:
        try:
            per_path_sq = per_path**2
        except OverflowError:
            raise ValueError(
                f"per-path bin weight scale / bin width = {per_path:g} overflows "
                "when squared; widen the bins"
            ) from None
        var = (per_path_sq * partial.sum_w2 - n * estimate**2) / (n - 1)
        stderr = np.sqrt(np.maximum(var, 0.0) / n)
    else:
        stderr = np.zeros_like(estimate)
    return DensityEstimate(
        grid=grid,
        estimate=estimate,
        stderr=stderr,
        n_hits=partial.n_hits,
        n_paths=n,
        scale=scale,
    )


def _signed_chunks(batch: PathBatch, profile: ExitProfile | None = None):
    """Yield ``(tau, weight)`` for each generation chunk, in chunk order.

    The weight is the landing sign, or with a ``profile`` the conditional
    expected sign ``qbar`` of the pre-exit state (``-qbar`` on the anti side).
    """
    if len(batch) == 0:
        raise ValueError("empty outcome set")
    if profile is not None:
        q = profile.qbar_original
        qbar_of_code = np.concatenate([q, -q])
    for sl in batch.chunk_slices():
        if profile is None:
            yield batch.tau[sl], batch.sign[sl]
        else:
            yield batch.tau[sl], qbar_of_code.take(batch.pre_exit[sl])


def _folded_density(batch: PathBatch, profile: ExitProfile | None, grid: Grid, scale: float):
    parts = [density_partial(tau, w, grid) for tau, w in _signed_chunks(batch, profile)]
    return finalize_density(merge_density_partials(parts), grid, scale)


def mc_density_beta(batch: PathBatch, grid: Grid, scale: float) -> DensityEstimate:
    """Histogram estimate of the tilted density from landing signs.

    With ``scale = (w^+ + w^-) / L(lam)`` the per-bin estimate is unbiased for
    the bin average of the tilted density; ``scale = 1`` estimates the raw
    signed exit density ``(alphahat) expm(D x) (s; -s)``.
    """
    return _folded_density(batch, None, grid, scale)


def mc_density_qbar(
    batch: PathBatch, profile: ExitProfile, grid: Grid, scale: float
) -> DensityEstimate:
    """Histogram estimate weighting every exiting path (terminated ones
    included) by the conditional expected sign of its pre-exit state."""
    return _folded_density(batch, profile, grid, scale)


@dataclass(frozen=True)
class HSpec:
    """Structured integrand ``h(x) = x^degree * exp(-c x)``.

    Declaring ``h`` this way enables the exact resolvent value
    ``degree! * alpha (c I - T)^{-(degree+1)} s`` and the sufficient condition
    for the reweighted estimator's second moment to exist.
    """

    kind: str
    c: float
    degree: int = 0

    def __post_init__(self):
        if self.kind not in ("exp-decay", "poly-exp-decay"):
            raise ValueError(f"unknown h type {self.kind!r}")
        if self.kind == "exp-decay" and self.degree != 0:
            raise ValueError("exp-decay takes no degree; use poly-exp-decay")
        if self.degree < 0:
            raise ValueError("degree must be nonnegative")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return x**self.degree * np.exp(-self.c * x)

    def tilted_weight(self, tau: np.ndarray, lam: float) -> np.ndarray:
        """``h(tau) e^{lam tau}`` evaluated without intermediate overflow; an
        overflowing weight is ``inf``, which the estimator rejects."""
        with np.errstate(over="ignore"):
            return tau**self.degree * np.exp((lam - self.c) * tau)

    def analytic_expectation(self, params: MEParams) -> float:
        """Exact ``integral of h(x) f(x) dx`` through repeated resolvent solves."""
        if self.c <= params.sigma0:
            raise ValueError(
                f"h decay rate {self.c:g} must exceed the dominant eigenvalue "
                f"{params.sigma0:.6g} for the integral to converge"
            )
        A = self.c * np.eye(params.p) - params.T
        # the factorial rides along as one float factor per solve, so a
        # degree whose factorial alone overflows can still give a finite value
        with np.errstate(over="ignore", invalid="ignore"):
            v = linalg.solve_linear(A, params.s)
            for k in range(1, self.degree + 1):
                if not np.all(np.isfinite(v)):
                    break
                v = k * linalg.solve_linear(A, v)
            value = float(params.alpha @ v)
        if not math.isfinite(value):
            raise ValueError(
                f"the exact value of integral h(x) f(x) dx overflows at degree {self.degree}"
            )
        return value

    def variance_warning(self, lam: float, eta: float) -> str | None:
        """Why ``h(tau) e^{lam tau}`` may have an infinite second moment, or
        None when the sufficient condition ``c > (lam + eta)/2`` holds
        (``eta`` = spectral abscissa of ``T^+ + T^-``, the decay rate of the
        unsigned exit density)."""
        if lam + eta - 2.0 * self.c < 0.0:
            return None
        return (
            f"weight e^{{(lam - c) tau}} may have infinite variance: "
            f"need c > (lam + eta)/2 = {(lam + eta) / 2:g}, got c = {self.c:g}"
        )


def h_spec_from_dict(spec: dict) -> HSpec:
    """Build an :class:`HSpec` from its JSON form ``{"type": ..., "c": ...}``."""
    if not isinstance(spec, dict) or "type" not in spec or "c" not in spec:
        raise ValueError('h must be an object with "type" and "c" fields')
    return HSpec(
        kind=str(spec["type"]),
        c=float(spec["c"]),
        degree=int(spec.get("degree", 0)),
    )


def mc_expectation_untilted(
    batch: PathBatch,
    h: HSpec,
    lam: float,
    w_total: float,
    form: str = "beta",
    profile: ExitProfile | None = None,
) -> ExpectationEstimate:
    """Estimate ``integral of h(x) f(x) dx`` as
    ``w_total * mean(h(tau) e^{lam tau} * weight)``.

    ``form="beta"`` weights by the landing sign; ``form="qbar"`` (requires
    ``profile``) by the pre-exit conditional expected sign.
    """
    if form == "beta":
        profile = None
    elif form != "qbar":
        raise ValueError(f"unknown form {form!r}")
    elif profile is None:
        raise ValueError('form="qbar" needs an ExitProfile')

    sum_v = 0.0
    sum_v2 = 0.0
    max_abs = 0.0
    for tau, sign in _signed_chunks(batch, profile):
        weight = h.tilted_weight(tau, lam)
        if not np.all(np.isfinite(weight)):
            raise ValueError("h(tau) e^{lam tau} is non-finite for some path")
        signed = weight * sign
        with np.errstate(over="ignore"):
            sum_v += float(np.sum(signed))
            sum_v2 += float(np.sum(signed**2))
        max_abs = max(max_abs, float(np.max(np.abs(weight))))
    # a finite sum of squares bounds n mean^2, so nothing below overflows
    if not math.isfinite(sum_v2):
        raise ValueError("h(tau) e^{lam tau} is too large: the sum of its squares overflows")
    n = len(batch)
    mean = sum_v / n
    value = w_total * mean
    if n > 1:
        var = max(0.0, (sum_v2 - n * mean**2) / (n - 1))
        stderr = w_total * math.sqrt(var / n)
    else:
        stderr = 0.0
    return ExpectationEstimate(value=value, stderr=stderr, n_paths=n, max_abs_weight=max_abs)


def analytic_untilted_doubled(split: SignSplit, init: InitialSplit, x):
    """Untilted density recovered from the doubled system at rate zero:
    ``(w^+ + w^-) (alphahat^+, alphahat^-) expm(D(0) x) (s; -s)``.

    Equals ``alpha expm(T x) s`` for every x, even though ``D(0)`` itself may
    have a nonnegative dominant eigenvalue.
    """
    ah = np.concatenate([init.alphahat_plus, init.alphahat_minus])
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if xs.ndim != 1:
        raise ValueError("x must be a scalar or 1-d array")
    if np.any(xs < 0.0):
        raise ValueError("x must be nonnegative")
    out = init.w_total * (doubled_expm_action(split, 0.0, xs) @ ah)
    return out if np.ndim(x) else float(out[0])


def decay_cancellation_check(split: SignSplit, sigma0: float, xs) -> np.ndarray:
    """Ratios ``max_abs(expm(D(0) x) (s; -s)) * e^{-sigma0 x}``.

    Bounded ratios certify that the signed vector decays at the rate of the
    dominant eigenvalue of T even when ``D(0)`` has a larger abscissa: the
    faster-growing modes cancel in the product with ``(s; -s)``.
    """
    xs = np.asarray(xs, dtype=float)
    return np.abs(doubled_expm_action(split, 0.0, xs)).max(axis=1) * np.exp(-sigma0 * xs)


def tilted_bin_averages(params: MEParams, lam: float, grid: Grid) -> tuple[np.ndarray, float]:
    """Exact bin averages of the tilted density over the grid, and the
    normalizer ``L(lam) = alpha (lam I - T)^{-1} s`` they were divided by.

    With ``M = T - lam I``, one Van Loan (1978) block exponential
    ``expm([[M, s], [0, 0]] delta)`` holds both the step ``e^{M delta}`` and
    the bin integral ``int_0^delta e^{M y} dy s``.  The row ``alpha e^{M x}``
    starts at ``x_min`` and steps from edge to edge, so the grid costs two
    exponentials and no subtraction of nearly equal terms.  This is what the
    histogram estimators are unbiased for.
    """
    norm = laplace_transform(params, lam)
    p = params.p
    M = params.T - lam * np.eye(p)
    block = np.zeros((p + 1, p + 1))
    block[:p, :p] = M
    block[:p, p] = params.s
    F = linalg.mat_exp(block * grid.delta)
    step, integral = F[:p, :p], F[:p, p]
    row = params.alpha @ linalg.mat_exp(M * grid.x_min)
    out = np.empty(grid.n_bins)
    for b in range(grid.n_bins):
        out[b] = row @ integral
        row = row @ step
    return out / (norm * grid.delta), norm
