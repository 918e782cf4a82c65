"""Signed Monte-Carlo estimators and their exact analytic counterparts.

The tilted density is the signed landing law of the doubled jump process, so
every Monte-Carlo estimator here weights each path by one signed weight of
its exit code (see ``jumpsim.split_exit_code``): its landing sign (+1/-1/0),
or the conditional expected sign ``qbar`` of its pre-exit state, which keeps
terminated paths contributing and never increases the per-bin variance.
``_code_weights`` builds either table of weights, which gives the two
histogram estimators of the tilted density and the two forms of the untilted
expectation, which reweights by ``e^{lam tau}``.

Both histogram estimators are linear in the joint law of a path's exit-time
bin and its exit code, so ``count_exits`` counts the ``(bin, exit)`` pairs
of a batch once, in one exact int64 table, and each density estimator dots
that table with its weights and their squares.  The count walks the batch one
generation chunk at a time, sends each exit time to its bin through
``_bin_index``, a time outside the grid to one overflow bin, and adds the
chunk's keys into the table with ``np.add.at``, so no estimator holds a
full-length temporary or a chunk-sized dense table.  Integer counts merge
exactly, so the estimates do not depend on how the batch was chunked, and the
landing-sign sums stay exact integers.  ``check_count_table`` bounds the table.
"""

from __future__ import annotations

import math

import numpy as np

from . import linalg
from .jumpsim import SIGN_OF_LANDING, PathBatch, n_exit_codes, split_exit_code
from .medist import MEParams, laplace_transform, resolvent_moment
from .records import Record
from .splitting import DoubledGenerator, InitialSplit, SignSplit, doubled_expm_action


class Grid(Record):
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

    def __str__(self) -> str:
        return f"{self.x_min:g}:{self.x_max:g}:{self.n_bins}"

    @property
    def delta(self) -> float:
        return (self.x_max - self.x_min) / self.n_bins

    @property
    def edges(self) -> np.ndarray:
        return self.x_min + self.delta * np.arange(self.n_bins + 1)

    @property
    def mids(self) -> np.ndarray:
        return self.x_min + self.delta * (np.arange(self.n_bins) + 0.5)


class DensityEstimate(Record):
    """Per-bin density estimates with standard errors.

    Bins with ``n_hits == 0`` report estimate 0 and stderr 0; the count
    distinguishes them from a true zero.
    """

    grid: Grid
    estimate: np.ndarray
    stderr: np.ndarray
    n_hits: np.ndarray
    scale: float


class ExitCounts(Record):
    """Exact counts of a batch's paths by exit-time bin and exit code:
    ``counts[b, c]`` paths of ``n_paths`` exit in bin ``b`` of ``grid`` with
    exit code ``c`` (see ``jumpsim.split_exit_code``), an int64 table of shape
    ``(n_bins, 6p)``.  Paths that exit outside the grid are counted only in
    ``n_paths``."""

    grid: Grid
    counts: np.ndarray
    n_paths: int


class ExpectationEstimate(Record):
    """Untilted expectation estimate; ``max_abs_weight`` is the largest
    ``|h(tau) e^{lam tau}|`` seen, a heavy-tail diagnostic."""

    value: float
    stderr: float
    max_abs_weight: float


def _bin_index(tau: np.ndarray, grid: Grid) -> np.ndarray:
    """Each exit time's bin on ``grid``, and ``n_bins`` for a time outside it.

    The quotient is clipped to ``[0, n_bins - 1]`` before the int cast: an
    outside time's quotient may not fit an int64, and for an inside time
    clipping then truncating is truncating then clipping.
    """
    inside = (tau >= grid.x_min) & (tau < grid.x_max)
    with np.errstate(over="ignore"):
        q = (tau - grid.x_min) / grid.delta
    np.clip(q, 0, grid.n_bins - 1, out=q)
    np.copyto(q, grid.n_bins, where=~inside)
    return q.astype(np.int64)


def check_bin_weight(scale: float, grid: Grid) -> float:
    """The per-path bin weight ``scale / grid.delta``, refused when its
    square overflows."""
    per_path = scale / grid.delta
    # a float product overflows to inf where ** raises; inf squared raises nothing
    if not math.isfinite(per_path * per_path):
        raise ValueError(
            f"per-path bin weight scale / bin width = {per_path:g} overflows "
            "when squared; widen the bins"
        )
    return per_path


def _mean_and_stderr(sum_w, sum_w2, n: int, scale: float):
    """The mean of ``n`` weights ``scale * w`` and its standard error, from
    ``sum(w)`` and ``sum(w**2)`` (arrays or scalars); the sample variance
    is clipped at zero, and one weight has standard error zero."""
    if n == 0:
        raise ValueError("empty outcome set")
    mean = scale * sum_w / n
    if n == 1:
        return mean, np.zeros_like(mean)
    var = (scale**2 * sum_w2 - n * mean**2) / (n - 1)
    return mean, np.sqrt(np.maximum(var, 0.0) / n)


def finalize_density(
    sum_w, sum_w2, n_hits, n_paths: int, grid: Grid, scale: float
) -> DensityEstimate:
    """Per-bin estimates and standard errors from the bins' sums of weights
    and of squared weights over ``n_paths`` paths, each path weighted by
    :func:`check_bin_weight`."""
    estimate, stderr = _mean_and_stderr(sum_w, sum_w2, n_paths, check_bin_weight(scale, grid))
    return DensityEstimate(grid=grid, estimate=estimate, stderr=stderr, n_hits=n_hits, scale=scale)


#: Most entries of the count table of ``count_exits``: 128 MiB of int64.
MAX_COUNT_ENTRIES = 1 << 24

#: Largest ``h`` degree: its exact value takes one resolvent solve per degree.
MAX_H_DEGREE = 100_000


def check_count_table(grid: Grid, p: int):
    """Refuse a grid whose count table for a model on ``p`` states, ``(n_bins +
    1) * 6p`` entries, would exceed ``MAX_COUNT_ENTRIES``."""
    entries = (grid.n_bins + 1) * n_exit_codes(p)
    if entries > MAX_COUNT_ENTRIES:
        raise ValueError(
            f"grid {grid} has too many bins for a model on {p} states: its count "
            f"table of {entries} entries exceeds {MAX_COUNT_ENTRIES}; use fewer bins"
        )


def count_exits(batch: PathBatch, grid: Grid) -> ExitCounts:
    """Count the batch's paths by exit-time bin and exit code, one
    generation chunk at a time.

    Each chunk adds its keys ``bin * 6p + exit_code`` into one accumulator of
    ``(n_bins + 1) * 6p`` entries, whose last row is the overflow bin, with
    ``np.add.at``; a per-chunk ``bincount`` would build a dense table per
    chunk.  ``check_count_table`` refuses a grid first.
    """
    check_count_table(grid, batch.p)
    n_codes = n_exit_codes(batch.p)
    counts = np.zeros((grid.n_bins + 1) * n_codes, dtype=np.int64)
    for sl in batch.chunk_slices():
        key = _bin_index(batch.tau[sl], grid)
        key *= n_codes
        key += batch.exit_code[sl]
        np.add.at(counts, key, 1)
    return ExitCounts(grid, counts.reshape(-1, n_codes)[:-1], len(batch))


def _code_weights(n_codes: int, profile: DoubledGenerator | None = None) -> np.ndarray:
    """One weight per exit code: the landing sign (int8), or with a
    ``profile`` the conditional expected sign ``qbar`` of the pre-exit state
    (``-qbar`` on the anti side)."""
    pre_exit, landing = split_exit_code(np.arange(n_codes))
    return SIGN_OF_LANDING.take(landing) if profile is None else profile.qbar.take(pre_exit)


def _density_of_counts(counts: ExitCounts, weight: np.ndarray, scale: float) -> DensityEstimate:
    """Finalize the exit counts dotted with one weight per exit code and with
    its square; integer weights keep the sums exact integers."""
    table = counts.counts
    return finalize_density(
        table @ weight, table @ (weight * weight), table.sum(axis=1),
        counts.n_paths, counts.grid, scale,
    )


def mc_density_beta(counts: ExitCounts, scale: float) -> DensityEstimate:
    """Histogram estimate of the tilted density from landing signs.

    With ``scale = (w^+ + w^-) / L(lam)`` the per-bin estimate is unbiased for
    the bin average of the tilted density; ``scale = 1`` estimates the raw
    signed exit density ``(alphahat) expm(D x) (s; -s)``.
    """
    return _density_of_counts(counts, _code_weights(counts.counts.shape[1]), scale)


def mc_density_qbar(
    counts: ExitCounts, profile: DoubledGenerator, scale: float
) -> DensityEstimate:
    """Histogram estimate weighting every exiting path (terminated ones
    included) by the conditional expected sign of its pre-exit state."""
    return _density_of_counts(counts, _code_weights(counts.counts.shape[1], profile), scale)


class HSpec(Record):
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
        if not math.isfinite(self.c):
            raise ValueError(f"h decay rate c must be finite, got {self.c!r}")
        if self.kind == "exp-decay" and self.degree != 0:
            raise ValueError("exp-decay takes no degree; use poly-exp-decay")
        if self.degree < 0:
            raise ValueError("degree must be nonnegative")
        if self.degree > MAX_H_DEGREE:
            raise ValueError(f"degree must be at most {MAX_H_DEGREE}")

    def tilted_weight(self, tau: np.ndarray, lam: float) -> np.ndarray:
        """``h(tau) e^{lam tau}`` evaluated without intermediate overflow; an
        overflowing weight is ``inf``, which the estimator rejects.

        Where ``tau**degree`` overflows, or its product with the exponential
        does, the weight is taken again as one exponential of the sum of the
        logarithms: a huge power times a vanishing exponential is then the
        weight they make, not ``inf * 0 = nan``."""
        with np.errstate(over="ignore", invalid="ignore"):
            weight = np.exp((lam - self.c) * tau)
            if self.degree:
                weight = tau**self.degree * weight
                lost = np.flatnonzero(~np.isfinite(weight))
                if lost.size:
                    t = tau[lost]
                    weight[lost] = np.exp(self.degree * np.log(t) + (lam - self.c) * t)
            return weight

    def analytic_expectation(self, params: MEParams) -> float:
        """Exact ``integral of h(x) f(x) dx`` through repeated resolvent solves."""
        if self.c <= params.sigma0:
            raise ValueError(
                f"h decay rate {self.c:g} must exceed the dominant eigenvalue "
                f"{params.sigma0:.6g} for the integral to converge"
            )
        with np.errstate(over="ignore", invalid="ignore"):
            value = resolvent_moment(params, self.c, self.degree)
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


def mc_expectation_untilted(
    batch: PathBatch,
    h: HSpec,
    lam: float,
    w_total: float,
    form: str = "beta",
    profile: DoubledGenerator | None = None,
) -> ExpectationEstimate:
    """Estimate ``integral of h(x) f(x) dx`` as
    ``w_total * mean(h(tau) e^{lam tau} * weight)``.

    ``form="beta"`` weights by the landing sign; ``form="qbar"`` (requires
    ``profile``) by the pre-exit conditional expected sign, summed chunk by chunk.
    """
    if form == "beta":
        profile = None
    elif form != "qbar":
        raise ValueError(f"unknown form {form!r}")
    elif profile is None:
        raise ValueError('form="qbar" needs a DoubledGenerator')

    weight_of_code = _code_weights(n_exit_codes(batch.p), profile)
    sum_v = 0.0
    sum_v2 = 0.0
    max_abs = 0.0
    for sl in batch.chunk_slices():
        sign = weight_of_code.take(batch.exit_code[sl])
        weight = h.tilted_weight(batch.tau[sl], lam)
        # weights are >= 0 or NaN, and the maximum carries either NaN or inf
        top = float(np.max(weight))
        if not math.isfinite(top):
            raise ValueError("h(tau) e^{lam tau} is non-finite for some path")
        max_abs = max(max_abs, top)
        signed = weight * sign
        with np.errstate(over="ignore"):
            sum_v += float(np.sum(signed))
            sum_v2 += float(np.sum(signed**2))
    # a finite sum of squares bounds n mean^2, so nothing below overflows
    if not math.isfinite(sum_v2):
        raise ValueError("h(tau) e^{lam tau} is too large: the sum of its squares overflows")
    mean, stderr = _mean_and_stderr(sum_v, sum_v2, len(batch), 1.0)
    return ExpectationEstimate(
        value=float(w_total * mean), stderr=float(w_total * stderr), max_abs_weight=max_abs
    )


def analytic_untilted_doubled(split: SignSplit, init: InitialSplit, x):
    """Untilted density recovered from the doubled system at rate zero:
    ``(w^+ + w^-) (alphahat^+, alphahat^-) expm(D(0) x) (s; -s)``.

    Equals ``alpha expm(T x) s`` for every x, even though ``D(0)`` itself may
    have a nonnegative dominant eigenvalue.
    """
    xs = linalg.as_points(x)
    out = init.w_total * (doubled_expm_action(split, 0.0, xs) @ init.alphahat)
    return out if np.ndim(x) else float(out[0])


def decay_cancellation_check(split: SignSplit, sigma0: float, xs) -> np.ndarray:
    """Ratios ``max_abs(expm(D(0) x) (s; -s)) * e^{-sigma0 x}``.

    Bounded ratios certify that the signed vector decays at the rate of the
    dominant eigenvalue of T even when ``D(0)`` has a larger abscissa: the
    faster-growing modes cancel in the product with ``(s; -s)``.
    """
    xs = np.asarray(xs, dtype=float)
    return np.abs(doubled_expm_action(split, 0.0, xs)).max(axis=1) * np.exp(-sigma0 * xs)


def _exp_at(A: np.ndarray, name: str, x: float, grid: Grid) -> np.ndarray:
    """``e^{A x}`` for the grid value ``x`` called ``name``; the refusal of
    :func:`linalg.mat_exp` (``A x`` overflows) is restated with the grid."""
    with np.errstate(over="ignore"):
        Ax = A * x
    try:
        return linalg.mat_exp(Ax)
    except ValueError as exc:
        raise ValueError(
            f"{name} {x:g} of grid {grid} is too "
            "large: (T - lam I) times it overflows, so its exponential cannot be computed"
        ) from exc


def tilted_bin_averages(params: MEParams, lam: float, grid: Grid) -> tuple[np.ndarray, float]:
    """Exact bin averages of the tilted density over the grid, and the
    normalizer ``L(lam) = alpha (lam I - T)^{-1} s`` they were divided by.

    With ``M = T - lam I``, one Van Loan (1978) block exponential
    ``expm([[M, s], [0, 0]] delta)`` holds both the step ``e^{M delta}`` and
    the bin integral ``int_0^delta e^{M y} dy s``.  The row ``alpha e^{M x}``
    starts at ``x_min`` and steps from edge to edge, so the grid costs two
    exponentials and no subtraction of nearly equal terms.  This is what the
    histogram estimators are unbiased for.

    A bin width or ``x_min`` so large that ``(T - lam I)`` times it overflows
    is refused, by name, with the grid: its exponential cannot be computed.
    """
    norm = laplace_transform(params, lam)
    if norm * grid.delta == 0.0:
        raise ValueError(
            f"bin width {grid.delta:g} times the normalizer {norm:g} underflows "
            "to zero; widen the bins"
        )
    p = params.p
    M = params.T - lam * np.eye(p)
    block = np.zeros((p + 1, p + 1))
    block[:p, :p] = M
    block[:p, p] = params.s
    F = _exp_at(block, "bin width", grid.delta, grid)
    step, integral = F[:p, :p], F[:p, p]
    row = params.alpha @ _exp_at(M, "x_min", grid.x_min, grid)
    out = np.empty(grid.n_bins)
    for b in range(grid.n_bins):
        out[b] = row @ integral
        row = row @ step
    return out / (norm * grid.delta), norm
