"""Sign decomposition and the doubled original/anti-state generator.

The construction splits ``T = T^+ - T^-`` and ``s = s^+ - s^-`` elementwise
by sign (the diagonal of ``T`` stays in ``T^+`` and must be nonpositive),
then, for a tilting rate ``lam`` at least the threshold ``lambda_0``, builds
the block subintensity matrix

    D(lam) = [[T^+ - lam I, T^-     ],
              [T^-,         T^+ - lam I]]

over ``p`` *original* and ``p`` *anti* states.  Each row additionally carries
absorption intensities ``s^+ / s^-`` (swapped on the anti side) into two
absorbing states, plus a nonnegative termination defect that kills the path.
``lambda_0`` is the least ``lam >= 0`` for which every such row sums to zero
with a nonnegative defect.

Signed exit densities of this jump process reproduce ``e^{(T - lam I) x} s``:
starting from original state i yields ``e_i^T e^{(T - lam I) x} s`` and from
anti state i its negative.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .errors import (
    LambdaTooSmallError,
    NotTransientError,
    PositiveDiagonalError,
    ZeroAlphaError,
)
from .medist import require_finite_rate
from .records import Record

#: Slack used when comparing a requested rate against lambda_0.
LAMBDA_SLACK = 1e-12

#: Step of ``"auto"`` off ``lambda_0`` when the chain is not transient there.
#: The abscissa ``eta`` of the Metzler matrix ``T^+ + T^-`` is at most its
#: largest row sum, hence at most ``lambda_0``, so that only happens at
#: ``eta = lambda_0`` exactly, where any positive step makes it transient.
AUTO_LAMBDA_STEP = 1.0


class SignSplit(Record):
    """Elementwise sign decomposition of (T, s), the threshold rate and
    ``eta``, the spectral abscissa of ``T^+ + T^-`` (see check_transience)."""

    Tplus: np.ndarray
    Tminus: np.ndarray
    splus: np.ndarray
    sminus: np.ndarray
    lambda0: float
    eta: float

    @property
    def p(self) -> int:
        return self.splus.shape[0]


class InitialSplit(Record):
    """Decomposition ``alpha = w^+ alpha^+ - w^- alpha^-`` with the mixture
    weights ``alphahat^{+/-} = w^{+/-}/(w^+ + w^-) * alpha^{+/-}`` used as the
    initial distribution over original/anti states."""

    wplus: float
    wminus: float
    alpha_plus: np.ndarray
    alpha_minus: np.ndarray

    @property
    def w_total(self) -> float:
        return self.wplus + self.wminus

    @property
    def alphahat_plus(self) -> np.ndarray:
        return self.wplus / self.w_total * self.alpha_plus

    @property
    def alphahat_minus(self) -> np.ndarray:
        return self.wminus / self.w_total * self.alpha_minus

    @property
    def alphahat(self) -> np.ndarray:
        """The initial law over the ``2p`` original, then anti states."""
        return np.concatenate([self.alphahat_plus, self.alphahat_minus])


class ExitProfile(Record):
    """Per-state exit intensities and conditional landing probabilities.

    ``d_i`` is the total exit rate out of state i (same for original and
    anti), ``q^{+/-}_i`` the conditional probabilities of landing in the
    positive/negative absorbing state given an exit from original state i, and
    ``qbar`` the conditional expected sign of the landing: ``q^+_i - q^-_i``
    from original states, its negative from anti states.
    """

    d: np.ndarray
    qplus: np.ndarray
    qminus: np.ndarray

    @property
    def qbar_original(self) -> np.ndarray:
        return self.qplus - self.qminus

    @property
    def qbar(self) -> np.ndarray:
        """``qbar`` over the ``2p`` original, then anti states."""
        q = self.qbar_original
        return np.concatenate([q, -q])


class DoubledGenerator(Record):
    """Doubled transient block at a rate with its absorption columns and
    termination defect; rows of ``[D | abs_o | abs_a | term]`` sum to zero."""

    D: np.ndarray
    abs_o: np.ndarray
    abs_a: np.ndarray
    term: np.ndarray


def sign_split(T, s) -> SignSplit:
    """Split ``T = T^+ - T^-``, ``s = s^+ - s^-`` by sign.

    Off-diagonal entries go to whichever part matches their sign; the
    (necessarily nonpositive) diagonal stays in ``T^+``.  A positive diagonal
    entry is refused: the elementwise identity ``T = T^+ - T^-`` cannot hold
    for it.
    """
    T = linalg.as_square(T, "T")
    s = linalg.as_vector(s, "s")
    if T.shape[0] != s.shape[0]:
        raise ValueError(f"shape mismatch: T is {T.shape}, s has length {s.shape[0]}")
    diag = np.diag(T)
    if np.any(diag > 0.0):
        bad = int(np.argmax(diag > 0.0))
        raise PositiveDiagonalError(
            f"T[{bad},{bad}] = {diag[bad]:g} > 0: the sign split cannot "
            "reconstruct T; the jump construction requires diag(T) <= 0"
        )
    Tplus = np.maximum(T, 0.0)
    np.fill_diagonal(Tplus, diag)
    Tminus = np.maximum(-T, 0.0)
    np.fill_diagonal(Tminus, 0.0)
    splus = np.maximum(s, 0.0)
    sminus = np.maximum(-s, 0.0)
    # least lam >= 0 making every doubled row sum nonpositive
    rows = (Tplus + Tminus).sum(axis=1) + splus + sminus
    lam0 = float(max(0.0, rows.max()))
    eta = linalg.spectral_abscissa(Tplus + Tminus)
    return SignSplit(
        Tplus=Tplus, Tminus=Tminus, splus=splus, sminus=sminus, lambda0=lam0, eta=eta
    )


def initial_split(alpha) -> InitialSplit:
    """Sign-split the initial vector into the mixture over original/anti states."""
    alpha = linalg.as_vector(alpha, "alpha")
    if not np.any(alpha != 0.0):
        raise ZeroAlphaError("alpha is the zero vector")
    plus = np.maximum(alpha, 0.0)
    minus = np.maximum(-alpha, 0.0)
    wplus = float(plus.sum())
    wminus = float(minus.sum())
    alpha_plus = plus / wplus if wplus > 0.0 else np.zeros_like(alpha)
    alpha_minus = minus / wminus if wminus > 0.0 else np.zeros_like(alpha)
    return InitialSplit(wplus, wminus, alpha_plus, alpha_minus)


def doubled_matrix(split: SignSplit, lam: float) -> np.ndarray:
    """The 2p x 2p block matrix ``[[T^+ - lam I, T^-], [T^-, T^+ - lam I]]``.

    No subintensity requirement is imposed: ``lam = 0`` gives the doubled
    matrix used for untilted recovery even though it may have positive row
    sums.
    """
    A = split.Tplus - lam * np.eye(split.p)
    return np.block([[A, split.Tminus], [split.Tminus, A]])


def _rows(split: SignSplit, lam: float):
    """Refuse a ``lam`` that is not finite or lies below ``lambda_0``, and
    return the per-state exit rates ``d = lam 1 - (T^+ + T^-) 1`` and
    termination defects ``d - s^+ - s^-``.

    The row's total rate ``lam - T_ii`` bounds every weight in it, so a
    defect no larger than ``1e-12`` times that rate is rounding noise and
    reads zero.  So does every negative defect: ``lam`` is at most the slack
    below ``lambda_0``, so it is slack or rounding.  ``d`` is floored at
    ``s^+ + s^-`` to match, so the landing probabilities never sum above one.
    """
    require_finite_rate(lam)
    if lam < split.lambda0 - LAMBDA_SLACK * max(1.0, abs(split.lambda0)):
        raise LambdaTooSmallError(
            f"tilting rate {lam:g} is below lambda_0 = {split.lambda0:g}; "
            "some doubled row would have a positive row sum"
        )
    d = lam - (split.Tplus + split.Tminus).sum(axis=1)
    defect = d - split.splus - split.sminus
    defect[defect <= 1e-12 * (lam - np.diag(split.Tplus))] = 0.0
    return np.maximum(d, split.splus + split.sminus), defect


def build_generator(split: SignSplit, lam: float) -> DoubledGenerator:
    """Assemble the doubled generator at rate ``lam >= lambda_0``.

    The termination defect of row i is
    ``lam - sum_j (T^+ + T^-)_{ij} - s^+_i - s^-_i`` (identical for the
    original and anti copies), with rounding noise read as zero by
    :func:`_rows`, which also refuses a rate below ``lambda_0``.  A
    non-transient rate is built: ``split`` shows it, and :func:`admit_rate`
    refuses it for simulation.
    """
    _, defect = _rows(split, lam)
    D = doubled_matrix(split, lam)
    abs_o = np.concatenate([split.splus, split.sminus])
    abs_a = np.concatenate([split.sminus, split.splus])
    term = np.concatenate([defect, defect])
    return DoubledGenerator(D=D, abs_o=abs_o, abs_a=abs_a, term=term)


def exit_profile(split: SignSplit, lam: float) -> ExitProfile:
    """Exit intensities ``d = lam 1 - (T^+ + T^-) 1`` and conditional landing
    probabilities ``q^{+/-} = s^{+/-} / d`` (zero where ``d_i = 0``)."""
    d, _ = _rows(split, lam)
    qplus = np.zeros(split.p)
    qminus = np.zeros(split.p)
    positive = d > 0.0
    qplus[positive] = split.splus[positive] / d[positive]
    qminus[positive] = split.sminus[positive] / d[positive]
    return ExitProfile(d=d, qplus=qplus, qminus=qminus)


def check_transience(split: SignSplit, lam: float):
    """Whether the doubled transient states are left almost surely at ``lam``.

    Returns ``(transient, abscissa)`` where ``abscissa`` is the spectral
    abscissa of ``D(lam)``.  The eigenvalues of the doubled block are the
    union of those of ``T^+ + T^-`` and ``T^+ - T^- = T`` shifted by ``-lam``.
    ``T^+ + T^-`` is ``T`` with its off-diagonal entries replaced by their
    absolute values, so ``|e^{T x}| <= e^{(T^+ + T^-) x}`` entrywise for
    ``x >= 0`` and the abscissa of ``T`` never exceeds ``eta``, that of
    ``T^+ + T^-``.  The doubled abscissa is therefore ``split.eta - lam``, and
    transience is ``eta < lam``; no eigenproblem is solved here.
    """
    abscissa = split.eta - lam
    return bool(abscissa < 0.0), abscissa


def admit_rate(split: SignSplit, lam: float) -> DoubledGenerator:
    """The one gate on a simulation rate, returning the doubled generator it
    admits.  ``lam`` must be finite and at least ``lambda_0`` (refused while
    :func:`build_generator` builds the generator), make the doubled chain
    transient and leave every state at a positive rate ``lam - T_ii``
    (transience implies it, but ``eta`` is rounded)."""
    gen = build_generator(split, lam)
    transient, abscissa = check_transience(split, lam)
    if not transient:
        raise NotTransientError(
            f"doubled states are not transient at rate {lam:g} "
            f"(spectral abscissa {abscissa:.6g} >= 0)"
        )
    exit_rate = lam - np.diag(split.Tplus)
    if not np.all(exit_rate > 0.0):
        stuck = int(np.argmin(exit_rate))
        raise NotTransientError(f"state o{stuck} has zero total exit rate at rate {lam:g}")
    return gen


def resolve_lambda(split: SignSplit, request) -> float:
    """Resolve a tilting-rate request: a number is passed through, ``"auto"``
    picks ``lambda_0`` when the chain is transient there and ``lambda_0 +
    AUTO_LAMBDA_STEP`` otherwise."""
    if request == "auto":
        lam0 = split.lambda0
        transient, _ = check_transience(split, lam0)
        return lam0 if transient else lam0 + AUTO_LAMBDA_STEP
    return float(request)


def doubled_expm_action(split: SignSplit, lam: float, xs) -> np.ndarray:
    """Rows ``expm(D(lam) x) @ (s; -s)``, one per entry of the 1-d ``xs``.

    The single place the doubled signed vector is built.  No precondition is
    checked: ``lam = 0`` gives the untilted recovery even where ``D(0)`` has a
    nonnegative abscissa.
    """
    D = doubled_matrix(split, lam)
    s = split.splus - split.sminus
    svec = np.concatenate([s, -s])
    out = np.empty((len(xs), 2 * split.p))
    for k, x in enumerate(xs):
        out[k] = linalg.mat_exp(D * x) @ svec
    return out
