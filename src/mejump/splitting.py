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
with a nonnegative defect.  All that a rate fixes about this chain, ``qbar``
included, is one :class:`DoubledGenerator`, built once a run by :func:`build_generator`.

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


class DoubledGenerator(Record):
    """The doubled chain at the rate ``lam``: its abscissa, the block ``D``
    and, once per state (its original and anti copy share them), the
    absorption intensities ``s^{+/-}``, exit rate ``d`` and termination
    defect.  Read off them are transience; the ``2p`` columns of
    ``[D | abs_o | abs_a | term]``, whose rows sum to zero; ``q^{+/-} =
    s^{+/-} / d`` (0 where ``d = 0``), the chances that an exit from an
    original state lands in the positive/negative absorbing state; and
    ``qbar``, the expected sign of that landing (negated on the anti side)."""

    lam: float
    abscissa: float
    D: np.ndarray
    splus: np.ndarray
    sminus: np.ndarray
    d: np.ndarray
    defect: np.ndarray

    @property
    def transient(self) -> bool:
        return bool(self.abscissa < 0.0)

    @property
    def abs_o(self) -> np.ndarray:
        return np.concatenate([self.splus, self.sminus])

    @property
    def abs_a(self) -> np.ndarray:
        return np.concatenate([self.sminus, self.splus])

    @property
    def term(self) -> np.ndarray:
        return np.concatenate([self.defect, self.defect])

    @property
    def qplus(self) -> np.ndarray:
        return np.divide(self.splus, self.d, out=np.zeros_like(self.d), where=self.d > 0.0)

    @property
    def qminus(self) -> np.ndarray:
        return np.divide(self.sminus, self.d, out=np.zeros_like(self.d), where=self.d > 0.0)

    @property
    def qbar_original(self) -> np.ndarray:
        return self.qplus - self.qminus

    @property
    def qbar(self) -> np.ndarray:
        q = self.qbar_original
        return np.concatenate([q, -q])


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


def build_generator(split: SignSplit, lam: float) -> DoubledGenerator:
    """The doubled chain at a finite rate ``lam``, refused below ``lambda_0``.
    A non-transient rate is built: ``split`` shows it, :func:`admit_rate`
    refuses it.  State i exits at rate ``d_i = lam - sum_j (T^+ + T^-)_{ij}``
    with defect ``d_i - s^+_i - s^-_i``.  Its total rate ``lam - T_ii`` bounds
    every weight in the row, so a defect no larger than ``1e-12`` times that
    is rounding noise and reads zero, as does any negative defect (``lam``
    is then at most the slack below ``lambda_0``).  ``d`` is floored at
    ``s^+ + s^-`` to match, so the landing probabilities sum to at most one.
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
    return DoubledGenerator(
        lam=lam, abscissa=check_transience(split, lam)[1], D=doubled_matrix(split, lam),
        splus=split.splus, sminus=split.sminus,
        d=np.maximum(d, split.splus + split.sminus), defect=defect,
    )


#: The builder under the name ``modelio.plan`` calls, which ``benchmarks/probe.py`` times.
exit_profile = build_generator


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


def admit_rate(gen: DoubledGenerator):
    """The one gate on a simulation rate: it refuses the chain ``gen`` unless
    it is transient and leaves every state at a positive rate ``-D_ii = lam -
    T_ii`` (transience implies it; ``eta`` is rounded).  A rate that is not
    finite or is below ``lambda_0`` has no chain: the builder refuses it."""
    if not gen.transient:
        raise NotTransientError(
            f"doubled states are not transient at rate {gen.lam:g} "
            f"(spectral abscissa {gen.abscissa:.6g} >= 0)"
        )
    exit_rate = -np.diag(gen.D)[: gen.d.size]  # the anti half repeats it
    if not np.all(exit_rate > 0.0):
        stuck = int(np.argmin(exit_rate))
        raise NotTransientError(f"state o{stuck} has zero total exit rate at rate {gen.lam:g}")


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
