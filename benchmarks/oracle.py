"""Correctness gates for the benchmark: exact oracles computed here, from the
model file alone, and checks of each CLI output against them.

The gates do not call the package under test.  Bin averages of the tilted
density come from ``expm`` of the augmented matrix ``[[T - lam I, s], [0, 0]]``,
whose top-right column is ``int_0^x e^{(T - lam I) u} du s``.  The path-law
predictions come from the embedded jump chain of the doubled generator, which
``doubled_chain`` builds here from the model by the paper's sign split, at
the tilting rate the CLI printed; that rate is itself checked against
``lambda_0`` and transience computed here.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from statistics import NormalDist

import numpy as np
import scipy.linalg

#: Chance that a correct invocation fails any band check of the gate.  The
#: per-check band is widened from 4 stderr by Bonferroni over all checks of
#: one invocation: at a flat 4 stderr, the 80 band checks of ref-estimate
#: reject about one correct seed in two hundred.
FAMILY_FALSE_ALARM = 1e-5

#: Per-bin band never narrower than this many standard errors.
MIN_BAND_SIGMAS = 4.0

#: Path-law observations must lie within this many standard errors of the
#: exact prediction.
LAW_SIGMAS = 5.0

#: Bins with no signed signal pass when fewer signed hits than this were
#: expected (the acceptance rule of ``mejump.acceptance``).
NO_SIGNAL_MAX_EXPECTED_HITS = 10.0

#: Relative agreement required between a printed analytic value and ours.
ANALYTIC_RTOL = 1e-7

ESTIMATE_CSV_HEADER = (
    "x_mid,f_tilted_analytic,est_beta,stderr_beta,est_qbar,stderr_qbar,n_hits"
)


def band_sigmas(n_checks: int) -> float:
    """Band half-width in standard errors for ``n_checks`` simultaneous checks."""
    z = NormalDist().inv_cdf(1.0 - FAMILY_FALSE_ALARM / (2.0 * n_checks))
    return max(MIN_BAND_SIGMAS, z)


def load_model(path):
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    return (
        np.array(raw["alpha"], dtype=float),
        np.array(raw["T"], dtype=float),
        np.array(raw["s"], dtype=float),
    )


def grid_edges(grid: dict) -> np.ndarray:
    delta = (grid["x_max"] - grid["x_min"]) / grid["n_bins"]
    return grid["x_min"] + delta * np.arange(grid["n_bins"] + 1)


def tilted_bin_averages(alpha, T, s, lam: float, edges) -> np.ndarray:
    """Exact bin averages of the density ``e^{-lam x} f(x) / L(lam)``."""
    p = alpha.shape[0]
    aug = np.zeros((p + 1, p + 1))
    aug[:p, :p] = T - lam * np.eye(p)
    aug[:p, p] = s
    cum = np.array([alpha @ scipy.linalg.expm(aug * x)[:p, p] for x in edges])
    norm = alpha @ np.linalg.solve(lam * np.eye(p) - T, s)
    return np.diff(cum) / (norm * np.diff(edges))


def exp_decay_expectation(alpha, T, s, c: float) -> float:
    """Exact ``E[e^{-c X}] = alpha (c I - T)^{-1} s``."""
    return float(alpha @ np.linalg.solve(c * np.eye(alpha.shape[0]) - T, s))


@dataclass
class Verdict:
    """Outcome of checking one invocation's output."""

    problems: list = field(default_factory=list)
    sigma: float | None = None  # qbar standard error that tta_s uses
    max_z: float = 0.0  # largest |estimate - analytic| / stderr seen
    lam: float | None = None  # tilting rate the CLI printed
    var_ratio: float | None = None  # median (stderr_qbar / stderr_beta)^2

    @property
    def ok(self) -> bool:
        return not self.problems


def _field(pattern: str, text: str, what: str, verdict: Verdict):
    m = re.search(pattern, text, re.MULTILINE)
    if m is None:
        verdict.problems.append(f"output lacks {what}")
        return None
    return m


def parse_csv(text: str):
    lines = text.splitlines()
    if not lines or lines[0] != ESTIMATE_CSV_HEADER:
        raise ValueError("unexpected CSV header")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return {name: rows[:, k] for k, name in enumerate(ESTIMATE_CSV_HEADER.split(","))}


def band_failures(est, stderr, analytic, k, no_signal_ok):
    """Indices of bins outside ``k`` stderr; no-signal bins (estimate and
    stderr both zero) take the verdict in ``no_signal_ok`` instead."""
    no_signal = (est == 0.0) & (stderr == 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(no_signal, 0.0, np.abs(est - analytic) / stderr)
    z[np.isnan(z)] = np.inf
    bad = np.where(no_signal, ~no_signal_ok, ~(z <= k))
    return np.flatnonzero(bad), float(np.max(z, initial=0.0))


def check_estimate(csv_text, stdout, model, config, golden=None) -> Verdict:
    """Gate for one ``mejump estimate`` output.

    ``model`` is ``(alpha, T, s)``; ``config`` is the run config the CLI was
    given; ``golden`` is the CSV text the output must equal, if any.
    """
    v = Verdict()
    lam_m = _field(r"^lambda: (\S+)", stdout, "the lambda line", v)
    scale_m = _field(r"^scale \(w_total / normalizer\): (\S+)", stdout, "the scale line", v)
    try:
        cols = parse_csv(csv_text)
    except ValueError as exc:
        v.problems.append(f"unreadable CSV: {exc}")
        return v
    if lam_m is None or scale_m is None:
        return v
    lam, scale = float(lam_m.group(1)), float(scale_m.group(1))
    if not _lambda_ok(lam, model, config, v):
        return v
    grid = config["grid"]
    edges = grid_edges(grid)
    n = config["n_paths"]
    if cols["x_mid"].shape[0] != grid["n_bins"]:
        v.problems.append(f"CSV has {cols['x_mid'].shape[0]} bins, expected {grid['n_bins']}")
        return v
    exact = tilted_bin_averages(*model, lam, edges)
    tol = ANALYTIC_RTOL * np.abs(exact).max()
    off = np.flatnonzero(np.abs(cols["f_tilted_analytic"] - exact) > tol)
    if off.size:
        v.problems.append(f"f_tilted_analytic differs from the exact bin averages in bins {off.tolist()}")
    # acceptance rule: a bin without signed signal passes only when the exact
    # signed mass would have produced few signed hits
    expected_hits = np.abs(exact) * np.diff(edges) * n / max(abs(scale), 1e-300)
    no_signal_ok = expected_hits <= NO_SIGNAL_MAX_EXPECTED_HITS
    k = band_sigmas(2 * grid["n_bins"])
    for name in ("beta", "qbar"):
        bad, max_z = band_failures(
            cols[f"est_{name}"], cols[f"stderr_{name}"], exact, k, no_signal_ok
        )
        v.max_z = max(v.max_z, max_z)
        if bad.size:
            v.problems.append(f"est_{name} outside {k:.2f} stderr of the exact value in bins {bad.tolist()}")
    v.sigma = float(cols["stderr_qbar"].max())
    both = (cols["stderr_beta"] > 0.0) & (cols["stderr_qbar"] > 0.0)
    if both.any():
        v.var_ratio = float(np.median((cols["stderr_qbar"][both] / cols["stderr_beta"][both]) ** 2))
    if golden is not None and csv_text != golden:
        v.problems.append("CSV differs from the golden CSV")
    return v


def check_expect(stdout, model, config) -> Verdict:
    """Gate for one ``mejump expect`` output (integrand ``exp-decay``)."""
    v = Verdict()
    num = r"(-?[0-9.eE+-]+)"
    lam_m = _field(r"^lambda: (\S+)", stdout, "the lambda line", v)
    a_m = _field(rf"^analytic value: {num}$", stdout, "the analytic value", v)
    forms = {
        name: _field(rf"^{name} form:\s+{num} \+- {num}$", stdout, f"the {name} form", v)
        for name in ("beta", "qbar")
    }
    if lam_m is None or a_m is None or None in forms.values():
        return v
    if not _lambda_ok(float(lam_m.group(1)), model, config, v):
        return v
    exact = exp_decay_expectation(*model, config["h"]["c"])
    printed = float(a_m.group(1))
    if abs(printed - exact) > ANALYTIC_RTOL * abs(exact):
        v.problems.append(f"analytic value {printed!r} differs from exact {exact!r}")
    k = band_sigmas(len(forms))
    for name, m in forms.items():
        value, stderr = float(m.group(1)), float(m.group(2))
        z = abs(value - exact) / stderr if stderr > 0.0 else math.inf
        v.max_z = max(v.max_z, z)
        if not z <= k:
            v.problems.append(f"{name} form {value!r} +- {stderr!r} is {z:.2f} stderr from exact {exact!r}")
    v.sigma = float(forms["qbar"].group(2))
    beta_se = float(forms["beta"].group(2))
    if beta_se > 0.0:
        v.var_ratio = (v.sigma / beta_se) ** 2
    return v


def sign_split(T, s):
    """``T = T^+ - T^-`` and ``s = s^+ - s^-`` by sign, the diagonal of ``T``
    kept in ``T^+``; returns ``(T^+, T^-, s^+, s^-)``."""
    diag = np.diag(np.diag(T))
    off = T - diag
    return np.maximum(off, 0.0) + diag, np.maximum(-off, 0.0), np.maximum(s, 0.0), np.maximum(-s, 0.0)


def lambda_zero(T, s) -> float:
    """Least ``lam >= 0`` for which no doubled row has a positive row sum."""
    Tp, Tm, sp, sm = sign_split(T, s)
    return float(max(0.0, ((Tp + Tm).sum(axis=1) + sp + sm).max()))


def doubled_chain(alpha, T, s, lam: float):
    """The doubled original/anti generator at rate ``lam``: returns ``(D,
    abs_o, abs_a, term, alphahat)``, where ``D = [[T^+ - lam I, T^-], [T^-,
    T^+ - lam I]]``, the absorption rates are ``(s^+; s^-)`` into the positive
    and ``(s^-; s^+)`` into the negative state, ``term`` makes every row of
    ``[D | abs_o | abs_a | term]`` sum to zero, and ``alphahat = (alpha^+;
    alpha^-) / |alpha|_1`` is the initial law."""
    Tp, Tm, sp, sm = sign_split(T, s)
    A = Tp - lam * np.eye(T.shape[0])
    D = np.block([[A, Tm], [Tm, A]])
    half = lam - (Tp + Tm).sum(axis=1) - sp - sm
    term = np.clip(np.concatenate([half, half]), 0.0, None)
    alphahat = np.concatenate([np.maximum(alpha, 0.0), np.maximum(-alpha, 0.0)])
    return D, np.concatenate([sp, sm]), np.concatenate([sm, sp]), term, alphahat / alphahat.sum()


def _lambda_ok(lam: float, model, config, v: Verdict) -> bool:
    """Check the printed tilting rate: the configured number if one was
    given, and in every case at least ``lambda_0`` with transient states."""
    alpha, T, s = model
    v.lam = lam
    before = len(v.problems)
    lam0 = lambda_zero(T, s)
    D = doubled_chain(alpha, T, s, lam)[0] if lam >= lam0 * (1.0 - 1e-12) else None
    requested = config.get("lambda", "auto")
    if requested != "auto" and lam != float(requested):
        v.problems.append(f"lambda {lam!r} is not the configured {requested!r}")
    elif D is None:
        v.problems.append(f"lambda {lam!r} is below lambda_0 = {lam0!r}")
    elif np.linalg.eigvals(D).real.max() >= 0.0:
        v.problems.append(f"the doubled chain is not transient at lambda {lam!r}")
    return len(v.problems) == before


def path_law(model, lam: float) -> dict:
    """Exact path-law predictions from the embedded jump chain at ``lam``.

    ``P = offdiag(D) / rate`` with ``rate = -diag(D)``; the number of jumps
    ``J`` has ``E J = alphahat (I-P)^{-1} 1`` and ``E J^2 = alphahat
    (I-P)^{-1} (2 (I-P)^{-1} 1 - 1)``, and the landing probabilities are
    ``alphahat (I-P)^{-1} [abs_o | abs_a | term] / rate``.
    """
    D, abs_o, abs_a, term, alphahat = doubled_chain(*model, lam)
    rate = -np.diag(D)
    P = D / rate[:, None]
    np.fill_diagonal(P, 0.0)
    A = np.eye(rate.shape[0]) - P
    visits = np.linalg.solve(A.T, alphahat)
    steps = np.linalg.solve(A, np.ones(rate.shape[0]))
    mean = float(visits.sum())
    second = float(visits @ (2.0 * steps - 1.0))
    return {
        "jumps_per_path": mean,
        "jumps_var": max(second - mean * mean, 0.0),
        "pos_frac": float(visits @ (abs_o / rate)),
        "neg_frac": float(visits @ (abs_a / rate)),
        "term_frac": float(visits @ (term / rate)),
    }


def law_check(observed: dict, exact: dict, n: int) -> list:
    """Observations more than ``LAW_SIGMAS`` standard errors from the exact
    path law; ``observed`` holds the means over ``n`` paths."""
    problems = []
    sds = {"jumps_per_path": math.sqrt(exact["jumps_var"] / n)}
    for key in ("pos_frac", "neg_frac", "term_frac"):
        p = exact[key]
        sds[key] = math.sqrt(max(p * (1.0 - p), 0.0) / n)
    for key, sd in sds.items():
        gap = abs(observed[key] - exact[key])
        if gap > LAW_SIGMAS * sd and gap > 1e-12:
            problems.append(
                f"{key} observed {observed[key]:.6g}, exact {exact[key]:.6g} "
                f"({gap / sd if sd else math.inf:.1f} sigma)"
            )
    return problems
