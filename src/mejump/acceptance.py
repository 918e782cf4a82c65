"""Acceptance checks for the built-in reference model.

Every check compares the library against values derived independently of the
code path under test: the closed-form density ``(2/3) e^{-x}(1 + cos x)`` of
the reference model and hand antiderivatives of its tilted versions, plus
frozen rationals like the tilting normalizer 19/45.  Monte-Carlo checks use
the estimators' own standard errors with 4-sigma bands, except the one-state
check, whose closed-form law gives each bin's exact binomial standard error.

``run_all`` returns one result per criterion; the CLI renders them as a table
and the test suite asserts each.
"""

from __future__ import annotations

import math
import tempfile
import time
from pathlib import Path

import numpy as np

from . import linalg, medist
from .estimators import (
    Grid,
    HSpec,
    analytic_untilted_doubled,
    count_exits,
    decay_cancellation_check,
    mc_density_beta,
    mc_expectation_untilted,
)
from .modelio import RunConfig, plan, run_estimate, simulate, write_model
from .models import (
    exponential_model,
    phase_type_example,
    random_me_model,
    reference_density,
    reference_model,
)
from .records import Record
from .splitting import doubled_matrix, initial_split, sign_split

#: Exact normalizer of the rate-2 tilt of the reference model; both the
#: resolvent solve and quadrature of e^{-2x} f(x) give 19/45.  The value 4
#: quoted elsewhere for this model does not normalize the tilted density and
#: is treated as an erratum.
REFERENCE_NORMALIZER = 19.0 / 45.0

ERRATUM_NOTE = (
    "normalizer of the rate-2 tilt is 19/45 = 0.42222...; the previously "
    "quoted value 4 for this model is inconsistent with both oracles "
    "(resolvent solve and quadrature) and is flagged as an erratum"
)

# Expected doubled block at rate 2 for the reference model, written by hand.
_EXPECTED_DOUBLED_AT_2 = np.array(
    [
        [-3.0, 0.0, 2.0 / 3.0, 0.0, 1.0, 0.0],
        [1.0, -3.0, 0.0, 0.0, 0.0, 2.0 / 3.0],
        [0.0, 0.0, -3.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, -3.0, 0.0, 2.0 / 3.0],
        [0.0, 0.0, 2.0 / 3.0, 1.0, -3.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, -3.0],
    ]
)


class CriterionResult(Record):
    cid: int
    title: str
    passed: bool
    detail: str
    extra: tuple | None = None


def _exp_cos_antiderivative(a: float, x: float) -> float:
    """Antiderivative of ``e^{-a x}(1 + cos x)``."""
    return -math.exp(-a * x) / a + math.exp(-a * x) * (
        math.sin(x) - a * math.cos(x)
    ) / (a * a + 1.0)


def reference_laplace(lam: float) -> float:
    """Closed form of ``int e^{-lam x} (2/3) e^{-x}(1 + cos x) dx``."""
    a = 1.0 + lam
    return (2.0 / 3.0) * (1.0 / a + a / (a * a + 1.0))


def reference_tilted_bin_averages(lam: float, grid: Grid) -> np.ndarray:
    """Bin averages of the tilted reference density, by hand antiderivative."""
    a = 1.0 + lam
    edges = grid.edges
    lt = reference_laplace(lam)
    out = np.empty(grid.n_bins)
    for b in range(grid.n_bins):
        integral = (2.0 / 3.0) * (
            _exp_cos_antiderivative(a, edges[b + 1])
            - _exp_cos_antiderivative(a, edges[b])
        )
        out[b] = integral / (lt * grid.delta)
    return out


def _band_check(estimate, analytic, n_paths: int, k: float = 4.0, stderr=None):
    """Per-bin |estimate - analytic| <= k * stderr, the estimate's own sample
    stderr unless ``stderr`` gives each bin's exact one.

    Bins with no signed signal at all (estimate and stderr both exactly zero:
    no hits, or only terminated paths) carry no stderr information; they pass
    only if the analytic signed mass alone would have produced fewer than 10
    expected hits, i.e. seeing no signed hit is statistically consistent.  At
    the pinned acceptance scale every bin has signal and the plain band
    applies everywhere.
    """
    if stderr is None:
        stderr = estimate.stderr
    diff = np.abs(estimate.estimate - analytic)
    no_signal = (estimate.stderr == 0.0) & (estimate.estimate == 0.0)
    ok = np.zeros(analytic.shape[0], dtype=bool)
    ok[~no_signal] = diff[~no_signal] <= k * stderr[~no_signal]
    if np.any(no_signal):
        expected_signed = (
            np.abs(analytic[no_signal])
            * estimate.grid.delta
            * n_paths
            / max(abs(estimate.scale), 1e-300)
        )
        ok[no_signal] = expected_signed <= 10.0
    return ok, int(np.sum(no_signal))


def _multiset_close(a, b, tol: float) -> bool:
    a = list(np.asarray(a, dtype=complex))
    b = list(np.asarray(b, dtype=complex))
    if len(a) != len(b):
        return False
    for x in a:
        dists = [abs(x - y) for y in b]
        j = int(np.argmin(dists))
        if dists[j] > tol:
            return False
        b.pop(j)
    return True


def criterion_1(params) -> CriterionResult:
    t0 = time.perf_counter()
    report = medist.validate(params)
    elapsed = time.perf_counter() - t0
    ok = (
        abs(report.sigma0 - (-1.0)) <= 1e-9
        and abs(report.normalization - 1.0) <= 1e-9
        and elapsed < 1.0
    )
    return CriterionResult(
        1,
        "reference model validates: dominant eigenvalue -1, unit mass",
        ok,
        f"sigma0={report.sigma0:.12g}, normalization={report.normalization:.12g}, "
        f"runtime={elapsed:.3f}s",
    )


def criterion_2(split) -> CriterionResult:
    d2 = doubled_matrix(split, 2.0)
    ok = abs(split.lambda0 - 2.0) <= 1e-12 and np.array_equal(d2, _EXPECTED_DOUBLED_AT_2)
    return CriterionResult(
        2,
        "tilting threshold is 2 and the doubled block at rate 2 is exact",
        ok,
        f"lambda0={split.lambda0!r}, entrywise-exact={np.array_equal(d2, _EXPECTED_DOUBLED_AT_2)}",
    )


def criterion_3(params) -> CriterionResult:
    xs = np.linspace(0.0, 10.0, 101)
    M = params.T - 2.0 * np.eye(params.p)
    got = np.array([params.alpha @ linalg.mat_exp(M * x) @ params.s for x in xs])
    want = (2.0 / 3.0) * np.exp(-3.0 * xs) * (1.0 + np.cos(xs))
    err = float(np.abs(got - want).max())
    return CriterionResult(
        3,
        "unnormalized rate-2 tilt matches (2/3) e^{-3x}(1 + cos x)",
        err < 1e-9,
        f"max abs error {err:.3e} over x in [0,10] step 0.1",
    )


def criterion_4(params) -> CriterionResult:
    lt_solve = medist.laplace_transform(params, 2.0)
    # e^{-2x} f(x) = e^{-x} (e^{-x} f(x)): the Gauss-Laguerre weights carry
    # the first factor
    nodes, weights = np.polynomial.laguerre.laggauss(32)
    lt_quad = float(weights @ (np.exp(-nodes) * medist.density(params, nodes)))
    agree = abs(lt_solve - lt_quad)
    ok = agree <= 1e-8 and abs(lt_solve - REFERENCE_NORMALIZER) <= 1e-10
    return CriterionResult(
        4,
        "tilt normalizer cross-oracle: solve vs quadrature, value 19/45",
        ok,
        f"solve={lt_solve:.12g}, quad={lt_quad:.12g} "
        f"(32-node Gauss-Laguerre), diff={agree:.3e}; {ERRATUM_NOTE}",
    )


def criterion_5(params, split) -> CriterionResult:
    worst = 0.0
    for lam in (2.0, 3.0):
        D = doubled_matrix(split, lam)
        M = params.T - lam * np.eye(params.p)
        for x in (0.5, 1.0, 5.0):
            E = linalg.mat_exp(D * x)
            p = params.p
            err = np.abs((E[:p, :p] - E[:p, p:]) - linalg.mat_exp(M * x)).max()
            worst = max(worst, float(err))
    return CriterionResult(
        5,
        "difference of doubled exp blocks equals exp((T - lam I) x)",
        worst < 1e-9,
        f"max abs error {worst:.3e} over lam in {{2,3}}, x in {{0.5,1,5}}",
    )


def criterion_6(params, split) -> CriterionResult:
    cases = [(params, split, 2.0)]
    rng = np.random.default_rng(20260809)
    for _ in range(10):
        m = random_me_model(int(rng.integers(2, 5)), rng)
        sp = sign_split(m.T, m.s)
        cases.append((m, sp, sp.lambda0 + 0.5))
    ok = True
    for m, sp, lam in cases:
        D = doubled_matrix(sp, lam)
        eig_d = linalg.eigenvalues(D)
        union = np.concatenate(
            [linalg.eigenvalues(sp.Tplus + sp.Tminus), linalg.eigenvalues(m.T)]
        ) - lam
        if not _multiset_close(eig_d, union, 1e-8):
            ok = False
            break
    return CriterionResult(
        6,
        "doubled eigenvalues are eig(T) union eig(T^+ + T^-), shifted by -lam",
        ok,
        f"checked reference model and 10 random models (p <= 4), tol 1e-8",
    )


def criterion_7(run, elapsed: float) -> CriterionResult:
    grid = run.config.grid
    n = len(run.batch)
    analytic = reference_tilted_bin_averages(run.plan.profile.lam, grid)
    ok4, n_empty = _band_check(run.est_beta, analytic, n, 4.0)
    ok3, _ = _band_check(run.est_beta, analytic, n, 3.0)
    frac3 = ok3.mean()
    passed = bool(ok4.all()) and frac3 >= 0.99 and elapsed < 60.0
    return CriterionResult(
        7,
        "signed-landing density estimate within 4 stderr bin-by-bin",
        passed,
        f"{int(ok4.sum())}/{grid.n_bins} bins within 4 stderr, "
        f"{frac3:.1%} within 3 stderr, {n_empty} no-signal bins, "
        f"sim+estimate {elapsed:.1f}s (n={n})",
    )


def criterion_8(run) -> CriterionResult:
    grid = run.config.grid
    est_b, est_q = run.est_beta, run.est_qbar
    analytic = reference_tilted_bin_averages(run.plan.profile.lam, grid)
    ok4, _ = _band_check(est_q, analytic, len(run.batch), 4.0)
    both = (est_b.stderr > 0) & (est_q.stderr > 0)
    ratio = np.full(grid.n_bins, np.nan)
    ratio[both] = (est_q.stderr[both] / est_b.stderr[both]) ** 2
    reduced = ratio[both] <= 1.0
    frac = reduced.mean() if reduced.size else 0.0
    passed = bool(ok4.all()) and frac >= 0.9
    table = ["bin_x_mid  var_qbar/var_beta"]
    for mid, r in zip(grid.mids, ratio):
        val = f"{r:.4f}" if np.isfinite(r) else "n/a"
        table.append(f"{mid:9.2f}  {val}")
    return CriterionResult(
        8,
        "pre-exit-weighted density passes the same bands with variance never "
        "above the signed-landing estimator in >= 90% of bins",
        passed,
        f"{int(ok4.sum())}/{grid.n_bins} bins within 4 stderr; variance reduced "
        f"in {frac:.1%} of comparable bins (median ratio "
        f"{np.median(ratio[both]) if both.any() else math.nan:.3f})",
        extra=tuple(table),
    )


def criterion_9(run) -> CriterionResult:
    h = HSpec("exp-decay", 2.0)
    est_b = mc_expectation_untilted(run.batch, h, run.plan.profile, run.plan.init, form="beta")
    est_q = mc_expectation_untilted(run.batch, h, run.plan.profile, run.plan.init, form="qbar")
    target = REFERENCE_NORMALIZER
    ok = abs(est_b.value - target) <= 4 * est_b.stderr and abs(
        est_q.value - target
    ) <= 4 * est_q.stderr
    return CriterionResult(
        9,
        "untilted expectation of e^{-2x} recovers 19/45 in both forms",
        ok,
        f"beta {est_b.value:.6f} +- {est_b.stderr:.2e}, "
        f"qbar {est_q.value:.6f} +- {est_q.stderr:.2e}, target {target:.6f}",
    )


def _one_state_band(batch, rate: float = 2.0):
    """Which of 30 bins of ``[0, 3]`` hold the one-state model's density
    estimate within 4 exact stderr of the target density ``e^{-rate x}``.

    Every landing of the one-state model is positive, so a bin's hit count
    is binomial with the bin's mass ``p`` under the target, and its exact
    stderr is ``sqrt(p (1 - p) / n) / delta``; the sample stderr of a
    sparse tail bin is too poorly estimated to band it at 4 sigma."""
    grid = Grid(0.0, 3.0, 30)
    est = mc_density_beta(count_exits(batch, grid), 1.0)
    edges = grid.edges
    mass = (np.exp(-rate * edges[:-1]) - np.exp(-rate * edges[1:])) / rate
    stderr = np.sqrt(mass * (1.0 - mass) / len(batch)) / grid.delta
    return _band_check(est, mass / grid.delta, len(batch), 4.0, stderr)[0]


def criterion_10(cfg) -> CriterionResult:
    batch = simulate(plan(exponential_model(1.0), 1.0), cfg)
    mean_tau = float(batch.tau.mean())
    # one path has no sample stderr; nan fails the mean check
    se_tau = float(batch.tau.std(ddof=1)) / math.sqrt(len(batch)) if len(batch) > 1 else math.nan
    mean_ok = abs(mean_tau - 0.5) <= 4 * se_tau
    ok4 = _one_state_band(batch)
    return CriterionResult(
        10,
        "one-state sanity: mean exit time 1/2, signed density e^{-2x}",
        mean_ok and bool(ok4.all()),
        f"mean tau {mean_tau:.5f} +- {se_tau:.1e} (target 0.5); "
        f"{int(ok4.sum())}/{ok4.size} bins within 4 exact stderr",
    )


def criterion_11(split) -> CriterionResult:
    ratios = decay_cancellation_check(split, -1.0, [5.0, 10.0, 20.0])
    abscissa = linalg.spectral_abscissa(doubled_matrix(split, 0.0))
    ok = bool(np.all(ratios <= 10.0)) and abs(abscissa) <= 1e-8
    return CriterionResult(
        11,
        "signed vector decays at rate e^{-x} although the untilted doubled "
        "block has abscissa 0",
        ok,
        f"ratios {np.array2string(ratios, precision=3)} (<= 10), "
        f"doubled abscissa {abscissa:.2e}",
    )


def criterion_12(ref_plan) -> CriterionResult:
    xs = np.linspace(0.0, 10.0, 101)
    got = analytic_untilted_doubled(ref_plan.split, ref_plan.init, xs)
    err = float(np.abs(got - reference_density(xs)).max())
    pt = phase_type_example()
    pt_split = sign_split(pt.T, pt.s)
    pt_init = initial_split(pt.alpha)
    xs2 = np.linspace(0.0, 5.0, 26)
    got_pt = analytic_untilted_doubled(pt_split, pt_init, xs2)
    direct = np.array([pt.alpha @ linalg.mat_exp(pt.T * x) @ pt.s for x in xs2])
    err_pt = float(np.abs(got_pt - direct).max())
    ok = err <= 1e-8 and err_pt <= 1e-10
    return CriterionResult(
        12,
        "untilted recovery through the doubled system matches the density",
        ok,
        f"reference max err {err:.2e} (<= 1e-8); phase-type max err "
        f"{err_pt:.2e} (<= 1e-10)",
    )


def criterion_13(cfg) -> CriterionResult:
    import contextlib
    import io

    from . import cli  # deferred: cli imports this module

    n = min(cfg.n_paths, 100_000)
    # four chunks when there are four paths to fill them, so the 4-worker run
    # uses every worker it can
    chunk = math.ceil(n / 4)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        model_path = tmp / "model.json"
        write_model(reference_model(), model_path, name="reference")
        outputs = []
        codes = []
        for tag, workers in (("a", 1), ("b", 1), ("c", 4)):
            out = tmp / f"out_{tag}.csv"
            args = [
                "estimate", str(model_path), "--lambda", str(cfg.lam), "--paths", str(n),
                "--seed", str(cfg.seed), "--chunk", str(chunk), "--workers", str(workers),
                "--out", str(out),
            ]
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(cli.main(args))
            outputs.append(out.read_bytes())
    ok = all(c == 0 for c in codes) and outputs[0] == outputs[1] == outputs[2]
    return CriterionResult(
        13,
        "estimate CSV is byte-identical across runs and worker counts",
        ok,
        f"exit codes {codes}; identical={outputs[0] == outputs[1] == outputs[2]} "
        f"(n={n}, lambda={cfg.lam}, {len(range(0, n, chunk))} chunks, workers 1/1/4)",
    )


def run_all(cfg: RunConfig):
    """Run every acceptance criterion on one plan of the reference model at
    ``cfg``; raises before any criterion runs if ``cfg.lam`` is below its
    threshold, and when criteria 7-9 simulate the plan's chain if the rate
    gate refuses it."""
    params = reference_model()
    ref_plan = plan(params, cfg.lam)
    split = ref_plan.split

    results = [
        criterion_1(params),
        criterion_2(split),
        criterion_3(params),
        criterion_4(params),
        criterion_5(params, split),
        criterion_6(params, split),
    ]
    # criteria 7-9 check the run `mejump estimate` makes, on its default grid
    t0 = time.perf_counter()
    run = run_estimate(ref_plan, cfg)
    results.append(criterion_7(run, time.perf_counter() - t0))
    results.append(criterion_8(run))
    results.append(criterion_9(run))
    results.append(criterion_10(cfg))
    results.append(criterion_11(split))
    results.append(criterion_12(ref_plan))
    results.append(criterion_13(cfg))
    return results


def format_table(results) -> str:
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"[{status}] {r.cid:>2}  {r.title}")
        lines.append(f"          {r.detail}")
    return "\n".join(lines)
