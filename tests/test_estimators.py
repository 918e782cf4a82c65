import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings, strategies as st

from mejump import linalg, medist, modelio, splitting
from mejump.estimators import (
    Grid,
    HSpec,
    analytic_untilted_doubled,
    decay_cancellation_check,
    finalize_density,
    mc_density_beta,
    mc_density_qbar,
    mc_expectation_untilted,
    tilted_bin_averages,
)
from mejump.jumpsim import SIGN_OF_LANDING, PathBatch, simulate_batch
from mejump.models import (
    exponential_model,
    random_me_model,
    random_phase_type,
    reference_model,
)


def one_chunk_batch(p, tau, pre_exit, landing):
    """A hand-made single-chunk batch of ``len(tau)`` paths; each path's
    sign is the one its landing implies."""
    return PathBatch(
        p=p,
        chunk=max(1, len(tau)),
        tau=np.asarray(tau, dtype=float),
        pre_exit=np.asarray(pre_exit, dtype=np.int32),
        landing=np.asarray(landing, dtype=np.int8),
        n_jumps=np.ones(len(tau), dtype=np.int32),
    )


def reference_density(batch, grid, scale, profile=None):
    """The mask-gather fold the package's folds must equal bit for bit.

    Per generation chunk: keep the times inside ``[x_min, x_max)``, truncate
    their quotients to int64 and clip to the bins, then ``bincount`` the
    weights, squared weights and hits in path order; the chunks' partial sums
    are merged left to right, in chunk order.  The weight is the landing sign,
    or with a ``profile`` the ``qbar`` of the pre-exit state.
    """
    if profile is None:
        weight_of_code, codes = SIGN_OF_LANDING, batch.landing
    else:
        q = profile.qbar_original
        weight_of_code, codes = np.concatenate([q, -q]), batch.pre_exit
    total = None
    for sl in batch.chunk_slices():
        tau = batch.tau[sl]
        inside = (tau >= grid.x_min) & (tau < grid.x_max)
        idx = ((tau[inside] - grid.x_min) / grid.delta).astype(np.int64)
        np.clip(idx, 0, grid.n_bins - 1, out=idx)
        w = weight_of_code[codes[sl]][inside].astype(float)
        part = (
            np.bincount(idx, weights=w, minlength=grid.n_bins),
            np.bincount(idx, weights=w * w, minlength=grid.n_bins),
            np.bincount(idx, minlength=grid.n_bins).astype(np.int64),
        )
        total = part if total is None else tuple(a + b for a, b in zip(total, part))
    return finalize_density(*total, len(batch), grid, scale)


def assert_same_bits(got, want):
    for field in ("estimate", "stderr", "n_hits"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field
    assert got.scale == want.scale


def make_batch(params, lam, n, seed, chunk=20_000):
    split = splitting.sign_split(params.T, params.s)
    init = splitting.initial_split(params.alpha)
    batch = simulate_batch(split, lam, init, n_paths=n, seed=seed, chunk=chunk)
    scale = init.w_total / medist.laplace_transform(params, lam)
    return split, init, batch, scale


class TestGrid:
    def test_properties(self):
        g = Grid(0.0, 4.0, 40)
        assert g.delta == 0.1
        assert g.edges[0] == 0.0 and g.edges[-1] == pytest.approx(4.0)
        assert g.mids[0] == pytest.approx(0.05)

    @pytest.mark.parametrize(
        "args",
        [(-1.0, 4.0, 10), (2.0, 1.0, 10), (0.0, 1.0, 0), (0.0, np.inf, 10)],
    )
    def test_invalid(self, args):
        with pytest.raises(ValueError):
            Grid(*args)


class TestDensityBeta:
    def test_exponential_total_signed_mass(self):
        params = exponential_model(1.0)
        split, init, batch, scale = make_batch(params, 1.0, 200_000, seed=8)
        # single wide bin: scale * E[beta] should be 1 (a density has mass one)
        est = mc_density_beta(batch, Grid(0.0, 40.0, 1), scale)
        total = est.estimate[0] * 40.0
        se = est.stderr[0] * 40.0
        assert abs(total - 1.0) <= 4 * se

    def test_all_terminated_gives_zero(self):
        # s = 0: every path terminates, beta is identically zero
        split = splitting.sign_split(np.array([[-1.0]]), np.array([0.0]))
        init = splitting.initial_split(np.array([1.0]))
        batch = simulate_batch(split, 0.0, init, n_paths=5000, seed=2)
        assert np.all(batch.sign == 0)
        est = mc_density_beta(batch, Grid(0.0, 5.0, 10), 1.0)
        assert np.array_equal(est.estimate, np.zeros(10))
        prof = splitting.exit_profile(split, 0.0)
        estq = mc_density_qbar(batch, prof, Grid(0.0, 5.0, 10), 1.0)
        assert np.array_equal(estq.estimate, np.zeros(10))

    def test_empty_bin_reporting(self):
        params = exponential_model(1.0)
        _, _, batch, scale = make_batch(params, 1.0, 2000, seed=4)
        est = mc_density_beta(batch, Grid(0.0, 30.0, 60), scale)
        empty = est.n_hits == 0
        assert empty.any()
        assert np.all(est.estimate[empty] == 0.0)
        assert np.all(est.stderr[empty] == 0.0)

    def test_unbiased_against_analytic_bin_averages(self):
        rng = np.random.default_rng(31)
        models = [reference_model()]
        models += [random_phase_type(int(rng.integers(2, 5)), rng) for _ in range(5)]
        models += [random_me_model(int(rng.integers(2, 5)), rng) for _ in range(5)]
        for params in models:
            split = splitting.sign_split(params.T, params.s)
            lam = splitting.resolve_lambda(split, "auto")
            init = splitting.initial_split(params.alpha)
            batch = simulate_batch(split, lam, init, n_paths=200_000, seed=12)
            scale = init.w_total / medist.laplace_transform(params, lam)
            sigma0 = linalg.spectral_abscissa(params.T)
            x_max = 5.0 / (lam - sigma0)
            grid = Grid(0.0, x_max, 20)
            analytic, _ = tilted_bin_averages(params, lam, grid)
            est_b = mc_density_beta(batch, grid, scale)
            prof = splitting.exit_profile(split, lam)
            est_q = mc_density_qbar(batch, prof, grid, scale)
            filled = est_b.n_hits > 0
            assert filled.mean() > 0.8
            for est in (est_b, est_q):
                diff = np.abs(est.estimate[filled] - analytic[filled])
                assert np.all(diff <= 4.0 * est.stderr[filled] + 1e-12)

    def test_beta_and_qbar_agree(self, ref):
        split, init, batch, scale = make_batch(ref, 2.0, 200_000, seed=21)
        grid = Grid(0.0, 4.0, 40)
        est_b = mc_density_beta(batch, grid, scale)
        prof = splitting.exit_profile(split, 2.0)
        est_q = mc_density_qbar(batch, prof, grid, scale)
        joint = np.sqrt(est_b.stderr**2 + est_q.stderr**2)
        filled = est_b.n_hits > 0
        assert np.all(
            np.abs(est_b.estimate[filled] - est_q.estimate[filled])
            <= 4.0 * joint[filled] + 1e-12
        )

    def test_variance_reduction(self, ref):
        split, init, batch, scale = make_batch(ref, 2.0, 200_000, seed=22)
        grid = Grid(0.0, 4.0, 40)
        est_b = mc_density_beta(batch, grid, scale)
        prof = splitting.exit_profile(split, 2.0)
        est_q = mc_density_qbar(batch, prof, grid, scale)
        both = (est_b.stderr > 0) & (est_q.stderr > 0)
        frac = np.mean(est_q.stderr[both] <= est_b.stderr[both])
        assert frac >= 0.9

    def test_total_mass_near_one(self, ref):
        split, init, batch, scale = make_batch(ref, 2.0, 300_000, seed=23)
        grid = Grid(0.0, 6.0, 60)  # covers well beyond 99.9% of mass
        est = mc_density_beta(batch, grid, scale)
        total = float(est.estimate.sum() * grid.delta)
        inside = (batch.tau >= 0.0) & (batch.tau < 6.0)
        contrib = scale * batch.sign * inside
        se_total = contrib.std(ddof=1) / math.sqrt(len(batch))
        assert abs(total - 1.0) <= 4 * se_total

    def test_empty_outcomes_rejected(self, ref_split):
        empty = one_chunk_batch(3, [], [], [])
        prof = splitting.exit_profile(ref_split, 2.0)
        with pytest.raises(ValueError, match="empty outcome set"):
            mc_density_beta(empty, Grid(0.0, 1.0, 2), 1.0)
        with pytest.raises(ValueError, match="empty outcome set"):
            mc_density_qbar(empty, prof, Grid(0.0, 1.0, 2), 1.0)
        with pytest.raises(ValueError, match="empty outcome set"):
            mc_expectation_untilted(empty, HSpec("exp-decay", 3.0), 2.0, 1.0)

    def test_qbar_on_raw_outcomes_uses_profile_dimension(self, ref_split):
        # a lone path leaving anti state 0 (code p) must take -qbar_original[0]
        prof = splitting.exit_profile(ref_split, 2.0)
        batch = one_chunk_batch(3, [0.5], [3], [2])
        grid = Grid(0.0, 1.0, 1)
        est = mc_density_qbar(batch, prof, grid, scale=1.0)
        assert est.estimate[0] == pytest.approx(-prof.qbar_original[0], rel=1e-15)
        assert est.estimate[0] == pytest.approx(-1.0, rel=1e-14)


class TestMergeAssociativity:
    def test_chunked_partials_match_single_pass(self, ref):
        split, init, batch, scale = make_batch(ref, 2.0, 90_000, seed=14, chunk=20_000)
        grid = Grid(0.0, 4.0, 40)
        prof = splitting.exit_profile(split, 2.0)
        assert_same_bits(mc_density_beta(batch, grid, scale), reference_density(batch, grid, scale))
        assert_same_bits(
            mc_density_qbar(batch, prof, grid, scale),
            reference_density(batch, grid, scale, prof),
        )


class TestFoldsMatchTheReference:
    """Both density folds bin every exit time (outside ones to an overflow
    bin) where the reference gathers the inside ones; the estimates must
    not differ in a single bit."""

    @staticmethod
    def planted_times(grid, rng):
        """Exit times on and around the grid's edges, at ``x_max`` and below
        ``x_min``."""
        edges = grid.edges
        times = [
            *edges, grid.x_min, grid.x_max, np.nextafter(grid.x_max, 0.0),
            np.nextafter(grid.x_min, np.inf), grid.x_min / 2, 0.0, 2.0 * grid.x_max,
            *np.nextafter(edges, 0.0), *np.nextafter(edges, np.inf),
        ]
        return rng.permutation(np.array(times))

    @settings(derandomize=True, database=None, deadline=None)
    @given(
        p=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        chunk=st.sampled_from(["one", "odd", "over"]),
        grid_kind=st.sampled_from(["from-zero", "offset", "tiny", "subnormal"]),
        n_bins=st.sampled_from([1, 3, 40]),
        estimator=st.sampled_from(["beta", "qbar", "both"]),
    )
    def test_random_models(self, p, seed, chunk, grid_kind, n_bins, estimator):
        rng = np.random.default_rng(seed)
        if p == 1:
            m = exponential_model(float(rng.uniform(0.05, 3.0)))
        else:
            m = random_me_model(p, rng)
        split = splitting.sign_split(m.T, m.s)
        lam = splitting.resolve_lambda(split, "auto")
        n = int(rng.integers(2 * n_bins + 20, 4 * n_bins + 60))
        size = {"one": 1, "odd": int(rng.integers(1, n // 4)) * 2 + 1, "over": n + 3}[chunk]
        batch = simulate_batch(
            split, lam, splitting.initial_split(m.alpha), n_paths=n, seed=seed, chunk=size
        )
        # grids that hold the simulated times, or sit far below them; a
        # time exactly at x_min, the planted ones exactly on the edges
        lo, hi = np.quantile(batch.tau, [0.2, 0.9])
        x_min = float(batch.tau[np.argmin(np.abs(batch.tau - lo))])
        grid = {
            "from-zero": Grid(0.0, float(hi), n_bins),
            "offset": Grid(x_min, max(float(hi), 2.0 * x_min), n_bins),
            "tiny": Grid(0.0, 1e-160, n_bins),
            "subnormal": Grid(0.0, 1e-310, n_bins),
        }[grid_kind]
        planted = self.planted_times(grid, rng)
        tau = batch.tau.copy()
        tau[rng.choice(n, size=min(n, planted.size), replace=False)] = planted[:n]
        batch = PathBatch(
            batch.p, batch.chunk, tau, batch.pre_exit, batch.landing, batch.n_jumps, batch.trace
        )
        prof = splitting.exit_profile(split, lam)

        # at a per-path bin weight of 1 every grid's estimate is finite
        assert_same_bits(
            mc_density_beta(batch, grid, grid.delta), reference_density(batch, grid, grid.delta)
        )
        assert_same_bits(
            mc_density_qbar(batch, prof, grid, grid.delta),
            reference_density(batch, grid, grid.delta, prof),
        )
        if grid_kind in ("tiny", "subnormal"):
            return
        cfg = modelio.RunConfig(
            lam=lam, n_paths=n, seed=seed, chunk=size, grid=grid, estimator=estimator
        )
        with mock.patch.object(modelio, "simulate_batch", lambda *a, **k: batch):
            run = modelio.run_estimate(modelio.plan(m, lam), cfg)
        for name, profile in (("beta", None), ("qbar", prof)):
            got = getattr(run, f"est_{name}")
            if estimator in (name, "both"):
                assert_same_bits(got, reference_density(batch, grid, run.scale, profile))
            else:
                assert got is None


class TestExpectation:
    def test_reference_laplace_recovery(self, ref):
        split, init, batch, _ = make_batch(ref, 2.0, 200_000, seed=15)
        h = HSpec("exp-decay", 2.0)
        eta = linalg.spectral_abscissa(split.Tplus + split.Tminus)
        prof = splitting.exit_profile(split, 2.0)
        assert h.variance_warning(2.0, eta) is None
        for form, kw in (("beta", {}), ("qbar", {"profile": prof})):
            est = mc_expectation_untilted(batch, h, 2.0, init.w_total, form=form, **kw)
            assert abs(est.value - 19.0 / 45.0) <= 4 * est.stderr
            assert est.max_abs_weight == pytest.approx(1.0)

    def test_exponential_example(self):
        params = exponential_model(1.0)
        split, init, batch, _ = make_batch(params, 1.0, 200_000, seed=16)
        est = mc_expectation_untilted(batch, HSpec("exp-decay", 3.0), 1.0, init.w_total)
        assert abs(est.value - 0.25) <= 4 * est.stderr

    def test_variance_guard_warns(self, ref_split):
        eta = ref_split.eta
        # the sufficient condition is c > (lam + eta)/2 = 1 at lam = 2
        warning = HSpec("exp-decay", 0.0).variance_warning(2.0, eta)
        assert warning == (
            "weight e^{(lam - c) tau} may have infinite variance: "
            "need c > (lam + eta)/2 = 1, got c = 0"
        )
        assert HSpec("exp-decay", 1.0).variance_warning(2.0, eta) is not None
        assert HSpec("exp-decay", 2.0).variance_warning(2.0, eta) is None

    def test_bad_form_refused(self, ref_split):
        batch = one_chunk_batch(3, [0.5], [0], [0])
        h = HSpec("exp-decay", 2.0)
        with pytest.raises(ValueError, match="^unknown form 'gamma'$"):
            mc_expectation_untilted(batch, h, 2.0, 1.0, form="gamma")
        with pytest.raises(ValueError, match='^form="qbar" needs an ExitProfile$'):
            mc_expectation_untilted(batch, h, 2.0, 1.0, form="qbar")

    @pytest.mark.parametrize("form", ["beta", "qbar"])
    def test_one_path_has_zero_stderr(self, ref_split, form):
        batch = one_chunk_batch(3, [0.5], [0], [0])
        prof = splitting.exit_profile(ref_split, 2.0)
        est = mc_expectation_untilted(
            batch, HSpec("exp-decay", 2.0), 2.0, 1.0, form=form, profile=prof
        )
        assert est.value != 0.0 and est.stderr == 0.0

    def test_nonfinite_integrand_rejected(self, ref):
        # e^{1002 tau} overflows for tau above about 0.71; numpy stays silent
        # (the suite turns warnings into errors) and the estimator refuses
        _, _, batch, _ = make_batch(ref, 2.0, 1000, seed=19)
        with pytest.raises(ValueError, match="non-finite"):
            mc_expectation_untilted(batch, HSpec("exp-decay", -1000.0), 2.0, 1.0)

    @pytest.mark.parametrize("form", ["beta", "qbar"])
    def test_overflowing_square_sum_rejected(self, ref_split, form):
        # tau^200 is finite at tau = 10, its square is not; numpy stays
        # silent and no OverflowError escapes from the variance
        batch = one_chunk_batch(3, [10.0, 10.0, 0.5], [0, 3, 1], [0, 1, 0])
        prof = splitting.exit_profile(ref_split, 2.0)
        with pytest.raises(ValueError, match="sum of its squares overflows"):
            mc_expectation_untilted(
                batch, HSpec("poly-exp-decay", 2.0, 200), 2.0, 1.0, form=form, profile=prof
            )

    @pytest.mark.parametrize("n, chunk", [(100_000, 7000), (10, 3)])
    def test_chunked_fold_equals_whole_array_formula(self, ref, n, chunk):
        # the chunk does not divide n, so the last chunk is short
        split, init, batch, _ = make_batch(ref, 2.0, n, seed=21, chunk=chunk)
        prof = splitting.exit_profile(split, 2.0)
        h = HSpec("poly-exp-decay", 1.0, degree=1)
        weight = h.tilted_weight(batch.tau, 2.0)
        q = prof.qbar_original
        qbar = np.concatenate([q, -q])[batch.pre_exit]
        for form, signs in (("beta", batch.sign), ("qbar", qbar)):
            signed = weight * signs
            sum_v = sum_v2 = 0.0
            for sl in batch.chunk_slices():
                sum_v += float(np.sum(signed[sl]))
                sum_v2 += float(np.sum(signed[sl] ** 2))
            mean = sum_v / n
            var = max(0.0, (sum_v2 - n * mean**2) / (n - 1))
            est = mc_expectation_untilted(
                batch, h, 2.0, init.w_total, form=form, profile=prof
            )
            assert est.value == init.w_total * mean
            assert est.stderr == init.w_total * math.sqrt(var / n)
            assert est.max_abs_weight == np.max(np.abs(weight))

    @pytest.mark.parametrize("form", ["beta", "qbar", "density_beta", "density_qbar"])
    def test_peak_allocation_per_chunk(self, ref, form):
        # every fold holds one chunk's temporaries, not full-length arrays
        split, init, batch, _ = make_batch(ref, 2.0, 400_000, seed=22, chunk=10_000)
        prof = splitting.exit_profile(split, 2.0)
        grid = Grid(0.0, 4.0, 40)
        columns = sum(
            getattr(batch, field).nbytes
            for field in ("tau", "pre_exit", "landing", "sign", "n_jumps")
        )
        tracemalloc.start()
        try:
            if form == "density_beta":
                mc_density_beta(batch, grid, 1.0)
            elif form == "density_qbar":
                mc_density_qbar(batch, prof, grid, 1.0)
            else:
                mc_expectation_untilted(
                    batch, HSpec("exp-decay", 2.0), 2.0, init.w_total, form=form, profile=prof
                )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.25 * columns


class TestHSpec:
    def test_analytic_exponential(self):
        params = exponential_model(1.0)
        assert HSpec("exp-decay", 3.0).analytic_expectation(params) == pytest.approx(
            0.25, rel=1e-12
        )
        # integral of x e^{-x} e^{-x} dx = 1/4
        assert HSpec("poly-exp-decay", 1.0, 1).analytic_expectation(
            params
        ) == pytest.approx(0.25, rel=1e-12)

    def test_analytic_against_quadrature(self, ref):
        h = HSpec("poly-exp-decay", 1.5, degree=2)
        want, _ = scipy.integrate.quad(
            lambda x: x**2 * math.exp(-1.5 * x) * medist.density(ref, x), 0.0, np.inf
        )
        assert h.analytic_expectation(ref) == pytest.approx(want, rel=1e-9)

    def test_degree_past_the_float_factorial(self, ref):
        # 171! overflows a float, d! (cI - T)^{-(d+1)} does not
        import mpmath

        with mpmath.workdps(60):
            A = mpmath.matrix((2.0 * np.eye(3) - ref.T).tolist())
            v = mpmath.lu_solve(A**172, mpmath.matrix(ref.s.tolist()))
            want = mpmath.factorial(171) * (mpmath.matrix([ref.alpha.tolist()]) * v)[0]
        got = HSpec("poly-exp-decay", 2.0, 171).analytic_expectation(ref)
        assert got == pytest.approx(float(want), rel=1e-10)
        with pytest.raises(ValueError, match="overflows at degree 400"):
            HSpec("poly-exp-decay", 2.0, 400).analytic_expectation(ref)

    def test_divergent_rate_rejected(self, ref):
        with pytest.raises(ValueError):
            HSpec("exp-decay", -2.0).analytic_expectation(ref)

    def test_from_dict(self):
        # a run config's "h" field is parsed with the rest of its schema
        h = modelio.config_from_dict({"h": {"type": "poly-exp-decay", "c": 2.0, "degree": 3}}).h
        assert (h.kind, h.c, h.degree) == ("poly-exp-decay", 2.0, 3)
        for raw, message in [
            ({"type": "exp-decay"}, 'config: h must be an object with "type" and "c" fields'),
            ([1, 2], 'config: h must be an object with "type" and "c" fields'),
            ({"type": "mystery", "c": 1.0}, "config: unknown h type 'mystery'"),
            (
                {"type": "exp-decay", "c": 1.0, "degree": 2},
                "config: exp-decay takes no degree; use poly-exp-decay",
            ),
        ]:
            with pytest.raises(modelio.ParseError) as info:
                modelio.config_from_dict({"h": raw})
            assert str(info.value) == message


class TestAnalyticUntilted:
    def test_matches_density(self, ref, ref_split, ref_init):
        xs = np.linspace(0.0, 10.0, 41)
        got = analytic_untilted_doubled(ref_split, ref_init, xs)
        assert np.abs(got - medist.density(ref, xs)).max() < 1e-8

    def test_at_zero_is_alpha_dot_s(self, ref, ref_split, ref_init):
        assert analytic_untilted_doubled(ref_split, ref_init, 0.0) == pytest.approx(
            float(ref.alpha @ ref.s), rel=1e-12
        )

    def test_phase_type_reduces_exactly(self, phase_type):
        split = splitting.sign_split(phase_type.T, phase_type.s)
        init = splitting.initial_split(phase_type.alpha)
        for x in (0.0, 0.7, 3.0):
            got = analytic_untilted_doubled(split, init, x)
            want = phase_type.alpha @ linalg.mat_exp(phase_type.T * x) @ phase_type.s
            assert abs(got - want) < 1e-10

    def test_bad_points_refused(self, ref_split, ref_init):
        with pytest.raises(ValueError, match="^x must be a scalar or 1-d array$"):
            analytic_untilted_doubled(ref_split, ref_init, np.ones((2, 2)))
        with pytest.raises(ValueError, match="^x must be nonnegative$"):
            analytic_untilted_doubled(ref_split, ref_init, [0.5, -0.1])

    def test_random_models(self):
        rng = np.random.default_rng(33)
        for _ in range(5):
            m = random_me_model(3, rng)
            split = splitting.sign_split(m.T, m.s)
            init = splitting.initial_split(m.alpha)
            xs = np.linspace(0.0, 6.0, 13)
            got = analytic_untilted_doubled(split, init, xs)
            assert np.abs(got - medist.density(m, xs)).max() < 1e-8


class TestDecayCancellation:
    def test_reference_bounded(self, ref_split):
        ratios = decay_cancellation_check(ref_split, -1.0, [5.0, 10.0, 20.0])
        assert np.all(ratios <= 10.0)

    def test_at_zero_is_max_abs_s(self, ref, ref_split):
        ratios = decay_cancellation_check(ref_split, -1.0, [0.0])
        assert ratios[0] == pytest.approx(np.abs(ref.s).max())

    def test_phase_type_equals_direct_norm(self, phase_type):
        split = splitting.sign_split(phase_type.T, phase_type.s)
        sigma0 = linalg.spectral_abscissa(phase_type.T)
        for x in (1.0, 4.0):
            ratio = decay_cancellation_check(split, sigma0, [x])[0]
            direct = (
                np.abs(linalg.mat_exp(phase_type.T * x) @ phase_type.s).max()
                * math.exp(-sigma0 * x)
            )
            assert ratio == pytest.approx(direct, rel=1e-12)


class TestTiltedBinAverages:
    def test_matches_quadrature(self, ref):
        grid = Grid(0.0, 4.0, 8)
        got, norm = tilted_bin_averages(ref, 2.0, grid)
        tilted, tilt_norm = medist.tilt(ref, 2.0)
        assert norm == tilt_norm
        for b in range(grid.n_bins):
            want, _ = scipy.integrate.quad(
                lambda x: medist.density(tilted, x), grid.edges[b], grid.edges[b + 1]
            )
            assert got[b] == pytest.approx(want / grid.delta, rel=1e-9)

    def test_golden_grid_against_mpmath(self, ref):
        # (2/3) e^{-3x} (1 + cos x) / (19/45), averaged over 0:4:40 in 40 digits;
        # the old edge-difference oracle was off by up to 2.4e-10 here
        import mpmath

        mpmath.mp.dps = 40

        def antideriv(x):
            e = mpmath.exp(-3 * x)
            return -e / 3 + e * (mpmath.sin(x) - 3 * mpmath.cos(x)) / 10

        grid = Grid(0.0, 4.0, 40)
        got, _ = tilted_bin_averages(ref, 2.0, grid)
        delta = mpmath.mpf(4) / 40
        for b in range(grid.n_bins):
            lo, hi = b * delta, (b + 1) * delta
            want = (antideriv(hi) - antideriv(lo)) * 30 / (19 * delta)
            assert abs((mpmath.mpf(got[b]) - want) / want) <= 5e-11

    def test_huge_rate_puts_the_mass_in_the_first_bin(self, ref):
        got, _ = tilted_bin_averages(ref, 1e12, Grid(0.0, 4.0, 40))
        assert got[0] == pytest.approx(10.0, rel=1e-14)
        assert np.all(got[1:] == 0.0)

    def test_two_exponentials_per_grid(self, ref, monkeypatch):
        calls = []
        mat_exp = linalg.mat_exp
        monkeypatch.setattr(linalg, "mat_exp", lambda A: calls.append(1) or mat_exp(A))
        tilted_bin_averages(ref, 2.0, Grid(0.5, 4.0, 40))
        assert len(calls) == 2
