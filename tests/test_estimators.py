import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings, strategies as st

from mejump import estimators, linalg, medist, modelio, splitting
from mejump.estimators import (
    Grid,
    HSpec,
    analytic_untilted_doubled,
    decay_cancellation_check,
    count_exits,
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
    pre_exit = np.asarray(pre_exit, dtype=np.int32)
    return PathBatch(
        p=p,
        chunk=max(1, len(tau)),
        tau=np.asarray(tau, dtype=float),
        exit_code=3 * pre_exit + np.asarray(landing, dtype=np.int32),
        n_jumps=np.ones(len(tau), dtype=np.int32),
    )


def reference_bins(batch, grid):
    """Per generation chunk, the bins of the times inside ``[x_min, x_max)``
    (quotients truncated to int64 and clipped to the bins) and the slice's
    mask of those times."""
    for sl in batch.chunk_slices():
        tau = batch.tau[sl]
        inside = (tau >= grid.x_min) & (tau < grid.x_max)
        idx = ((tau[inside] - grid.x_min) / grid.delta).astype(np.int64)
        np.clip(idx, 0, grid.n_bins - 1, out=idx)
        yield sl, inside, idx


def reference_counts(batch, grid):
    """The (bin, exit code) counts of the inside times, by mask-gather and one
    ``bincount`` per chunk, as an ``(n_bins, 6p)`` table."""
    n_codes = 6 * batch.p
    total = np.zeros(grid.n_bins * n_codes, dtype=np.int64)
    for sl, inside, idx in reference_bins(batch, grid):
        key = idx * n_codes + batch.exit_code[sl][inside]
        total += np.bincount(key, minlength=total.size)
    return total.reshape(grid.n_bins, n_codes)


def reference_density(batch, grid, scale, profile=None):
    """The mask-gather folds the package's estimators must equal bit for bit.

    The landing sign's fold ``bincount``s the weights, squared weights and
    hits of each chunk in path order and merges the chunks' partial sums left
    to right, in chunk order.  With a ``profile``, the (bin, exit code)
    counts are dotted with the ``qbar`` of each code's pre-exit state and
    with its square.
    """
    if profile is not None:
        q = profile.qbar_original
        q = np.repeat(np.concatenate([q, -q]), 3)
        counts = reference_counts(batch, grid)
        return finalize_density(
            counts @ q, counts @ (q * q), counts.sum(axis=1), len(batch), grid, scale
        )
    total = None
    for sl, inside, idx in reference_bins(batch, grid):
        w = SIGN_OF_LANDING[batch.landing[sl]][inside].astype(float)
        part = (
            np.bincount(idx, weights=w, minlength=grid.n_bins),
            np.bincount(idx, weights=w * w, minlength=grid.n_bins),
            np.bincount(idx, minlength=grid.n_bins).astype(np.int64),
        )
        total = part if total is None else tuple(a + b for a, b in zip(total, part))
    return finalize_density(*total, len(batch), grid, scale)


def density_beta(batch, grid, scale):
    return mc_density_beta(count_exits(batch, grid), scale)


def density_qbar(batch, profile, grid, scale):
    return mc_density_qbar(count_exits(batch, grid), profile, scale)


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
        est = density_beta(batch, Grid(0.0, 40.0, 1), scale)
        total = est.estimate[0] * 40.0
        se = est.stderr[0] * 40.0
        assert abs(total - 1.0) <= 4 * se

    def test_all_terminated_gives_zero(self):
        # s = 0: every path terminates, beta is identically zero
        split = splitting.sign_split(np.array([[-1.0]]), np.array([0.0]))
        init = splitting.initial_split(np.array([1.0]))
        batch = simulate_batch(split, 0.0, init, n_paths=5000, seed=2)
        assert np.all(batch.sign == 0)
        est = density_beta(batch, Grid(0.0, 5.0, 10), 1.0)
        assert np.array_equal(est.estimate, np.zeros(10))
        prof = splitting.exit_profile(split, 0.0)
        estq = density_qbar(batch, prof, Grid(0.0, 5.0, 10), 1.0)
        assert np.array_equal(estq.estimate, np.zeros(10))

    def test_empty_bin_reporting(self):
        params = exponential_model(1.0)
        _, _, batch, scale = make_batch(params, 1.0, 2000, seed=4)
        est = density_beta(batch, Grid(0.0, 30.0, 60), scale)
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
            est_b = density_beta(batch, grid, scale)
            prof = splitting.exit_profile(split, lam)
            est_q = density_qbar(batch, prof, grid, scale)
            filled = est_b.n_hits > 0
            assert filled.mean() > 0.8
            for est in (est_b, est_q):
                diff = np.abs(est.estimate[filled] - analytic[filled])
                assert np.all(diff <= 4.0 * est.stderr[filled] + 1e-12)

    def test_beta_and_qbar_agree(self, ref):
        split, init, batch, scale = make_batch(ref, 2.0, 200_000, seed=21)
        grid = Grid(0.0, 4.0, 40)
        est_b = density_beta(batch, grid, scale)
        prof = splitting.exit_profile(split, 2.0)
        est_q = density_qbar(batch, prof, grid, scale)
        joint = np.sqrt(est_b.stderr**2 + est_q.stderr**2)
        filled = est_b.n_hits > 0
        assert np.all(
            np.abs(est_b.estimate[filled] - est_q.estimate[filled])
            <= 4.0 * joint[filled] + 1e-12
        )

    def test_variance_reduction(self, ref):
        split, init, batch, scale = make_batch(ref, 2.0, 200_000, seed=22)
        grid = Grid(0.0, 4.0, 40)
        est_b = density_beta(batch, grid, scale)
        prof = splitting.exit_profile(split, 2.0)
        est_q = density_qbar(batch, prof, grid, scale)
        both = (est_b.stderr > 0) & (est_q.stderr > 0)
        frac = np.mean(est_q.stderr[both] <= est_b.stderr[both])
        assert frac >= 0.9

    def test_total_mass_near_one(self, ref):
        split, init, batch, scale = make_batch(ref, 2.0, 300_000, seed=23)
        grid = Grid(0.0, 6.0, 60)  # covers well beyond 99.9% of mass
        est = density_beta(batch, grid, scale)
        total = float(est.estimate.sum() * grid.delta)
        inside = (batch.tau >= 0.0) & (batch.tau < 6.0)
        contrib = scale * batch.sign * inside
        se_total = contrib.std(ddof=1) / math.sqrt(len(batch))
        assert abs(total - 1.0) <= 4 * se_total

    def test_empty_outcomes_rejected(self, ref_split):
        empty = one_chunk_batch(3, [], [], [])
        prof = splitting.exit_profile(ref_split, 2.0)
        with pytest.raises(ValueError, match="empty outcome set"):
            density_beta(empty, Grid(0.0, 1.0, 2), 1.0)
        with pytest.raises(ValueError, match="empty outcome set"):
            density_qbar(empty, prof, Grid(0.0, 1.0, 2), 1.0)
        with pytest.raises(ValueError, match="empty outcome set"):
            mc_expectation_untilted(empty, HSpec("exp-decay", 3.0), 2.0, 1.0)

    def test_qbar_on_raw_outcomes_uses_profile_dimension(self, ref_split):
        # a lone path leaving anti state 0 (code p) must take -qbar_original[0]
        prof = splitting.exit_profile(ref_split, 2.0)
        batch = one_chunk_batch(3, [0.5], [3], [2])
        grid = Grid(0.0, 1.0, 1)
        est = density_qbar(batch, prof, grid, scale=1.0)
        assert est.estimate[0] == pytest.approx(-prof.qbar_original[0], rel=1e-15)
        assert est.estimate[0] == pytest.approx(-1.0, rel=1e-14)


class TestMergeAssociativity:
    def test_chunked_partials_match_single_pass(self, ref):
        split, init, batch, scale = make_batch(ref, 2.0, 90_000, seed=14, chunk=20_000)
        grid = Grid(0.0, 4.0, 40)
        prof = splitting.exit_profile(split, 2.0)
        assert_same_bits(density_beta(batch, grid, scale), reference_density(batch, grid, scale))
        assert_same_bits(
            density_qbar(batch, prof, grid, scale),
            reference_density(batch, grid, scale, prof),
        )


def density_finish(sum_w, sum_w2, n, per_path):
    """The density estimators' finish, as ``finalize_density`` once spelled
    it out itself."""
    estimate = per_path * sum_w / n
    if n > 1:
        var = (per_path**2 * sum_w2 - n * estimate**2) / (n - 1)
        stderr = np.sqrt(np.maximum(var, 0.0) / n)
    else:
        stderr = np.zeros_like(estimate)
    return estimate, stderr


def expectation_finish(sum_v, sum_v2, n, w_total):
    """The expectation's finish on Python floats, as
    ``mc_expectation_untilted`` once spelled it out itself."""
    mean = sum_v / n
    value = w_total * mean
    if n > 1:
        var = max(0.0, (sum_v2 - n * mean**2) / (n - 1))
        stderr = w_total * math.sqrt(var / n)
    else:
        stderr = 0.0
    return value, stderr


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestMeanAndStderr:
    """One finish serves the density estimators and both expectation forms;
    it must give each the bits its own formula gave."""

    sums = st.floats(-1e100, 1e100, allow_subnormal=False)
    # a sum of squares is never negative, nor -0.0
    squares = st.floats(0.0, 1e200, allow_subnormal=False).map(abs)
    counts = st.one_of(st.integers(1, 3), st.integers(1, 10**12))
    scales = st.floats(1e-50, 1e50)

    @settings(derandomize=True, database=None, deadline=None)
    @given(data=st.data(), n=counts, scale=scales, size=st.integers(1, 8))
    def test_arrays_match_the_density_finish(self, data, n, scale, size):
        sum_w = np.array(data.draw(st.lists(self.sums, min_size=size, max_size=size)))
        sum_w2 = np.array(data.draw(st.lists(self.squares, min_size=size, max_size=size)))
        with np.errstate(over="ignore", invalid="ignore"):
            got = estimators._mean_and_stderr(sum_w, sum_w2, n, scale)
            want = density_finish(sum_w, sum_w2, n, scale)
        assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])

    @settings(derandomize=True, database=None, deadline=None)
    @given(sum_w=sums, sum_w2=squares, n=counts, scale=scales, w_total=scales)
    def test_scalars_match_both_finishes(self, sum_w, sum_w2, n, scale, w_total):
        with np.errstate(over="ignore", invalid="ignore"):
            got = estimators._mean_and_stderr(sum_w, sum_w2, n, scale)
            want = density_finish(sum_w, sum_w2, n, scale)
            assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
            mean, stderr = estimators._mean_and_stderr(sum_w, sum_w2, n, 1.0)
            value, want_stderr = expectation_finish(sum_w, sum_w2, n, w_total)
        assert same_bits(float(w_total * mean), value)
        assert same_bits(float(w_total * stderr), want_stderr)

    def test_no_outcomes_refused(self):
        for sums in ((0.0, 0.0), (np.zeros(3), np.zeros(3))):
            with pytest.raises(ValueError, match="^empty outcome set$"):
                estimators._mean_and_stderr(*sums, 0, 1.0)


class TestFoldsMatchTheReference:
    """The exit count bins every exit time (outside ones to an overflow bin)
    where the references gather the inside ones; the estimates must not
    differ in a single bit."""

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
        at = rng.choice(n, size=min(n, planted.size), replace=False)

        def with_planted_times(batch):
            tau = batch.tau.copy()
            tau[at] = planted[:n]
            return PathBatch(batch.p, batch.chunk, tau, batch.exit_code, batch.n_jumps)

        batch = with_planted_times(batch)
        prof = splitting.exit_profile(split, lam)

        # the count is one whole-batch bincount of the inside keys, and the
        # same whatever the number of workers that simulated the batch
        counts = count_exits(batch, grid)
        inside = (batch.tau >= grid.x_min) & (batch.tau < grid.x_max)
        idx = ((batch.tau[inside] - grid.x_min) / grid.delta).astype(np.int64)
        np.clip(idx, 0, grid.n_bins - 1, out=idx)
        n_codes = 6 * p
        want = np.bincount(
            idx * n_codes + batch.exit_code[inside], minlength=grid.n_bins * n_codes
        ).reshape(grid.n_bins, n_codes)
        assert counts.counts.dtype == np.int64 and np.array_equal(counts.counts, want)
        assert counts.n_paths == n
        two = simulate_batch(
            split, lam, splitting.initial_split(m.alpha), n_paths=n, seed=seed, chunk=size,
            workers=2,
        )
        assert np.array_equal(count_exits(with_planted_times(two), grid).counts, counts.counts)

        # at a per-path bin weight of 1 every grid's estimate is finite
        assert_same_bits(
            density_beta(batch, grid, grid.delta), reference_density(batch, grid, grid.delta)
        )
        with mock.patch.object(
            estimators, "finalize_density", wraps=estimators.finalize_density
        ) as finalize:
            est_q = mc_density_qbar(counts, prof, grid.delta)
        assert_same_bits(est_q, reference_density(batch, grid, grid.delta, prof))

        # each bin's sums of qbar and qbar**2 are within 8 p eps of the sum of
        # their magnitudes from the exact sums of the per-path weights
        sum_w, sum_w2 = finalize.call_args.args[:2]
        weight = np.repeat(prof.qbar, 3)[batch.exit_code[inside]]
        bound = 8 * p * np.finfo(float).eps
        for b in range(grid.n_bins):
            w = weight[idx == b]
            assert abs(sum_w[b] - math.fsum(w)) <= bound * math.fsum(np.abs(w))
            assert abs(sum_w2[b] - math.fsum(w * w)) <= bound * math.fsum(w * w)
        if grid_kind in ("tiny", "subnormal"):
            return
        cfg = modelio.RunConfig(
            lam=lam, n_paths=n, seed=seed, chunk=size, grid=grid, estimator=estimator
        )
        with mock.patch.object(modelio, "simulate_batch", lambda *a, **k: batch):
            run = modelio.run_estimate(modelio.plan(m, lam), cfg)
        # both estimates are finalized, whichever the config asks to print
        for name, profile in (("beta", None), ("qbar", prof)):
            got = getattr(run, f"est_{name}")
            assert_same_bits(got, reference_density(batch, grid, run.scale, profile))


class TestExitCounts:
    @pytest.mark.parametrize("n_paths", [5000, 4500])
    def test_run_counts_each_chunk_once(self, ref, n_paths, monkeypatch):
        # both estimators read one count, which bins each chunk once; 4500
        # paths leave a short last chunk
        bins, counts = [], []
        bin_index, count = estimators._bin_index, modelio.count_exits
        monkeypatch.setattr(
            estimators, "_bin_index",
            lambda tau, grid: bins.append(tau.size) or bin_index(tau, grid),
        )
        monkeypatch.setattr(
            modelio, "count_exits", lambda batch, grid: counts.append(1) or count(batch, grid)
        )
        cfg = modelio.RunConfig(lam=2.0, n_paths=n_paths, chunk=1000, estimator="both")
        run = modelio.run_estimate(modelio.plan(ref, 2.0), cfg)
        assert run.est_beta is not None and run.est_qbar is not None
        assert bins == [1000] * 4 + [n_paths - 4000]
        assert counts == [1]

    def test_peak_allocation_is_the_table(self):
        # a 10^4-bin table of the 30-state model is 14 MB, far above the
        # batch's columns: one dense table per chunk would show
        m = random_me_model(30, np.random.default_rng(30))
        split = splitting.sign_split(m.T, m.s)
        lam = splitting.resolve_lambda(split, "auto")
        init = splitting.initial_split(m.alpha)
        batch = simulate_batch(split, lam, init, n_paths=100_000, seed=3, chunk=8192)
        grid = Grid(0.0, float(np.quantile(batch.tau, 0.99)), 10_000)
        table = (grid.n_bins + 1) * 6 * m.p * 8
        columns = sum(getattr(batch, field).nbytes for field in ("tau", "exit_code", "n_jumps"))
        count_exits(batch, Grid(0.0, 1.0, 2))  # numpy's first add.at, outside the trace
        tracemalloc.start()
        try:
            counts = count_exits(batch, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert counts.counts.sum() > 0.9 * len(batch)
        assert peak <= table + 0.25 * columns

    def test_table_size_is_bounded(self):
        # (n_bins + 1) * 6p entries: at p = 3, 932066 bins fill the table to
        # within 10 entries of the limit, and one more bin is refused by
        # name, before count_exits allocates it
        assert estimators.MAX_COUNT_ENTRIES == 1 << 24
        estimators.check_count_table(Grid(0.0, 4.0, 932_066), 3)
        message = r"^grid 0:4:932067 has too many bins for a model on 3 states"
        with pytest.raises(ValueError, match=message):
            estimators.check_count_table(Grid(0.0, 4.0, 932_067), 3)
        batch = one_chunk_batch(3, [0.5], [0], [0])
        with pytest.raises(ValueError, match=message):
            count_exits(batch, Grid(0.0, 4.0, 932_067))
        with pytest.raises(ValueError, match="27962 has too many bins for a model on 100"):
            estimators.check_count_table(Grid(0.0, 4.0, 27_962), 100)


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
        # every fold holds one chunk's temporaries, not full-length arrays;
        # both density forms are count_exits and a finalizer of its table
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
                density_beta(batch, grid, 1.0)
            elif form == "density_qbar":
                density_qbar(batch, prof, grid, 1.0)
            else:
                mc_expectation_untilted(
                    batch, HSpec("exp-decay", 2.0), 2.0, init.w_total, form=form, profile=prof
                )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.25 * columns


class TestHSpec:
    def test_huge_power_times_vanishing_exponential(self):
        # tau**400 overflows from tau = 10 on, but e^{-50 tau} brings the
        # weight back into range (e^{421} at 10), or to zero at 1000
        # instead of inf * 0 = nan; where the product is finite it is kept
        h = HSpec("poly-exp-decay", 52.0, 400)
        tau = np.array([0.0, 0.5, 5.0, 10.0, 20.0, 30.0, 1000.0])
        got = h.tilted_weight(tau, 2.0)
        with np.errstate(over="ignore", invalid="ignore"):
            direct = tau**400 * np.exp(-50.0 * tau)
        kept = np.isfinite(direct)
        assert kept.tolist() == [True, True, True, False, False, False, False]
        assert got[kept].tobytes() == direct[kept].tobytes()
        want = [math.exp(400 * math.log(t) - 50.0 * t) for t in tau[~kept]]
        assert got[~kept] == pytest.approx(want, rel=1e-12, abs=0.0)
        assert got[-1] == 0.0

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
    def test_non_finite_decay_rate_refused(self, c):
        with pytest.raises(ValueError, match="^h decay rate c must be finite"):
            HSpec("exp-decay", c)

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
