import hashlib
import math
import sys
import tracemalloc

import numpy as np
import pytest

from mejump import jumpsim, linalg, splitting
from mejump.errors import NotTransientError
from mejump.jumpsim import JumpChain, RngStream, code_label, simulate_batch
from mejump.models import random_me_model
from conftest import decoupled_rotator


@pytest.fixture
def exp_split(exp1):
    return splitting.sign_split(exp1.T, exp1.s)


def first_rows(path):
    """Index of each path's first row in a trace's path column (rows are
    sorted by path, then time)."""
    return np.flatnonzero(np.r_[True, path[1:] != path[:-1]])


class TestRngStream:
    def test_reproducible(self):
        a = RngStream(123, 4).generator().random(10)
        b = RngStream(123, 4).generator().random(10)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = RngStream(123, 0).generator().random(10)
        b = RngStream(123, 1).generator().random(10)
        assert not np.array_equal(a, b)


class TestStateIds:
    """Integer state codes and their trace labels."""

    def test_labels(self):
        labels = [code_label(code, 3) for code in range(9)]
        assert labels == [
            "o0", "o1", "o2", "a0", "a1", "a2", "DeltaO", "DeltaA", "term",
        ]


class TestSampleInitial:
    """Initial states, read from each path's first trace ``from`` code."""

    def test_reference_always_first_original(self, ref_split, ref_init):
        batch = simulate_batch(
            ref_split, 2.0, ref_init, n_paths=50, seed=9, collect_trace=True
        )
        assert np.all(batch.trace[2][first_rows(batch.trace[0])] == 0)

    def test_negative_alpha_starts_anti(self, exp_split):
        init = splitting.initial_split(np.array([-1.0]))
        batch = simulate_batch(
            exp_split, 1.0, init, n_paths=20, seed=1, collect_trace=True
        )
        assert np.all(batch.trace[2][first_rows(batch.trace[0])] == 1)

    def test_balanced_frequencies(self):
        split = splitting.sign_split(-np.eye(2), np.ones(2))
        init = splitting.initial_split(np.array([0.5, -0.5]))
        n = 100_000
        batch = simulate_batch(split, 0.0, init, n_paths=n, seed=77, collect_trace=True)
        hits = np.count_nonzero(batch.trace[2][first_rows(batch.trace[0])] < 2)
        # binomial 4-sigma band around 1/2
        assert abs(hits / n - 0.5) <= 4.0 * math.sqrt(0.25 / n)


class TestSimulatePath:
    def test_single_state_law(self, exp1, exp_split):
        # rate-1 model tilted at 1: exit rate 2, half absorb half terminate
        init = splitting.initial_split(exp1.alpha)
        n = 100_000
        batch = simulate_batch(exp_split, 1.0, init, n_paths=n, seed=5)
        assert np.all(batch.n_jumps == 1)
        assert batch.tau.mean() == pytest.approx(
            0.5, abs=4 * batch.tau.std() / math.sqrt(n)
        )
        assert abs((batch.sign == 1).mean() - 0.5) <= 4 * math.sqrt(0.25 / n)
        assert np.all(batch.tau > 0.0)

    def test_reference_first_holding_time(self, ref_split, ref_init):
        # every diagonal of the doubled block at rate 2 is -3
        n = 50_000
        batch = simulate_batch(
            ref_split, 2.0, ref_init, n_paths=n, seed=17, collect_trace=True
        )
        first = batch.trace[1][first_rows(batch.trace[0])]
        assert first.mean() == pytest.approx(1.0 / 3.0, abs=4 * first.std() / math.sqrt(n))

    def test_anti_sojourn_cannot_absorb_positive_when_sminus_zero(self, ref_split):
        # s^- = 0: an exit from an anti state can never land DeltaO
        init = splitting.initial_split(np.array([-1.0, 0.0, 0.0]))
        batch = simulate_batch(ref_split, 2.0, init, n_paths=20_000, seed=3)
        from_anti = batch.pre_exit >= 3
        assert from_anti.any()
        assert not np.any(batch.landing[from_anti] == 0)
        # and symmetrically original exits never land DeltaA here
        assert not np.any(batch.landing[~from_anti] == 1)

    def test_trace_consistent(self, ref_split):
        # one path started in original state 0
        init = splitting.initial_split(np.array([1.0, 0.0, 0.0]))
        batch = simulate_batch(ref_split, 2.0, init, n_paths=1, seed=21, collect_trace=True)
        path, times, frm, to = batch.trace
        assert np.all(path == 0)
        assert len(times) == batch.n_jumps[0]
        assert frm[0] == 0
        assert np.all(np.diff(times) > 0)
        assert times[-1] == batch.tau[0]
        assert frm[-1] == batch.pre_exit[0]
        assert to[-1] == 6 + batch.landing[0]
        # each jump leaves the state the previous one entered
        assert np.array_equal(frm[1:], to[:-1])


class TestDrawTargets:
    """The bisection draw equals the count of row entries ``<= u``, clamped
    to the last positive target, which is the index a linear scan gives."""

    @staticmethod
    def weight_rows(rng, n_rows, width):
        weights = rng.exponential(size=(n_rows, width))
        weights[rng.random((n_rows, width)) < 0.3] = 0.0  # zeros anywhere
        trailing = rng.integers(0, width, n_rows)
        cols = np.arange(width)
        some_rows = (rng.random(n_rows) < 0.3)[:, None]
        weights[(cols >= trailing[:, None]) & some_rows] = 0.0  # trailing zeros
        weights[:, 0] += (weights.sum(axis=1) == 0.0)  # every row has a target
        weights[0] = 0.0
        weights[0, 0] = 1.0  # a single target, so last = 0
        return weights

    @staticmethod
    def assert_padded(table, shift, cum, last):
        """Each padded row is ``cum`` before its column ``last``, ``+inf`` from
        there on, and non-decreasing."""
        rows = table.reshape(cum.shape[0], 1 << shift)
        clamped = np.arange(1 << shift) >= last[:, None]
        assert np.all(np.isinf(rows[clamped]))
        width = cum.shape[1]
        assert np.array_equal(rows[:, :width][~clamped[:, :width]], cum[~clamped[:, :width]])
        # np.diff would give nan on inf - inf, so compare neighbours directly
        assert np.all(rows[:, 1:] >= rows[:, :-1])

    @pytest.mark.parametrize("p", [1, 2, 62, 63, 64])
    def test_equals_clamped_count(self, p):
        width = 2 * p + 3
        rng = np.random.default_rng(width)
        cum, last = jumpsim._cum_and_last(self.weight_rows(rng, 4000, width))
        table, shift = jumpsim._padded_table(cum, last)
        assert (1 << shift) > width >= (1 << (shift - 1))
        assert table.flags.c_contiguous and table.size == cum.shape[0] << shift
        self.assert_padded(table, shift, cum, last)
        # the row ends under test: rounded just above 1, just below, exactly 1
        assert (cum[:, -1] > 1.0).any() and (cum[:, -1] < 1.0).any()
        assert (cum[:, -1] == 1.0).any()
        assert (last < width - 1).any()

        state = rng.integers(0, cum.shape[0], 60_000)
        u = rng.random(state.size)
        # ties: u equal to a stored cumsum, among them repeats from zero weights
        tie = rng.random(state.size) < 0.5
        u[tie] = cum[state[tie], rng.integers(0, width, tie.sum())]
        u[:4] = (0.0, np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0))
        # rows ending just under 1 receive the uniforms past their end
        short = np.flatnonzero(cum[:, -1] < 1.0)
        state[-short.size :] = short
        u[-short.size :] = np.nextafter(1.0, 0.0)

        got = jumpsim._draw_targets(table, shift, state, u)
        want = np.minimum((cum[state] <= u[:, None]).sum(axis=1), last[state])
        assert np.array_equal(got, want)
        # and every drawn target has positive weight: a rise in its row
        before = np.where(got > 0, cum[state, got - 1], 0.0)
        assert np.all(cum[state, got] > before)

        # the initial law: one row of width 2p, with no landing columns
        alpha = rng.normal(size=p)
        alpha[rng.random(p) < 0.3] = 0.0
        alpha[0] = 1.0
        init = splitting.initial_split(alpha)
        init_weights = np.concatenate([init.alphahat_plus, init.alphahat_minus])
        cum, last = jumpsim._cum_and_last(init_weights[None, :])
        table, shift = jumpsim._padded_table(cum, last)
        self.assert_padded(table, shift, cum, last)
        tie = rng.random(u.size) < 0.5
        u[tie] = cum[0, rng.integers(0, 2 * p, tie.sum())]
        got = jumpsim._draw_targets(table, shift, np.zeros(u.size, dtype=np.int64), u)
        want = np.minimum(np.searchsorted(cum[0], u, side="right"), last[0])
        assert np.array_equal(got, want)

    def test_chain_table(self, ref_split):
        chain = JumpChain(ref_split, 2.0)
        assert chain.shift == 4  # width 9 padded to 16
        rows = chain.table.reshape(6, 16)
        # at rate 2, o0 and a0 have no termination defect, so their last
        # positive targets are the absorbing columns 6 and 7; every other
        # row's is column 8, termination
        ends = np.array([6, 8, 8, 7, 8, 8])
        cols = np.arange(16)
        assert np.all(np.isfinite(rows[cols < ends[:, None]]))
        assert np.all(np.isinf(rows[cols >= ends[:, None]]))
        assert np.all(rows[:, 1:] >= rows[:, :-1])


class TestSimulateBatch:
    def test_deterministic_repeat(self, ref_split, ref_init):
        a = simulate_batch(ref_split, 2.0, ref_init, n_paths=30_000, seed=42, chunk=7000)
        b = simulate_batch(ref_split, 2.0, ref_init, n_paths=30_000, seed=42, chunk=7000)
        for field in ("tau", "pre_exit", "landing", "sign", "n_jumps"):
            assert np.array_equal(getattr(a, field), getattr(b, field))

    def test_deterministic_across_workers(self, ref_split, ref_init):
        # 8192 does not divide 50_000: the last chunk is short.  The threads
        # write into shared columns, so switch between them often
        kw = dict(n_paths=50_000, seed=9, chunk=8192, collect_trace=True)
        a = simulate_batch(ref_split, 2.0, ref_init, workers=1, **kw)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            b = simulate_batch(ref_split, 2.0, ref_init, workers=3, **kw)
        finally:
            sys.setswitchinterval(interval)
        for field in ("tau", "pre_exit", "landing", "sign", "n_jumps"):
            assert np.array_equal(getattr(a, field), getattr(b, field))
        for col_a, col_b in zip(a.trace, b.trace, strict=True):
            assert col_a.dtype == col_b.dtype
            assert np.array_equal(col_a, col_b)

    def test_wide_table_digest(self):
        # pins the stream-to-path mapping on a width-63 target table, where the
        # golden CSV pins only the width-9 table of the reference model
        m = random_me_model(30, np.random.default_rng(30))
        split = splitting.sign_split(m.T, m.s)
        lam = splitting.resolve_lambda(split, "auto")
        init = splitting.initial_split(m.alpha)
        batch = simulate_batch(split, lam, init, n_paths=50_000, seed=42, chunk=8192, workers=2)
        digest = hashlib.sha256()
        for field, dtype in (
            ("tau", "<f8"), ("pre_exit", "<i4"), ("landing", "i1"), ("sign", "i1"), ("n_jumps", "<i4"),
        ):
            digest.update(np.ascontiguousarray(getattr(batch, field), dtype=dtype).tobytes())
        assert digest.hexdigest() == (
            "aff4284a8638d237dbfa25bfad089418ef90e6d86bb596c4704e2e01923534bd"
        )

    def test_wide_trace_digest(self):
        # pins the traced rows of every path, chunk boundaries included, on the
        # width-63 table; three workers run the three chunks
        m = random_me_model(30, np.random.default_rng(30))
        split = splitting.sign_split(m.T, m.s)
        lam = splitting.resolve_lambda(split, "auto")
        init = splitting.initial_split(m.alpha)
        batch = simulate_batch(
            split, lam, init, n_paths=20_000, seed=42, chunk=7000, workers=3, collect_trace=True
        )
        digest = hashlib.sha256()
        for col, dtype in zip(batch.trace, ("<i8", "<f8", "<i8", "<i8"), strict=True):
            assert col.dtype == np.dtype(dtype)
            digest.update(np.ascontiguousarray(col).tobytes())
        assert digest.hexdigest() == (
            "3f228615a8f124955a57c12e4e856b964650a2f94d2ba25b37fbf437a9d05f39"
        )

    def test_one_path_chunks_digest(self):
        # one path per chunk: every iteration before a path's last exits
        # nobody, and the last one exits everyone
        m = random_me_model(30, np.random.default_rng(30))
        split = splitting.sign_split(m.T, m.s)
        lam = splitting.resolve_lambda(split, "auto")
        init = splitting.initial_split(m.alpha)
        batch = simulate_batch(split, lam, init, n_paths=300, seed=42, chunk=1, collect_trace=True)
        assert batch.n_jumps.max() > 1
        digest = hashlib.sha256()
        for field, dtype in (
            ("tau", "<f8"), ("pre_exit", "<i4"), ("landing", "i1"), ("sign", "i1"), ("n_jumps", "<i4"),
        ):
            digest.update(np.ascontiguousarray(getattr(batch, field), dtype=dtype).tobytes())
        for col, dtype in zip(batch.trace, ("<i8", "<f8", "<i8", "<i8"), strict=True):
            assert col.dtype == np.dtype(dtype)
            digest.update(np.ascontiguousarray(col).tobytes())
        assert digest.hexdigest() == (
            "963b1253fe637e969ed9d165d49d5a53b2d00de808bcd67da4f109c082ac252a"
        )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_peak_allocation_near_the_columns(self, ref_split, ref_init, workers):
        # chunks write into the output columns, so with 40 chunks the peak is
        # the columns plus the temporaries of the chunks in flight, not a
        # second copy of every column
        tracemalloc.start()
        try:
            batch = simulate_batch(
                ref_split, 2.0, ref_init, n_paths=400_000, seed=5, chunk=10_000, workers=workers
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        columns = sum(
            getattr(batch, field).nbytes
            for field in ("tau", "pre_exit", "landing", "sign", "n_jumps")
        )
        assert peak <= 1.5 * columns

    def test_invalid_args(self, ref_split, ref_init):
        with pytest.raises(ValueError):
            simulate_batch(ref_split, 2.0, ref_init, n_paths=0, seed=1)
        with pytest.raises(ValueError):
            simulate_batch(ref_split, 2.0, ref_init, n_paths=10, seed=1, chunk=0)

    def test_preconditions(self, ref_split, ref_init):
        from mejump.errors import LambdaTooSmallError, NotTransientError

        with pytest.raises(LambdaTooSmallError):
            simulate_batch(ref_split, 1.0, ref_init, n_paths=10, seed=1)
        for lam in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                simulate_batch(ref_split, lam, ref_init, n_paths=10, seed=1)
        m = decoupled_rotator()
        split = splitting.sign_split(m.T, m.s)
        init = splitting.initial_split(m.alpha)
        with pytest.raises(NotTransientError):
            simulate_batch(split, 0.0, init, n_paths=10, seed=1)
        # above the threshold the rotator simulates fine
        batch = simulate_batch(split, 1.0, init, n_paths=1000, seed=1)
        assert len(batch) == 1000

    def test_zero_rate_state_refused(self, monkeypatch):
        # a state that is never left: only the transience gate rules it out,
        # so with the gate passed JumpChain must still refuse it
        split = splitting.sign_split([[0.0]], [0.0])
        with pytest.raises(NotTransientError, match="not transient"):
            JumpChain(split, 0.0)
        monkeypatch.setattr(jumpsim, "admit_rate", lambda split, lam: None)
        with pytest.raises(NotTransientError, match="state o0 has zero total exit rate"):
            JumpChain(split, 0.0)

    def test_occupancy_matches_matrix_exponential(self, ref_split, ref_init):
        x = 0.5
        n = 200_000
        batch = simulate_batch(
            ref_split, 2.0, ref_init, n_paths=n, seed=11, collect_trace=True
        )
        path, times, frm, _ = batch.trace
        # the state held at x is the from-code of a path's first row after x
        after = np.flatnonzero(times > x)
        held = after[first_rows(path[after])]
        oracle = linalg.mat_exp(splitting.doubled_matrix(ref_split, 2.0) * x)[0]
        emp = np.bincount(frm[held], minlength=6) / float(n)
        se = np.sqrt(oracle * (1.0 - oracle) / n)
        assert np.all(np.abs(emp - oracle) <= 4.0 * se)
        # the paths holding a state at x are exactly those still alive at x
        alive = np.zeros(n, dtype=bool)
        alive[path[held]] = True
        assert np.array_equal(alive, batch.tau > x)

    def test_landing_split_given_pre_exit(self, ref_split, ref_init):
        batch = simulate_batch(ref_split, 2.0, ref_init, n_paths=300_000, seed=13)
        prof = splitting.exit_profile(ref_split, 2.0)
        # states 1 and 2 have a positive termination defect at rate 2
        assert (batch.landing == 2).any()
        for i in range(3):
            mask = batch.pre_exit == i
            n = int(mask.sum())
            if n < 1000:
                continue
            frac_o = float((batch.landing[mask] == 0).mean())
            q = prof.qplus[i]
            band = 4.0 * math.sqrt(max(q * (1 - q), 1e-12) / n)
            assert abs(frac_o - q) <= max(band, 1e-9)

    def test_mean_jumps_stable_across_seeds(self, ref_split, ref_init):
        means = [
            simulate_batch(ref_split, 2.0, ref_init, n_paths=50_000, seed=s).n_jumps.mean()
            for s in (1, 2, 3)
        ]
        assert max(means) - min(means) < 0.05
        assert all(np.isfinite(m) for m in means)

    def test_batch_trace(self, ref_split, ref_init):
        batch = simulate_batch(
            ref_split, 2.0, ref_init, n_paths=200, seed=3, chunk=64, collect_trace=True
        )
        path, times, frm, to = batch.trace
        # per-path jump counts and final landing agree with the outcomes
        for k in (0, 63, 64, 199):  # includes chunk boundaries
            rows = path == k
            assert rows.sum() == batch.n_jumps[k]
            assert to[rows][-1] == 6 + batch.landing[k]
            assert frm[rows][-1] == batch.pre_exit[k]
            assert times[rows][-1] == batch.tau[k]
            assert np.all(np.diff(times[rows]) > 0)
        # tracing must not perturb the draws
        plain = simulate_batch(ref_split, 2.0, ref_init, n_paths=200, seed=3, chunk=64)
        assert np.array_equal(batch.tau, plain.tau)

    def test_zero_defect_state_never_terminates(self, ref_split, ref_init):
        # row 0 of the reference model has zero termination defect at rate 2
        batch = simulate_batch(ref_split, 2.0, ref_init, n_paths=100_000, seed=29)
        exits_from_0 = (batch.pre_exit % 3) == 0
        assert not np.any(batch.landing[exits_from_0] == 2)
