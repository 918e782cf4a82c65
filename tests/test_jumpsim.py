import hashlib
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mejump import cli, jumpsim, linalg, medist, modelio, splitting
from mejump.errors import NotTransientError
from mejump.jumpsim import JumpChain, RngStream, simulate_batch
from mejump.modelio import state_labels
from mejump.models import exponential_model, random_me_model, reference_model
from conftest import decoupled_rotator


@pytest.fixture
def exp_split(exp1):
    return splitting.sign_split(exp1.T, exp1.s)


def arena_buffers(arena):
    return (
        arena.uniforms, arena.floats, arena.ints, arena.mask, arena.times,
        *arena.states, *arena.paths,
    )


def fill_garbage(*bufs):
    for buf in bufs:
        buf.fill(True if buf.dtype == bool else np.nan if buf.dtype.kind == "f" else -1)


def draw(table, state, u, fill=False):
    """``_draw_targets`` into buffers built by the simulator's arena helper,
    every one pre-filled with NaN, -1 or True when ``fill`` is set."""
    arena = jumpsim._Arena(state.size)
    out = np.empty(state.size, dtype=np.int64)
    if fill:
        fill_garbage(out, *arena_buffers(arena))
    got = jumpsim._draw_targets(table, state, u, out, arena)
    assert got is out
    return got


def column_answers(cum):
    """Answers for a guide table over ``cum`` that answer each draw with its
    column."""
    return np.tile(np.arange(cum.shape[1]), (cum.shape[0], 1))


def exit_answers(targets, state, p):
    """A chain table's answers for ``targets`` drawn from ``state``: a
    transient target itself, a landing ``2p + l`` the complemented exit code
    ``~(3 * state + l)``."""
    return np.where(targets < 2 * p, targets, ~(3 * state + targets - 2 * p))


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

    def test_streams_are_pcg64dxsm(self):
        assert type(RngStream(123, 4).generator().bit_generator) is np.random.PCG64DXSM

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 7, 16960, 65536])
    def test_skipping_uniforms_equals_drawing_them(self, n):
        # a point-mass start skips its first-state uniforms by advancing
        # PCG64DXSM one step per uniform: a double takes one 64-bit output
        skipped = RngStream(123, 4).generator()
        jumpsim._skip_uniforms(skipped, n)
        drawn = RngStream(123, 4).generator().random(n + 9)[n:]
        assert np.array_equal(skipped.random(9), drawn), (
            f"skipping {n} uniforms of a fresh stream no longer equals drawing "
            "them: numpy no longer draws a PCG64DXSM double from one 64-bit "
            "output, so a point-mass start must draw its uniforms and discard them"
        )


class TestStateIds:
    """Integer state codes and their trace labels."""

    def test_labels(self):
        labels = state_labels(3)
        assert labels == [
            "o0", "o1", "o2", "a0", "a1", "a2", "DeltaO", "DeltaA", "term",
        ]

    @pytest.mark.parametrize("p", [1, 3, 100])
    def test_exit_codes_split_into_every_pre_exit_and_landing(self, p):
        # 3 * pre_exit + landing, inverted: each of the 6p codes is one
        # (pre-exit state, landing) pair, in that order
        pre_exit, landing = jumpsim.split_exit_code(np.arange(jumpsim.n_exit_codes(p)))
        assert landing.dtype == np.int8
        pairs = np.stack([pre_exit, landing], axis=1).tolist()
        assert pairs == [[i, j] for i in range(2 * p) for j in range(3)]


class TestSampleInitial:
    """Initial states, read from each path's first trace ``from`` code."""

    def test_reference_always_first_original(self, ref_gen, ref_init):
        batch = simulate_batch(
            ref_gen, ref_init, n_paths=50, seed=9, collect_trace=True
        )
        assert np.all(batch.trace[2][first_rows(batch.trace[0])] == 0)

    def test_negative_alpha_starts_anti(self, exp_split):
        init = splitting.initial_split(np.array([-1.0]))
        batch = simulate_batch(
            splitting.build_generator(exp_split, 1.0), init, n_paths=20, seed=1, collect_trace=True
        )
        assert np.all(batch.trace[2][first_rows(batch.trace[0])] == 1)

    def test_balanced_frequencies(self):
        split = splitting.sign_split(-np.eye(2), np.ones(2))
        init = splitting.initial_split(np.array([0.5, -0.5]))
        n = 100_000
        gen = splitting.build_generator(split, 0.0)
        batch = simulate_batch(gen, init, n_paths=n, seed=77, collect_trace=True)
        hits = np.count_nonzero(batch.trace[2][first_rows(batch.trace[0])] < 2)
        # binomial 4-sigma band around 1/2
        assert abs(hits / n - 0.5) <= 4.0 * math.sqrt(0.25 / n)


class TestSimulatePath:
    def test_single_state_law(self, exp1, exp_split):
        # rate-1 model tilted at 1: exit rate 2, half absorb half terminate
        init = splitting.initial_split(exp1.alpha)
        n = 100_000
        batch = simulate_batch(splitting.build_generator(exp_split, 1.0), init, n_paths=n, seed=5)
        assert np.all(batch.n_jumps == 1)
        assert batch.tau.mean() == pytest.approx(
            0.5, abs=4 * batch.tau.std() / math.sqrt(n)
        )
        assert abs((batch.sign == 1).mean() - 0.5) <= 4 * math.sqrt(0.25 / n)
        assert np.all(batch.tau > 0.0)

    def test_reference_first_holding_time(self, ref_gen, ref_init):
        # every diagonal of the doubled block at rate 2 is -3
        n = 50_000
        batch = simulate_batch(
            ref_gen, ref_init, n_paths=n, seed=17, collect_trace=True
        )
        first = batch.trace[1][first_rows(batch.trace[0])]
        assert first.mean() == pytest.approx(1.0 / 3.0, abs=4 * first.std() / math.sqrt(n))

    def test_anti_sojourn_cannot_absorb_positive_when_sminus_zero(self, ref_gen):
        # s^- = 0: an exit from an anti state can never land DeltaO
        init = splitting.initial_split(np.array([-1.0, 0.0, 0.0]))
        batch = simulate_batch(ref_gen, init, n_paths=20_000, seed=3)
        from_anti = batch.pre_exit >= 3
        assert from_anti.any()
        assert not np.any(batch.landing[from_anti] == 0)
        # and symmetrically original exits never land DeltaA here
        assert not np.any(batch.landing[~from_anti] == 1)

    def test_trace_consistent(self, ref_gen):
        # one path started in original state 0
        init = splitting.initial_split(np.array([1.0, 0.0, 0.0]))
        batch = simulate_batch(ref_gen, init, n_paths=1, seed=21, collect_trace=True)
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
    """The guide-table draw equals the count of row entries ``<= u``, clamped
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
    def uniforms(rng, cum, state, shift):
        """Uniforms for draws from ``state``: a quarter random, a quarter tied
        with a stored cumsum (zero weights make repeats among them), a
        quarter on a bucket edge ``b / G`` and a quarter one ulp below one,
        led by 0, 1 - ulp, 1 and 1 + ulp."""
        n_buckets = 2 << shift
        u = rng.random(state.size)
        kind = rng.integers(0, 4, state.size)
        tie = kind == 1
        u[tie] = cum[state[tie], rng.integers(0, cum.shape[1], tie.sum())]
        edge = kind >= 2
        u[edge] = rng.integers(0, n_buckets + 1, edge.sum()) / n_buckets
        below = (kind == 3) & (u > 0.0)
        u[below] = np.nextafter(u[below], 0.0)
        u[:4] = (0.0, np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0))
        return u

    @staticmethod
    def clamped_count(cum, last, state, u):
        return np.minimum((cum[state] <= u[:, None]).sum(axis=1), last[state])

    @staticmethod
    def assert_guide(table, cum, last, every=1, p=None):
        """On every ``every``-th row ``r``: row ``r`` of ``values`` is the
        distinct entries of ``cum[r, :last[r]]``, then ``+inf``, and
        ``answer`` maps ``k`` of them to the column where the next starts, or
        ``last[r]`` (as ``exit_answers`` of the chain on ``p`` states, when
        ``p`` is given).  Guide entry ``b`` is the flat index of the first
        value above ``b / G``, complemented exactly when two or more lie in
        ``(b / G, (b + 1) / G]`` (above 1 for ``b = G``)."""
        rows, width = cum.shape
        assert (1 << table.shift) > width >= (1 << table.shift) // 2
        n_buckets = 2 << table.shift
        # each row's slots: its most distinct values plus one window, and no
        # bucket holds more values than a window reaches
        n_values = [np.unique(cum[r, : last[r]]).size for r in range(rows)]
        slots = max(n_values) + (1 << table.window_bits)
        keys = [np.ceil(np.unique(cum[r, : last[r]]) * n_buckets) for r in range(rows)]
        widest = max((np.unique(k, return_counts=True)[1].max() for k in keys if k.size), default=0)
        assert table.window_bits == int(widest).bit_length()
        assert table.values.size == table.answer.size == rows * slots
        assert table.guide.size == rows * (n_buckets + 2)
        values = table.values.reshape(rows, slots)
        answer = table.answer.reshape(rows, slots)
        guide = table.guide.reshape(rows, n_buckets + 2)[:, : n_buckets + 1]
        edges = np.arange(n_buckets + 1) / n_buckets
        for r in range(0, rows, every):
            live = cum[r, : last[r]]
            distinct = np.unique(live)
            m = distinct.size
            assert np.array_equal(values[r, :m], distinct)
            assert np.all(np.isinf(values[r, m:]))
            want = np.append(np.searchsorted(live, distinct, side="left"), last[r])
            if p is not None:
                want = exit_answers(want, r, p)
            assert np.array_equal(answer[r, : m + 1], want)
            lo = np.searchsorted(distinct, edges, side="right")
            crowded = np.diff(np.append(lo, m)) >= 2
            want = np.where(crowded, ~(r * slots + lo), r * slots + lo)
            assert np.array_equal(guide[r], want)

    @pytest.mark.parametrize("p", [1, 2, 62, 63, 64])
    def test_equals_clamped_count(self, p):
        width = 2 * p + 3
        rng = np.random.default_rng(width)
        cum, last = jumpsim._cum_and_last(self.weight_rows(rng, 4000, width))
        table = jumpsim._guide_table(cum, last, column_answers(cum))
        self.assert_guide(table, cum, last, every=16)
        # the row ends under test: rounded just above 1, just below, exactly 1
        assert (cum[:, -1] > 1.0).any() and (cum[:, -1] < 1.0).any()
        assert (cum[:, -1] == 1.0).any()
        assert (last < width - 1).any()

        state = rng.integers(0, cum.shape[0], 60_000)
        u = self.uniforms(rng, cum, state, table.shift)
        # rows ending just under 1 receive the uniforms past their end
        short = np.flatnonzero(cum[:, -1] < 1.0)
        state[-short.size :] = short
        u[-short.size :] = np.nextafter(1.0, 0.0)

        got = draw(table, state, u)
        assert np.array_equal(got, self.clamped_count(cum, last, state, u))
        assert np.array_equal(draw(table, state, u, fill=True), got)
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
        table = jumpsim._guide_table(cum, last, column_answers(cum))
        self.assert_guide(table, cum, last)
        state = np.zeros(u.size, dtype=np.int64)
        u = self.uniforms(rng, cum, state, table.shift)
        got = draw(table, state, u)
        want = np.minimum(np.searchsorted(cum[0], u, side="right"), last[0])
        assert np.array_equal(got, want)

    def test_crowded_buckets(self):
        # row 0: the cumsums 1/2 -+ 7.5e-10 and -+ 2.5e-10 put two distinct
        # values in each of the buckets (7/16, 8/16] and (8/16, 9/16].  Row 1,
        # written by hand: 1 + ulp and 1 + 2 ulp share the bucket of u >= 1
        ulp = np.spacing(1.0)
        cum0, last0 = jumpsim._cum_and_last(np.array([[1.0, 1e-9, 1e-9, 1e-9, 1.0, 0.0]]))
        cum = np.vstack([cum0, [0.25, 1.0, 1.0 + ulp, 1.0 + 2 * ulp, 1.0 + 3 * ulp, 1.0 + 3 * ulp]])
        last = np.array([last0[0], 4])
        table = jumpsim._guide_table(cum, last, column_answers(cum))
        assert table.shift == 3  # 16 buckets
        # two distinct values at most in a bucket: 4 values and a window of 4
        assert table.window_bits == 2
        assert table.values.size == 2 * 8
        self.assert_guide(table, cum, last)
        guide = table.guide.reshape(2, 18)
        assert guide[0, 7] < 0 and guide[0, 8] < 0 and guide[1, 16] < 0
        assert np.count_nonzero(guide[:, :17] < 0) == 3

        rng = np.random.default_rng(5)
        row0 = cum[0, :4]
        u0 = np.concatenate([
            row0, np.nextafter(row0, 0.0), np.nextafter(row0, 1.0),
            [7 / 16, 8 / 16, 9 / 16, np.nextafter(8 / 16, 0.0), np.nextafter(9 / 16, 0.0)],
            rng.uniform(0.5 - 1e-9, 0.5 + 1e-9, 500), rng.uniform(7 / 16, 9 / 16, 500),
        ])
        u1 = np.array([np.nextafter(1.0, 0.0), 1.0, 1.0 + ulp, 1.0 + 2 * ulp, 1.0 + 3 * ulp])
        state = np.repeat([0, 1], [u0.size, u1.size])
        u = np.concatenate([u0, u1])
        got = draw(table, state, u)
        assert np.array_equal(got, self.clamped_count(cum, last, state, u))
        assert np.array_equal(got[-5:], [1, 2, 3, 4, 4])
        # the arena's scratch and the output carry nothing over from before
        assert np.array_equal(draw(table, state, u, fill=True), got)

    @settings(derandomize=True, database=None, deadline=None)
    @given(
        p=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        step=st.sampled_from([0.0, 1.0]),
    )
    def test_random_models(self, p, seed, step):
        # the compiled chain's rows, at lambda_0 (or the "auto" step above
        # it) and one above, and its start row 2p: the initial law's own
        # one-row table, whose zero landing columns lie past its last target.
        # A draw that lands answers with its exit code, complemented
        rng = np.random.default_rng(seed)
        if p == 1:
            m = exponential_model(float(rng.uniform(0.05, 3.0)))
        else:
            m = random_me_model(p, rng)
        split = splitting.sign_split(m.T, m.s)
        lam = splitting.resolve_lambda(split, "auto") + step
        init = splitting.initial_split(m.alpha)
        gen = splitting.build_generator(split, lam)
        weights = np.column_stack([np.maximum(gen.D, 0.0), gen.abs_o, gen.abs_a, gen.term])
        cum, last = jumpsim._cum_and_last(weights)
        init_weights = np.concatenate([init.alphahat_plus, init.alphahat_minus])
        cum0, last0 = jumpsim._cum_and_last(init_weights[None, :])
        cum = np.vstack([cum, np.pad(cum0, [(0, 0), (0, 3)], mode="edge")])
        last = np.append(last, last0)
        table = JumpChain(gen, init).table
        self.assert_guide(table, cum, last, p=p)
        state = np.repeat(np.arange(2 * p + 1), [250] * (2 * p) + [500])
        u = self.uniforms(rng, cum, state, table.shift)
        got = draw(table, state, u)
        want = exit_answers(self.clamped_count(cum, last, state, u), state, p)
        assert np.array_equal(got, want)

    def test_chain_table(self, ref_gen, ref_init):
        table = JumpChain(ref_gen, ref_init).table
        assert table.shift == 4  # width 9, 32 buckets
        assert table.guide.size == 7 * 34
        # no bucket holds two values, and no row more than 4: 4 + 2 slots
        assert table.window_bits == 1
        assert table.values.size == 7 * 6
        # at rate 2, o0 and a0 have no termination defect, so their last
        # positive targets are the absorbing columns 6 and 7; every other
        # state's is column 8, termination.  The start row 6 holds the
        # initial law, all of it on o0.  The answer after a row's last
        # distinct value is that target, and so is every draw at u >= 1: a
        # landing as the complemented exit code, 3 * state + landing
        ends = exit_answers(np.array([6, 8, 8, 7, 8, 8, 0]), np.arange(7), 3)
        assert np.array_equal(ends, [~0, ~5, ~8, ~10, ~14, ~17, 0])
        values = table.values.reshape(7, 6)
        n_distinct = np.isfinite(values).sum(axis=1)
        assert np.array_equal(table.answer.reshape(7, 6)[np.arange(7), n_distinct], ends)
        for u in (1.0, np.nextafter(1.0, 2.0)):
            got = draw(table, np.arange(7), np.full(7, u))
            assert np.array_equal(got, ends)
        # no bucket of the reference chain holds two distinct values, so a
        # draw skips the search for crowded ones
        assert np.all(table.guide >= 0)


class TestSimulateBatch:
    def test_deterministic_repeat(self, ref_gen, ref_init):
        a = simulate_batch(ref_gen, ref_init, n_paths=30_000, seed=42, chunk=7000)
        b = simulate_batch(ref_gen, ref_init, n_paths=30_000, seed=42, chunk=7000)
        for field in ("tau", "pre_exit", "landing", "sign", "n_jumps"):
            assert np.array_equal(getattr(a, field), getattr(b, field))

    @pytest.mark.parametrize(
        "alpha, start", [((1.0, 0.0, 0.0), 0), ((0.0, 0.0, 1.0), 2)], ids=["o0", "o2"]
    )
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize(
        "n, chunk", [(13, 1), (13, 5), (1000, 7), (65537, 65536)],
        ids=["chunk1", "chunk5", "chunk7", "chunk65536"],
    )
    def test_point_mass_start_skips_what_its_draw_uses(
        self, ref, ref_gen, alpha, start, workers, n, chunk, monkeypatch
    ):
        # a chain whose initial law is one state records it, and each chunk
        # skips the uniforms its draw from the start row would use.  With the
        # recorded start cleared the chunks draw, and no path may change
        medist.validate(medist.MEParams(np.array(alpha), ref.T, ref.s))
        init = splitting.initial_split(np.array(alpha))
        assert JumpChain(ref_gen, init).start == start
        starts = []
        draw_targets = jumpsim._draw_targets

        def counted(table, state, *args):
            starts.append(int(state[0]) == 6)
            return draw_targets(table, state, *args)

        class Drawing(JumpChain):
            def __init__(self, *args):
                super().__init__(*args)
                self.start = None

        monkeypatch.setattr(jumpsim, "_draw_targets", counted)
        kw = dict(n_paths=n, seed=11, chunk=chunk, workers=workers, collect_trace=True)
        built = simulate_batch(ref_gen, init, **kw)
        assert not any(starts)
        monkeypatch.setattr(jumpsim, "JumpChain", Drawing)
        drawn = simulate_batch(ref_gen, init, **kw)
        assert sum(starts) == len(drawn.chunk_slices())
        for field in ("tau", "exit_code", "n_jumps"):
            assert np.array_equal(getattr(built, field), getattr(drawn, field))
        for got, want in zip(built.trace, drawn.trace, strict=True):
            assert np.array_equal(got, want)
        assert np.all(built.trace[2][first_rows(built.trace[0])] == start)

    def test_start_recorded_only_for_a_point_mass(self, exp_split):
        anti = splitting.initial_split(np.array([-1.0]))
        assert JumpChain(splitting.build_generator(exp_split, 1.0), anti).start == 1
        m = random_me_model(100, np.random.default_rng(100))
        split = splitting.sign_split(m.T, m.s)
        lam = splitting.resolve_lambda(split, "auto")
        gen = splitting.build_generator(split, lam)
        assert JumpChain(gen, splitting.initial_split(m.alpha)).start is None

    def test_deterministic_across_workers(self, ref_gen, ref_init):
        # 8192 does not divide 50_000: the last chunk is short.  The threads
        # write into shared columns, so switch between them often
        kw = dict(n_paths=50_000, seed=9, chunk=8192, collect_trace=True)
        a = simulate_batch(ref_gen, ref_init, workers=1, **kw)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            b = simulate_batch(ref_gen, ref_init, workers=3, **kw)
        finally:
            sys.setswitchinterval(interval)
        for field in ("tau", "pre_exit", "landing", "sign", "n_jumps"):
            assert np.array_equal(getattr(a, field), getattr(b, field))
        for col_a, col_b in zip(a.trace, b.trace, strict=True):
            assert col_a.dtype == col_b.dtype
            assert np.array_equal(col_a, col_b)

    def test_failing_worker_raises_once_every_worker_stops(self, ref_gen, ref_init, monkeypatch):
        # whichever worker takes chunk 0 fails on it; the others run every
        # other chunk, and the failure is raised after all have stopped
        ran = []
        simulate_chunks = jumpsim._simulate_chunks

        def failing_chunks(chain, chunks, *args):
            def admitted():
                for lo, hi, rng in chunks:
                    if lo == 0:
                        raise RuntimeError("chunk 0 failed")
                    ran.append(lo)
                    yield lo, hi, rng

            return simulate_chunks(chain, admitted(), *args)

        monkeypatch.setattr(jumpsim, "_simulate_chunks", failing_chunks)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="chunk 0 failed"):
            simulate_batch(ref_gen, ref_init, n_paths=10_000, seed=1, chunk=1000, workers=3)
        assert threading.active_count() == threads
        assert sorted(ran) == list(range(1000, 10_000, 1000))

    @pytest.mark.parametrize(
        "workers, bound",
        [(0, "positive"), (-1, "positive"), (jumpsim.MAX_WORKERS + 1, "at most 64")],
        ids=["0", "-1", "65"],
    )
    def test_no_workers_refused_before_compiling(
        self, ref_gen, ref_init, workers, bound, monkeypatch
    ):
        # with a chunk a path, 65 workers would start 64 threads
        def never(*args):
            raise AssertionError("simulate_batch ran past its argument checks")

        monkeypatch.setattr(jumpsim, "JumpChain", never)
        monkeypatch.setattr(jumpsim, "_simulate_chunks", never)
        with pytest.raises(ValueError, match=f"^workers must be {bound}$"):
            simulate_batch(
                ref_gen, ref_init, n_paths=1000, seed=1, chunk=1, workers=workers
            )

    def test_unindexable_path_count_refused_before_compiling(self, ref_gen, ref_init, monkeypatch):
        # numpy cannot allocate a column longer than its largest index
        def never(*args):
            raise AssertionError("simulate_batch ran past its argument checks")

        monkeypatch.setattr(jumpsim, "JumpChain", never)
        with pytest.raises(ValueError, match=f"^n_paths must be at most {jumpsim.MAX_PATHS},"):
            simulate_batch(ref_gen, ref_init, n_paths=jumpsim.MAX_PATHS + 1, seed=1)

    def test_failed_thread_start_stops_the_started_worker(self, ref_gen, ref_init, monkeypatch):
        # the second thread fails to start while the first holds chunk 0;
        # the first takes no other chunk and has stopped when the error
        # arrives, and the calling thread runs no chunk
        taken, joined = threading.Event(), threading.Event()
        started, ran = [], []
        start, join = threading.Thread.start, threading.Thread.join

        def start_once(thread):
            if started:
                taken.wait(10)
                raise RuntimeError("can't start new thread")
            started.append(thread)
            start(thread)

        def join_and_release(thread, *args):
            joined.set()
            join(thread, *args)

        def held_chunks(chain, chunks, *args):
            for lo, _, _ in chunks:
                ran.append(lo)
                taken.set()
                joined.wait(10)
            return []

        monkeypatch.setattr(threading.Thread, "start", start_once)
        monkeypatch.setattr(threading.Thread, "join", join_and_release)
        monkeypatch.setattr(jumpsim, "_simulate_chunks", held_chunks)
        with pytest.raises(RuntimeError, match="can't start new thread"):
            simulate_batch(ref_gen, ref_init, n_paths=40_000, seed=1, chunk=1000, workers=3)
        assert len(started) == 1 and not started[0].is_alive()
        assert ran == [0]

    @settings(derandomize=True, database=None, deadline=None)
    @given(p=st.integers(1, 12), seed=st.integers(0, 2**32 - 1), zeros=st.booleans())
    @example(p=1, seed=0, zeros=False)
    @example(p=6, seed=1, zeros=True)
    def test_random_models_across_workers(self, p, seed, zeros):
        # 1000 does not divide 2500, so the last chunk is short; with zeros,
        # alpha puts no mass on some states, which the start row skips
        rng = np.random.default_rng(seed)
        if p == 1:
            m = exponential_model(float(rng.uniform(0.05, 3.0)))
        else:
            m = random_me_model(p, rng)
        alpha = m.alpha.copy()
        if zeros:
            alpha[rng.random(p) < 0.5] = 0.0
            alpha[-1] = 1.0
        split = splitting.sign_split(m.T, m.s)
        init = splitting.initial_split(alpha)
        lam = splitting.resolve_lambda(split, "auto")
        kw = dict(n_paths=2500, seed=seed, chunk=1000, collect_trace=True)
        gen = splitting.build_generator(split, lam)
        a = simulate_batch(gen, init, workers=1, **kw)
        b = simulate_batch(gen, init, workers=3, **kw)
        for field in ("tau", "pre_exit", "landing", "n_jumps"):
            assert np.array_equal(getattr(a, field), getattr(b, field))
        for col_a, col_b in zip(a.trace, b.trace, strict=True):
            assert np.array_equal(col_a, col_b)

    def test_one_table_and_one_rate_rule_per_run(self, ref, tmp_path, monkeypatch, capsys):
        # an estimate and an expect each build their doubled chain once,
        # when they plan the run: the gate checks that record and the chain
        # compiles it into one guide table, the start row included, however
        # many chunks (four here) and worker threads (two) draw the paths
        builds, tables = [], []
        build, guide_table = splitting.build_generator, jumpsim._guide_table

        def counted_build(split, lam):
            builds.append(lam)
            return build(split, lam)

        def counted_table(cum, last, answers):
            tables.append(cum.shape)
            return guide_table(cum, last, answers)

        monkeypatch.setattr(modelio, "exit_profile", counted_build)
        monkeypatch.setattr(splitting, "build_generator", counted_build)
        monkeypatch.setattr(jumpsim, "_guide_table", counted_table)
        model, config = tmp_path / "ref.json", tmp_path / "h.json"
        modelio.write_model(ref, model)
        config.write_text(
            '{"n_paths": 1000, "chunk": 300, "workers": 2, "h": {"type": "exp-decay", "c": 2.0}}'
        )
        for args in (
            [
                "estimate", str(model), "--paths", "1000", "--chunk", "300", "--workers", "2",
                "--out", str(tmp_path / "est.csv"),
            ],
            ["expect", str(model), "--config", str(config)],
        ):
            builds.clear()
            tables.clear()
            assert cli.main(args) == 0, capsys.readouterr().err
            assert (builds, tables) == ([2.0], [(7, 9)]), args[0]

    def test_wide_table_digest(self):
        # pins the stream-to-path mapping on a width-63 target table, where the
        # golden CSV pins only the width-9 table of the reference model
        m = random_me_model(30, np.random.default_rng(30))
        split = splitting.sign_split(m.T, m.s)
        lam = splitting.resolve_lambda(split, "auto")
        init = splitting.initial_split(m.alpha)
        gen = splitting.build_generator(split, lam)
        batch = simulate_batch(gen, init, n_paths=50_000, seed=42, chunk=8192, workers=2)
        digest = hashlib.sha256()
        for field, dtype in (
            ("tau", "<f8"), ("pre_exit", "<i4"), ("landing", "i1"), ("sign", "i1"), ("n_jumps", "<i4"),
        ):
            digest.update(np.ascontiguousarray(getattr(batch, field), dtype=dtype).tobytes())
        assert digest.hexdigest() == (
            "fe1386e0f28c843bfb966164989199c7042134e26dc538048667f773d142e90c"
        )

    def test_wide_trace_digest(self):
        # pins the traced rows of every path, chunk boundaries included, on the
        # width-63 table; three workers run the three chunks
        m = random_me_model(30, np.random.default_rng(30))
        split = splitting.sign_split(m.T, m.s)
        lam = splitting.resolve_lambda(split, "auto")
        init = splitting.initial_split(m.alpha)
        gen = splitting.build_generator(split, lam)
        batch = simulate_batch(
            gen, init, n_paths=20_000, seed=42, chunk=7000, workers=3, collect_trace=True
        )
        digest = hashlib.sha256()
        for col, dtype in zip(batch.trace, ("<i8", "<f8", "<i8", "<i8"), strict=True):
            assert col.dtype == np.dtype(dtype)
            digest.update(np.ascontiguousarray(col).tobytes())
        assert digest.hexdigest() == (
            "7b62736694a917ed14be59a5bf97660ad2d7870391e4d60063cc34d52e7e8d58"
        )

    def test_one_path_chunks_digest(self):
        # one path per chunk: every iteration before a path's last exits
        # nobody, and the last one exits everyone
        m = random_me_model(30, np.random.default_rng(30))
        split = splitting.sign_split(m.T, m.s)
        lam = splitting.resolve_lambda(split, "auto")
        init = splitting.initial_split(m.alpha)
        gen = splitting.build_generator(split, lam)
        batch = simulate_batch(gen, init, n_paths=300, seed=42, chunk=1, collect_trace=True)
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
            "0518c754ad1efc107c4ced7a1083aa09c337081afd758995c08726c7a3e2c7d5"
        )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_peak_allocation_near_the_columns(self, ref_gen, ref_init, workers):
        # chunks write into the output columns, so with 40 chunks the peak is
        # the columns plus the temporaries of the chunks in flight, not a
        # second copy of every column
        tracemalloc.start()
        try:
            batch = simulate_batch(
                ref_gen, ref_init, n_paths=400_000, seed=5, chunk=10_000, workers=workers
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        columns = sum(
            getattr(batch, field).nbytes
            for field in ("tau", "pre_exit", "landing", "sign", "n_jumps")
        )
        assert peak <= 1.5 * columns

    @pytest.mark.parametrize("workers", [1, 2])
    def test_peak_allocation_within_the_arenas(self, ref_gen, ref_init, workers):
        # past the columns, a run holds one arena per worker and the index
        # lists of one iteration per worker, which are a fraction of it; an
        # arena has a slot for each path of a chunk and of the tail before it
        chunk = 65536
        arena = jumpsim._Arena(chunk)
        arena_bytes = sum(buf.nbytes for buf in (*arena_buffers(arena), arena.ramp))
        assert arena_bytes == 81 * (chunk + chunk // 8)
        # a first call loads numpy's lazy imports, which tracemalloc would count
        simulate_batch(ref_gen, ref_init, n_paths=100, seed=5, chunk=10, workers=2)
        tracemalloc.start()
        try:
            batch = simulate_batch(
                ref_gen, ref_init, n_paths=400_000, seed=5, chunk=chunk, workers=workers
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        columns = sum(
            getattr(batch, field).nbytes
            for field in ("tau", "pre_exit", "landing", "sign", "n_jumps")
        )
        assert peak - columns <= 1.1 * workers * arena_bytes

    @pytest.mark.parametrize(
        "workers, n, chunk",
        [(1, 20_000, 6000), (2, 20_000, 6000), (1, 7500, 1000), (2, 7500, 1000)],
        ids=["1", "2", "1-chunk1000", "2-chunk1000"],
    )
    def test_reused_arena_matches_fresh_arrays(self, workers, n, chunk, monkeypatch):
        # the chunk does not divide n, so the last chunk is shorter than the
        # arena its worker reuses, and each chunk joins the pipeline while the
        # tail of the one before still runs.  The reference runs each chunk
        # alone in a fresh arena of its own size, every buffer pre-filled
        # with garbage
        m = random_me_model(30, np.random.default_rng(30))
        split = splitting.sign_split(m.T, m.s)
        lam = splitting.resolve_lambda(split, "auto")
        init = splitting.initial_split(m.alpha)
        draws = []
        draw_targets = jumpsim._draw_targets

        def counted(table, state, *args):
            draws.append(state.size)
            return draw_targets(table, state, *args)

        monkeypatch.setattr(jumpsim, "_draw_targets", counted)
        gen = splitting.build_generator(split, lam)
        batch = simulate_batch(
            gen, init, n_paths=n, seed=8, chunk=chunk, workers=workers, collect_trace=True
        )
        pipelined = len(draws)
        chain = JumpChain(gen, init)
        columns = (np.full(n, np.nan), np.full(n, -1, np.int32), np.full(n, -1, np.int32))
        rows = []
        for index, lo in enumerate(range(0, n, chunk)):
            hi = min(lo + chunk, n)
            arena = jumpsim._Arena(hi - lo)
            fill_garbage(*arena_buffers(arena))
            rng = RngStream(8, index).generator()
            rows += jumpsim._simulate_chunks(chain, iter([(lo, hi, rng)]), columns, arena, True)
        # one draw per chunk for the first states and one per iteration: the
        # tails overlapped, so the pipeline ran fewer iterations
        assert pipelined < len(draws) - pipelined
        for field, col in zip(("tau", "exit_code", "n_jumps"), columns, strict=True):
            assert np.array_equal(getattr(batch, field), col)
        path, times, frm, to = (np.concatenate(col) for col in zip(*rows))
        # a row that exits answers with its complemented exit code; its
        # target is the landing's code 2p + landing
        exits = to < 0
        to[exits] = 2 * m.p + jumpsim.split_exit_code(~to[exits])[1]
        order = np.lexsort((times, path))
        for got, want in zip(batch.trace, (path, times, frm, to), strict=True):
            assert np.array_equal(got, want[order])

    @pytest.mark.parametrize(
        "wide, n_paths, seed, most", [(False, 1_000_000, 42, 70), (True, 200_000, 5, 250)],
        ids=["reference", "wide"],
    )
    def test_pipeline_iterations_at_benchmark_scale(self, wide, n_paths, seed, most, monkeypatch):
        # the simulations of the benchmark's estimate workloads, in the
        # default chunks on one worker: the pipeline runs 54 (reference) and
        # 239 (wide) iterations, where one chunk at a time runs 176 and 592.
        # Each iteration is one draw from transient states; a chunk whose
        # first states are drawn draws them from the start row 2p
        m = random_me_model(100, np.random.default_rng(100)) if wide else reference_model()
        split = splitting.sign_split(m.T, m.s)
        lam = splitting.resolve_lambda(split, "auto")
        draws = []
        draw_targets = jumpsim._draw_targets

        def counted(table, state, *args):
            draws.append(int(state[0]) < 2 * m.p)
            return draw_targets(table, state, *args)

        monkeypatch.setattr(jumpsim, "_draw_targets", counted)
        gen = splitting.build_generator(split, lam)
        simulate_batch(gen, splitting.initial_split(m.alpha), n_paths, seed)
        assert sum(draws) <= most

    def test_invalid_args(self, ref_gen, ref_init):
        with pytest.raises(ValueError):
            simulate_batch(ref_gen, ref_init, n_paths=0, seed=1)
        with pytest.raises(ValueError):
            simulate_batch(ref_gen, ref_init, n_paths=10, seed=1, chunk=0)
        with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
            simulate_batch(ref_gen, ref_init, n_paths=10, seed=-1)

    def test_preconditions(self, ref_split):
        from mejump.errors import LambdaTooSmallError, NotTransientError

        # the build refuses a rate below lambda_0 or not finite, so no chain
        # at one can reach the simulator; the gate refuses one not transient
        with pytest.raises(LambdaTooSmallError):
            splitting.build_generator(ref_split, 1.0)
        for lam in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                splitting.build_generator(ref_split, lam)
        m = decoupled_rotator()
        split = splitting.sign_split(m.T, m.s)
        init = splitting.initial_split(m.alpha)
        with pytest.raises(NotTransientError):
            simulate_batch(splitting.build_generator(split, 0.0), init, n_paths=10, seed=1)
        # above the threshold the rotator simulates fine
        batch = simulate_batch(splitting.build_generator(split, 1.0), init, n_paths=1000, seed=1)
        assert len(batch) == 1000

    def test_zero_rate_state_refused(self):
        # a state that is never left: transience rules it out, and with a
        # wrong abscissa that claims transience the gate's exit-rate rule
        # still refuses it before JumpChain builds a table
        split = splitting.sign_split([[0.0]], [0.0])
        init = splitting.initial_split([1.0])
        with pytest.raises(NotTransientError, match="not transient"):
            JumpChain(splitting.build_generator(split, 0.0), init)
        faked = splitting.SignSplit(
            split.Tplus, split.Tminus, split.splus, split.sminus, split.lambda0, eta=-1.0
        )
        gen = splitting.build_generator(faked, 0.0)
        assert gen.transient
        with pytest.raises(NotTransientError, match="state o0 has zero total exit rate"):
            splitting.admit_rate(gen)
        with pytest.raises(NotTransientError, match="state o0 has zero total exit rate"):
            JumpChain(gen, init)

    def test_occupancy_matches_matrix_exponential(self, ref_split, ref_gen, ref_init):
        x = 0.5
        n = 200_000
        batch = simulate_batch(
            ref_gen, ref_init, n_paths=n, seed=11, collect_trace=True
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

    def test_landing_split_given_pre_exit(self, ref_gen, ref_init):
        batch = simulate_batch(ref_gen, ref_init, n_paths=300_000, seed=13)
        # states 1 and 2 have a positive termination defect at rate 2
        assert (batch.landing == 2).any()
        for i in range(3):
            mask = batch.pre_exit == i
            n = int(mask.sum())
            if n < 1000:
                continue
            frac_o = float((batch.landing[mask] == 0).mean())
            q = ref_gen.qplus[i]
            band = 4.0 * math.sqrt(max(q * (1 - q), 1e-12) / n)
            assert abs(frac_o - q) <= max(band, 1e-9)

    def test_mean_jumps_stable_across_seeds(self, ref_gen, ref_init):
        means = [
            simulate_batch(ref_gen, ref_init, n_paths=50_000, seed=s).n_jumps.mean()
            for s in (1, 2, 3)
        ]
        assert max(means) - min(means) < 0.05
        assert all(np.isfinite(m) for m in means)

    def test_batch_trace(self, ref_gen, ref_init):
        batch = simulate_batch(
            ref_gen, ref_init, n_paths=200, seed=3, chunk=64, collect_trace=True
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
        plain = simulate_batch(ref_gen, ref_init, n_paths=200, seed=3, chunk=64)
        assert np.array_equal(batch.tau, plain.tau)

    def test_zero_defect_state_never_terminates(self, ref_gen, ref_init):
        # row 0 of the reference model has zero termination defect at rate 2
        batch = simulate_batch(ref_gen, ref_init, n_paths=100_000, seed=29)
        exits_from_0 = (batch.pre_exit % 3) == 0
        assert not np.any(batch.landing[exits_from_0] == 2)
