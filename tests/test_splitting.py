import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mejump import linalg, splitting
from mejump.errors import (
    LambdaTooSmallError,
    NotTransientError,
    PositiveDiagonalError,
    ZeroAlphaError,
)
from mejump.models import exponential_model, random_me_model, random_phase_type

from conftest import decoupled_rotator

REF_TPLUS = np.array([[-1.0, 0.0, 2.0 / 3.0], [1.0, -1.0, 0.0], [0.0, 0.0, -1.0]])
REF_TMINUS = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 2.0 / 3.0], [0.0, 0.0, 0.0]])


class TestSignSplit:
    def test_reference_split(self, ref, ref_split):
        assert np.array_equal(ref_split.Tplus, REF_TPLUS)
        assert np.array_equal(ref_split.Tminus, REF_TMINUS)
        assert np.array_equal(ref_split.splus, ref.s)
        assert np.array_equal(ref_split.sminus, np.zeros(3))

    def test_phase_type_has_nothing_to_split(self, phase_type):
        split = splitting.sign_split(phase_type.T, phase_type.s)
        assert np.array_equal(split.Tminus, np.zeros((2, 2)))
        assert np.array_equal(split.sminus, np.zeros(2))
        assert np.array_equal(split.Tplus, phase_type.T)

    def test_positive_diagonal_refused(self):
        T = np.array([[0.5, -1.0], [0.0, -1.0]])
        with pytest.raises(PositiveDiagonalError):
            splitting.sign_split(T, np.array([0.5, 1.0]))

    def test_reconstruction_is_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            m = random_me_model(int(rng.integers(2, 5)), rng)
            split = splitting.sign_split(m.T, m.s)
            assert np.array_equal(split.Tplus - split.Tminus, m.T)
            assert np.array_equal(split.splus - split.sminus, m.s)
            off = ~np.eye(m.p, dtype=bool)
            assert np.all(np.minimum(split.Tplus, split.Tminus)[off] == 0.0)
            assert np.all(np.minimum(split.splus, split.sminus) == 0.0)
            assert np.all(split.Tminus >= 0.0)
            assert np.all(np.diag(split.Tplus) <= 0.0)


class TestLambdaZero:
    def test_reference_is_two(self, ref_split):
        assert ref_split.lambda0 == pytest.approx(2.0, abs=1e-12)

    def test_phase_type_is_zero(self, phase_type):
        split = splitting.sign_split(phase_type.T, phase_type.s)
        assert split.lambda0 == 0.0

    def test_pure_decay_is_zero(self):
        split = splitting.sign_split(np.array([[-1.0]]), np.array([0.0]))
        assert split.lambda0 == 0.0


class TestInitialSplit:
    def test_positive_unit(self):
        init = splitting.initial_split(np.array([1.0, 0.0, 0.0]))
        assert init.wplus == 1.0 and init.wminus == 0.0
        assert np.array_equal(init.alphahat_plus, [1.0, 0.0, 0.0])
        assert np.array_equal(init.alphahat_minus, np.zeros(3))

    def test_negative_unit(self):
        init = splitting.initial_split(np.array([-1.0]))
        assert init.wminus == 1.0
        assert np.array_equal(init.alphahat_minus, [1.0])
        assert np.array_equal(init.alpha_plus, [0.0])

    def test_balanced(self):
        init = splitting.initial_split(np.array([0.5, -0.5]))
        assert init.wplus == init.wminus == 0.5
        assert np.array_equal(init.alphahat_plus, [0.5, 0.0])
        assert np.array_equal(init.alphahat_minus, [0.0, 0.5])

    def test_zero_alpha(self):
        with pytest.raises(ZeroAlphaError):
            splitting.initial_split(np.zeros(3))

    def test_decomposition_identity(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            alpha = rng.normal(size=4)
            init = splitting.initial_split(alpha)
            rebuilt = init.wplus * init.alpha_plus - init.wminus * init.alpha_minus
            assert rebuilt == pytest.approx(alpha, abs=1e-15)
            total = init.alphahat_plus.sum() + init.alphahat_minus.sum()
            assert total == pytest.approx(1.0, abs=1e-12)
            assert np.all(init.alphahat_plus >= 0) and np.all(init.alphahat_minus >= 0)


class TestGenerator:
    def test_reference_doubled_matrix(self, ref_split):
        gen = splitting.build_generator(ref_split, 2.0)
        expected = np.block(
            [[REF_TPLUS - 2 * np.eye(3), REF_TMINUS], [REF_TMINUS, REF_TPLUS - 2 * np.eye(3)]]
        )
        assert np.array_equal(gen.D, expected)
        assert np.array_equal(gen.abs_o[:3], ref_split.splus)
        assert np.array_equal(gen.abs_a[:3], ref_split.sminus)

    def test_row_sum_law(self, ref_split):
        for lam in (2.0, 2.5, 5.0):
            gen = splitting.build_generator(ref_split, lam)
            totals = gen.D.sum(axis=1) + gen.abs_o + gen.abs_a + gen.term
            assert np.abs(totals).max() < 1e-12
            assert np.all(gen.term >= 0.0)
            off = gen.D[~np.eye(6, dtype=bool)]
            assert np.all(off >= 0.0)

    def test_tight_at_threshold(self, ref_split):
        gen = splitting.build_generator(ref_split, ref_split.lambda0)
        assert gen.term.min() <= 1e-12

    def test_below_threshold_refused(self, ref_split):
        with pytest.raises(LambdaTooSmallError):
            splitting.build_generator(ref_split, 1.5)

    def test_block_symmetry(self, ref_split):
        gen = splitting.build_generator(ref_split, 3.0)
        p = ref_split.p
        assert np.array_equal(gen.D[:p, :p], gen.D[p:, p:])
        assert np.array_equal(gen.D[:p, p:], gen.D[p:, :p])


class TestExitProfile:
    def test_reference(self, ref_split):
        prof = splitting.exit_profile(ref_split, 2.0)
        assert prof.d == pytest.approx([4.0 / 3.0, 4.0 / 3.0, 3.0], rel=1e-14)
        assert prof.qplus == pytest.approx([1.0, 0.5, 1.0 / 3.0], rel=1e-14)
        assert np.array_equal(prof.qminus, np.zeros(3))
        assert prof.qbar_original == pytest.approx([1.0, 0.5, 1.0 / 3.0], rel=1e-14)

    def test_zero_exit_vector(self):
        split = splitting.sign_split(np.array([[-2.0]]), np.array([0.0]))
        prof = splitting.exit_profile(split, 3.0)
        assert np.array_equal(prof.qplus, [0.0]) and np.array_equal(prof.qbar_original, [0.0])

    def test_zero_rate_row_convention(self):
        # closed rotation class: d = 0 on it, so q is 0 by convention
        m = decoupled_rotator()
        split = splitting.sign_split(m.T, m.s)
        prof = splitting.exit_profile(split, split.lambda0)
        assert prof.d[:2] == pytest.approx([0.0, 0.0], abs=1e-14)
        assert np.array_equal(prof.qplus[:2], [0.0, 0.0])

    def test_bounded_probabilities(self, ref_split):
        for lam in (2.0, 4.0):
            prof = splitting.exit_profile(ref_split, lam)
            assert np.all(prof.qplus + prof.qminus <= 1.0 + 1e-12)
            assert np.all(prof.qplus >= 0.0) and np.all(prof.qminus >= 0.0)


class TestRowRule:
    """The rate gate, the generator and the exit profile agree on every rate
    the gate admits."""

    @pytest.mark.parametrize("rate", [0.25, 0.1])
    def test_rate_just_below_a_zero_threshold(self, rate):
        # lambda_0 = 0 for Exp(rate), and the gate admits down to -1e-12
        split = splitting.sign_split(exponential_model(rate).T, exponential_model(rate).s)
        gen = splitting.build_generator(split, -9e-13)
        assert np.array_equal(gen.term, [0.0, 0.0])
        prof = splitting.exit_profile(split, -9e-13)
        assert np.array_equal(prof.qplus, [1.0]) and np.array_equal(prof.d, [rate])

    @settings(derandomize=True, database=None, deadline=None)
    @given(
        p=st.integers(1, 8),
        k=st.integers(-4, 6),
        seed=st.integers(0, 2**32 - 1),
        step=st.sampled_from([-0.9, 0.0, 1.0]),
    )
    def test_every_admitted_rate_builds(self, p, k, seed, step):
        rng = np.random.default_rng(seed)
        if p == 1:
            m = exponential_model(float(rng.uniform(0.05, 3.0)))
        else:
            m = random_me_model(p, rng)
        split = splitting.sign_split(m.T * 10.0**k, m.s * 10.0**k)
        lam0 = split.lambda0
        lam = lam0 + step * splitting.LAMBDA_SLACK * max(1.0, abs(lam0))
        gen = splitting.build_generator(split, lam)
        assert np.all(gen.term >= 0.0)
        prof = splitting.exit_profile(split, lam)
        assert np.all(prof.d >= 0.0)
        assert np.all(prof.qplus + prof.qminus <= 1.0 + 1e-12)


class TestTransience:
    def test_reference_at_two(self, ref_split):
        transient, abscissa = splitting.check_transience(ref_split, 2.0)
        assert transient and abscissa == pytest.approx(-2.0, abs=1e-9)

    def test_reference_at_zero(self, ref_split):
        transient, abscissa = splitting.check_transience(ref_split, 0.0)
        assert not transient and abscissa == pytest.approx(0.0, abs=1e-9)

    def test_phase_type_at_zero(self, phase_type):
        split = splitting.sign_split(phase_type.T, phase_type.s)
        transient, _ = splitting.check_transience(split, 0.0)
        assert transient

    def test_matches_doubled_abscissa(self, ref_split):
        rng = np.random.default_rng(14)
        splits = [ref_split]
        for p in (2, 5, 12, 30):
            m = random_me_model(p, rng)
            splits.append(splitting.sign_split(m.T, m.s))
        # S |T| S with S = diag(+-1) has the spectrum of |T| = T^+ + T^-, so
        # the abscissa of T reaches eta: the bound is tight
        base = random_phase_type(4, rng)
        S = np.diag([1.0, -1.0, 1.0, -1.0])
        splits.append(splitting.sign_split(S @ base.T @ S, S @ base.s))
        for split in splits:
            for lam in (0.0, split.lambda0, split.lambda0 + 1.5):
                _, abscissa = splitting.check_transience(split, lam)
                direct = linalg.spectral_abscissa(splitting.doubled_matrix(split, lam))
                assert abscissa == pytest.approx(direct, abs=1e-8)


class TestResolveLambda:
    def test_auto_reference(self, ref_split):
        assert splitting.resolve_lambda(ref_split, "auto") == 2.0

    def test_auto_bumps_when_not_transient_at_threshold(self):
        m = decoupled_rotator()
        split = splitting.sign_split(m.T, m.s)
        assert split.lambda0 == 0.0
        transient, _ = splitting.check_transience(split, 0.0)
        assert not transient
        assert splitting.resolve_lambda(split, "auto") == 1.0

    def test_numeric_passthrough(self, ref_split):
        assert splitting.resolve_lambda(ref_split, 3.5) == 3.5


class TestDoubledSignedDensity:
    def test_matches_tilted_matrix_exponential(self, ref, ref_split):
        for lam in (2.0, 3.0):
            M = ref.T - lam * np.eye(3)
            for x in (0.0, 0.5, 2.0):
                vec = splitting.doubled_signed_density(ref_split, lam, x)
                want = linalg.mat_exp(M * x) @ ref.s
                assert np.abs(vec[:3] - want).max() < 1e-10
                assert np.abs(vec[3:] + vec[:3]).max() < 1e-12

    def test_reference_entry_closed_form(self, ref_split):
        for x in (0.3, 1.0, 4.0):
            vec = splitting.doubled_signed_density(ref_split, 2.0, x)
            want = (2.0 / 3.0) * np.exp(-3.0 * x) * (1.0 + np.cos(x))
            assert vec[0] == pytest.approx(want, abs=1e-10)

    def test_preconditions(self, ref_split):
        with pytest.raises(LambdaTooSmallError):
            splitting.doubled_signed_density(ref_split, 1.0, 0.5)
        m = decoupled_rotator()
        split = splitting.sign_split(m.T, m.s)
        with pytest.raises(NotTransientError):
            splitting.doubled_signed_density(split, 0.0, 0.5)


def _match_multisets(a, b, tol):
    b = list(b)
    for x in a:
        dists = [abs(x - y) for y in b]
        j = int(np.argmin(dists))
        if dists[j] > tol:
            return False
        b.pop(j)
    return not b


class TestEigenvalueUnion:
    def test_union_shift(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            m = random_me_model(int(rng.integers(2, 5)), rng)
            split = splitting.sign_split(m.T, m.s)
            lam = split.lambda0 + 0.7
            D = splitting.doubled_matrix(split, lam)
            got = linalg.eigenvalues(D)
            want = (
                np.concatenate(
                    [
                        linalg.eigenvalues(split.Tplus + split.Tminus),
                        linalg.eigenvalues(m.T),
                    ]
                )
                - lam
            )
            assert _match_multisets(got, want, 1e-8)
