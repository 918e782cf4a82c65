import math

import numpy as np
import pytest

from mejump import linalg
from mejump.errors import SingularMatrixError
from mejump.models import exponential_model, random_me_model
from mejump.splitting import doubled_matrix, sign_split


def random_stable(rng, p):
    A = rng.normal(size=(p, p))
    return A - (linalg.spectral_abscissa(A) + rng.uniform(0.5, 2.0)) * np.eye(p)


class TestMatExp:
    def test_zero_matrix(self):
        assert np.allclose(linalg.mat_exp(np.zeros((3, 3))), np.eye(3), atol=1e-15)

    def test_diagonal(self):
        E = linalg.mat_exp(np.diag([-1.0, -2.0]))
        assert E == pytest.approx(np.diag([math.exp(-1), math.exp(-2)]), rel=1e-14)

    def test_reference_density_closed_form(self, ref):
        # alpha e^{T} s against (2/3) e^{-1} (1 + cos 1)
        got = ref.alpha @ linalg.mat_exp(ref.T * 1.0) @ ref.s
        want = (2.0 / 3.0) * math.exp(-1.0) * (1.0 + math.cos(1.0))
        assert got == pytest.approx(want, abs=1e-13)
        assert got == pytest.approx(0.37776, abs=1e-5)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            linalg.mat_exp(np.zeros((2, 3)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            linalg.mat_exp(np.array([[np.nan, 0.0], [0.0, 0.0]]))

    def test_inverse_pairs(self):
        rng = np.random.default_rng(1)
        for p in (2, 4, 8):
            A = random_stable(rng, p)
            prod = linalg.mat_exp(A) @ linalg.mat_exp(-A)
            assert np.abs(prod - np.eye(p)).max() < 1e-10

    def test_semigroup(self):
        rng = np.random.default_rng(2)
        A = random_stable(rng, 5)
        x, y = 0.7, 1.9
        lhs = linalg.mat_exp(A * (x + y))
        rhs = linalg.mat_exp(A * x) @ linalg.mat_exp(A * y)
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_derivative_matches_finite_differences(self, ref):
        def f(x):
            return ref.alpha @ linalg.mat_exp(ref.T * x) @ ref.s

        h = 1e-5
        for x in (0.3, 1.0, 2.5):
            deriv = ref.alpha @ (ref.T @ linalg.mat_exp(ref.T * x)) @ ref.s
            central = (f(x + h) - f(x - h)) / (2 * h)
            assert deriv == pytest.approx(central, rel=1e-6)


class TestPadeKernel:
    """The numpy scaling-and-squaring kernel against scipy's ``expm``."""

    @staticmethod
    def rel_err(got, want):
        return np.abs(got - want).max() / np.abs(want).max()

    @pytest.mark.parametrize("p", [1, 2, 3, 10, 30, 100])
    def test_agrees_with_scipy(self, p):
        import scipy.linalg

        if p == 1:
            params = exponential_model(1.7)
        else:
            params = random_me_model(p, np.random.default_rng(p))
        split = sign_split(params.T, params.s)
        for M in (params.T, doubled_matrix(split, split.lambda0)):
            for x in (0.01, 0.1, 0.5, 1.0, 3.0, 10.0):
                want = scipy.linalg.expm(M * x)
                assert self.rel_err(linalg.mat_exp(M * x), want) <= 1e-12

    def test_every_degree_and_the_scaling_are_reached(self, monkeypatch):
        import scipy.linalg

        seen = []
        pade_uv = linalg._pade_uv

        def recording(A, m):
            seen.append((m, np.abs(A).sum(axis=0).max()))
            return pade_uv(A, m)

        monkeypatch.setattr(linalg, "_pade_uv", recording)
        B = np.random.default_rng(5).normal(size=(6, 6))
        B /= np.abs(B).sum(axis=0).max()  # unit 1-norm
        theta = linalg.PADE_THETA
        cases = [
            (theta[3], 3), (theta[3] * 1.001, 5), (theta[5], 5), (theta[7], 7),
            (theta[9], 9), (theta[9] * 1.001, 13), (theta[13], 13), (60.0, 13),
        ]
        for norm, degree in cases:
            seen.clear()
            got = linalg.mat_exp(B * norm)
            assert [m for m, _ in seen] == [degree]
            assert self.rel_err(got, scipy.linalg.expm(B * norm)) <= 1e-12
        # 60 > theta_13: degree 13 runs on A / 2^4, then squares four times
        assert seen[0][1] == pytest.approx(60.0 / 16.0, rel=1e-14)

    def test_diagonal_is_exp_of_the_diagonal(self, monkeypatch):
        monkeypatch.setattr(linalg, "_pade_uv", None)  # never reached
        d = np.array([-1.5, 0.3, -40.0, 2.0, 0.0])
        assert np.array_equal(linalg.mat_exp(np.diag(d)), np.diag(np.exp(d)))

    @pytest.mark.parametrize("lam", [1e3, 1e9, 1e15])
    def test_zero_row_survives_the_squaring(self, ref, lam):
        # the Van Loan block [[M, s], [0, 0]] delta: its last row stays e_p,
        # and its corner column is M^{-1} (e^{M delta} - I) s, here -M^{-1} s
        M = ref.T - lam * np.eye(3)
        block = np.zeros((4, 4))
        block[:3, :3] = M
        block[:3, 3] = ref.s
        E = linalg.mat_exp(block * 0.1)
        assert np.array_equal(E[3], [0.0, 0.0, 0.0, 1.0])
        want = -np.linalg.solve(M, ref.s)
        assert np.abs(E[:3, 3] - want).max() <= 1e-14 * np.abs(want).max()

    def test_overflowing_norm_raises_value_error(self):
        A = np.full((2, 2), 1e308)
        with pytest.raises(ValueError, match="1-norm overflows"):
            linalg.mat_exp(A)


class TestSolve:
    def test_identity(self):
        b = np.array([1.0, -2.0, 0.5])
        assert np.array_equal(linalg.solve_linear(np.eye(3), b), b)

    def test_resolvent_at_two(self, ref):
        # hand elimination gives alpha (2I - T)^{-1} = (3/10, -1/10, 4/45)
        A = 2.0 * np.eye(3) - ref.T
        x = linalg.solve_linear(A.T, ref.alpha)
        assert x == pytest.approx([0.3, -0.1, 4.0 / 45.0], rel=1e-12)
        assert x @ ref.s == pytest.approx(19.0 / 45.0, rel=1e-12)

    def test_unit_mass(self, ref):
        assert ref.alpha @ linalg.solve_linear(-ref.T, ref.s) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_singular_raises(self):
        A = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(SingularMatrixError):
            linalg.solve_linear(A, np.array([1.0, 1.0]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            linalg.solve_linear(np.eye(3), np.ones(2))

    def test_residual_bound_on_random_systems(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = int(rng.integers(2, 10))
            A = rng.normal(size=(p, p)) + p * np.eye(p)
            b = rng.normal(size=p)
            x = linalg.solve_linear(A, b)
            assert np.linalg.norm(A @ x - b) <= 1e-10 * (
                np.linalg.norm(A, 1) * np.linalg.norm(x) + np.linalg.norm(b)
            )


class TestSpectralAbscissa:
    def test_diagonal(self):
        assert linalg.spectral_abscissa(np.diag([-1.0, -2.0])) == pytest.approx(
            -1.0, abs=1e-12
        )

    def test_reference_T(self, ref):
        assert linalg.spectral_abscissa(ref.T) == pytest.approx(-1.0, abs=1e-9)

    def test_folded_reference(self, ref_split):
        folded = ref_split.Tplus + ref_split.Tminus
        assert linalg.spectral_abscissa(folded) == pytest.approx(0.0, abs=1e-9)

    def test_shift(self):
        rng = np.random.default_rng(4)
        A = rng.normal(size=(6, 6))
        lam = 1.7
        assert linalg.spectral_abscissa(A - lam * np.eye(6)) == pytest.approx(
            linalg.spectral_abscissa(A) - lam, abs=1e-9
        )

    def test_eigenvalues_multiset(self):
        vals = linalg.eigenvalues(np.diag([-3.0, -1.0, -2.0]))
        assert sorted(vals.real) == pytest.approx([-3.0, -2.0, -1.0], abs=1e-12)
