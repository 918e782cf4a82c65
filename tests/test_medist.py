import math

import numpy as np
import pytest
import scipy.integrate

from mejump import medist
from mejump.errors import LambdaTooSmallError, NotADensityError, UnstableTError
from mejump.medist import MEParams
from mejump.models import random_me_model, reference_model

from conftest import negative_density_model


class TestMEParams:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            MEParams(alpha=np.ones(2), T=np.eye(3), s=np.ones(3))

    def test_nonfinite(self):
        with pytest.raises(ValueError):
            MEParams(alpha=np.array([np.inf]), T=np.array([[-1.0]]), s=np.array([1.0]))

    def test_arrays_frozen(self, ref):
        with pytest.raises(ValueError):
            ref.T[0, 0] = 5.0

    def test_callers_arrays_are_copied_not_frozen(self):
        alpha = np.array([1.0])
        params = MEParams(alpha=alpha, T=np.array([[-1.0]]), s=np.array([1.0]))
        alpha[0] = 0.5
        assert params.alpha[0] == 1.0


class TestValidate:
    def test_reference(self, ref):
        report = medist.validate(ref)
        assert report.sigma0 == pytest.approx(-1.0, abs=1e-9)
        assert report.normalization == pytest.approx(1.0, abs=1e-9)
        assert report.diag_nonpositive
        assert report.messages == []

    def test_exponential(self, exp1):
        report = medist.validate(exp1)
        assert report.sigma0 == pytest.approx(-1.0)
        assert report.normalization == pytest.approx(1.0)

    def test_unstable(self):
        bad = MEParams(alpha=np.array([1.0]), T=np.array([[1.0]]), s=np.array([1.0]))
        with pytest.raises(UnstableTError):
            medist.validate(bad)

    def test_not_a_density(self, ref):
        bad = MEParams(alpha=ref.alpha, T=ref.T, s=2.0 * ref.s)
        with pytest.raises(NotADensityError):
            medist.validate(bad)

    def test_positive_diagonal_is_a_note_not_an_error(self):
        # analytic use stays legal; only the jump construction refuses.
        # stable despite t11 > 0: trace -3.8, det 3.2
        T = np.array([[0.2, -2.0], [2.0, -4.0]])
        alpha = np.array([1.0, 0.0])
        s = np.array([1.0, 1.0])
        norm = float(alpha @ np.linalg.solve(-T, s))
        p = MEParams(alpha=alpha / norm, T=T, s=s)
        report = medist.validate(p)
        assert not report.diag_nonpositive
        assert report.messages


class TestDensity:
    def test_at_zero_is_alpha_dot_s(self, ref):
        assert medist.density(ref, 0.0) == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_zero_of_the_cosine(self, ref):
        # (2/3) e^{-pi} (1 + cos pi) = 0; rounding noise clamps to zero
        assert medist.density(ref, math.pi) == pytest.approx(0.0, abs=1e-12)
        assert medist.density(ref, math.pi) >= 0.0

    def test_exponential(self, exp1):
        assert medist.density(exp1, 2.0) == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_closed_form_on_grid(self, ref):
        xs = np.linspace(0.0, 10.0, 50)
        want = (2.0 / 3.0) * np.exp(-xs) * (1.0 + np.cos(xs))
        assert medist.density(ref, xs) == pytest.approx(want, abs=1e-12)

    def test_negative_x_rejected(self, ref):
        with pytest.raises(ValueError):
            medist.density(ref, -0.5)

    def test_multidimensional_x_rejected(self, ref):
        with pytest.raises(ValueError):
            medist.density(ref, np.zeros((2, 2)))

    def test_materially_negative_refused(self):
        bad = negative_density_model()
        assert medist.validate(bad).normalization == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(NotADensityError):
            medist.density(bad, math.pi)


class TestLaplace:
    def test_at_zero_is_total_mass(self, ref):
        assert medist.laplace_transform(ref, 0.0) == pytest.approx(1.0, rel=1e-12)

    def test_at_two_is_19_45(self, ref):
        assert medist.laplace_transform(ref, 2.0) == pytest.approx(
            19.0 / 45.0, rel=1e-12
        )

    def test_at_one_is_3_5(self, ref):
        assert medist.laplace_transform(ref, 1.0) == pytest.approx(0.6, rel=1e-12)

    def test_below_dominant_eigenvalue_rejected(self, ref):
        with pytest.raises(LambdaTooSmallError):
            medist.laplace_transform(ref, -1.0)


class TestTilt:
    def test_reference_at_two(self, ref):
        tilted, norm = medist.tilt(ref, 2.0)
        assert norm == pytest.approx(19.0 / 45.0, rel=1e-12)
        assert tilted.alpha == pytest.approx([45.0 / 19.0, 0.0, 0.0], rel=1e-12)
        assert np.array_equal(tilted.T, ref.T - 2.0 * np.eye(3))
        assert np.array_equal(tilted.s, ref.s)
        medist.validate(tilted)

    def test_zero_rate_is_identity(self, ref):
        tilted, _ = medist.tilt(ref, 0.0)
        assert tilted.alpha == pytest.approx(ref.alpha, rel=1e-12)
        assert np.array_equal(tilted.T, ref.T)

    def test_exponential_becomes_faster_exponential(self, exp1):
        tilted, _ = medist.tilt(exp1, 1.0)
        assert tilted.alpha == pytest.approx([2.0], rel=1e-12)
        assert tilted.T[0, 0] == pytest.approx(-2.0, rel=1e-12)
        assert tilted.s == pytest.approx([1.0])

    @pytest.mark.parametrize("lam", [0.5, 2.0])
    def test_density_identity(self, lam):
        rng = np.random.default_rng(7)
        models = [reference_model()] + [random_me_model(3, rng) for _ in range(3)]
        xs = np.linspace(0.0, 10.0, 21)
        for params in models:
            tilted, _ = medist.tilt(params, lam)
            norm = medist.laplace_transform(params, lam)
            lhs = medist.density(tilted, xs)
            rhs = np.exp(-lam * xs) * medist.density(params, xs) / norm
            assert np.abs(lhs - rhs).max() < 1e-10

    def test_laplace_composition(self, ref):
        lam, mu = 1.5, 0.8
        lhs = medist.laplace_transform(medist.tilt(ref, lam)[0], mu)
        rhs = medist.laplace_transform(ref, lam + mu) / medist.laplace_transform(ref, lam)
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_tilted_mass_approaches_one(self, ref):
        tilted, _ = medist.tilt(ref, 2.0)
        masses = [
            scipy.integrate.quad(lambda x: medist.density(tilted, x), 0.0, X, limit=200)[0]
            for X in (5.0, 10.0, 20.0)
        ]
        assert masses[0] < masses[1] < masses[2] <= 1.0 + 1e-9
        assert masses[2] == pytest.approx(1.0, abs=1e-8)
