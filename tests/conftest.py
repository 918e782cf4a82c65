import numpy as np
import pytest

from mejump.medist import MEParams
from mejump.models import exponential_model, phase_type_example, reference_model
from mejump.splitting import build_generator, initial_split, sign_split


@pytest.fixture
def ref():
    return reference_model()


@pytest.fixture
def ref_split(ref):
    return sign_split(ref.T, ref.s)


@pytest.fixture
def ref_gen(ref_split):
    """The reference model's doubled chain at its threshold rate 2."""
    return build_generator(ref_split, 2.0)


@pytest.fixture
def ref_init(ref):
    return initial_split(ref.alpha)


@pytest.fixture
def exp1():
    return exponential_model(1.0)


@pytest.fixture
def phase_type():
    return phase_type_example()


def decoupled_rotator() -> MEParams:
    """Valid Exp(1)-in-disguise model whose first two states form a closed
    rotation class: the folded matrix T^+ + T^- has abscissa 0 = lambda_0, so
    the doubled chain is not transient at the threshold rate."""
    return MEParams(
        alpha=np.array([0.0, 0.0, 1.0]),
        T=np.array([[-1.0, -1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 0.0, -1.0]]),
        s=np.array([0.0, 0.0, 1.0]),
    )


def negative_density_model() -> MEParams:
    """Triple with unit total mass whose 'density' e^{-x}(4 cos x - 1) dips
    negative; validate() passes but pointwise evaluation must refuse."""
    return MEParams(
        alpha=np.array([4.0, 0.0, -1.0]),
        T=np.array([[-1.0, -1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 0.0, -1.0]]),
        s=np.array([1.0, 0.0, 1.0]),
    )
