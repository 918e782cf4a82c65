import numpy as np
import pytest

from mejump.models import random_me_model


class TestRandomMEModel:
    @pytest.mark.parametrize("p", [1, 0, -3])
    def test_needs_two_states(self, p):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="random_me_model needs p >= 2"):
            random_me_model(p, rng)
        # refused before any draw
        assert rng.random() == np.random.default_rng(0).random()

