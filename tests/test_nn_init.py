"""Weight-initialiser statistics tests."""

import numpy as np

from repro.nn import init


class TestInitialisers:
    def test_normal_statistics(self):
        w = init.normal(np.random.default_rng(0), (2000, 50), std=0.02)
        assert w.dtype == np.float32
        assert abs(w.mean()) < 1e-3
        assert abs(w.std() - 0.02) < 2e-3

    def test_zeros_ones(self):
        assert init.zeros((3, 4)).sum() == 0
        assert init.ones((3, 4)).sum() == 12
