import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.fidelity import fidelity, fidelity_matrix


class TestFidelity:
    def test_perfect_agreement(self):
        y = np.array([1.0, 2.0, 3.0, 4.0])
        assert fidelity(y, y * 10 + 5) == 1.0  # monotone map

    def test_reversed_order_is_zero(self):
        y = np.array([1.0, 2.0, 3.0, 4.0])
        assert fidelity(y, -y) == 0.0

    def test_constant_prediction(self):
        y = np.array([1.0, 2.0, 3.0])
        # all predicted pairs tie while no true pair does
        assert fidelity(y, np.zeros(3)) == 0.0

    def test_half_right(self):
        y_true = np.array([0.0, 1.0, 2.0])
        y_pred = np.array([0.0, 2.0, 1.0])
        # pairs: (0,1) ok, (0,2) ok, (1,2) flipped
        assert fidelity(y_true, y_pred) == pytest.approx(2 / 3)

    def test_tolerance_treats_close_as_equal(self):
        y_true = np.array([1.0, 1.05, 3.0])
        y_pred = np.array([2.0, 2.02, 5.0])
        assert fidelity(y_true, y_pred, tol=0.1) == 1.0

    def test_sampled_mode_close_to_exhaustive(self):
        rng = np.random.default_rng(0)
        y = rng.normal(size=5000)
        pred = y + rng.normal(scale=0.5, size=5000)
        exact_small = fidelity(y[:2000], pred[:2000])
        sampled = fidelity(y, pred, max_pairs=300_000, rng=1)
        assert sampled == pytest.approx(exact_small, abs=0.02)

    @pytest.mark.parametrize("n", [10, 5000])
    def test_rejects_non_positive_max_pairs(self, n):
        y = np.arange(float(n))
        with pytest.raises(ValueError, match="max_pairs must be >= 1"):
            fidelity(y, y, max_pairs=0)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            fidelity(np.zeros(3), np.zeros(4))
        with pytest.raises(ValueError):
            fidelity(np.zeros(1), np.zeros(1))

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.floats(min_value=-100, max_value=100),
                    min_size=3, max_size=20))
    def test_self_fidelity_is_one(self, values):
        y = np.asarray(values)
        assert fidelity(y, y.copy()) == 1.0

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=100))
    def test_bounded(self, seed):
        rng = np.random.default_rng(seed)
        y = rng.normal(size=30)
        pred = rng.normal(size=30)
        assert 0.0 <= fidelity(y, pred) <= 1.0


class TestFidelityMatrix:
    def test_multiple_predictions(self):
        y = np.array([1.0, 2.0, 3.0])
        out = fidelity_matrix(
            y, {"good": y.copy(), "bad": -y}
        )
        assert out["good"] == 1.0
        assert out["bad"] == 0.0
