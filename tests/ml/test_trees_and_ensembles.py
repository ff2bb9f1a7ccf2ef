import numpy as np
import pytest

from repro.ml.boosting import AdaBoostRegressor, GradientBoostingRegressor
from repro.ml.forest import RandomForestRegressor
from repro.ml.metrics import r2_score
from repro.ml.trees import DecisionTreeRegressor


@pytest.fixture(scope="module")
def step_data():
    """Piecewise-constant target: trees should nail it, linear can't."""
    rng = np.random.default_rng(0)
    X = rng.uniform(0, 10, (400, 3))
    y = np.where(X[:, 0] > 5, 10.0, 0.0) + np.where(X[:, 1] > 3, 5.0, 0.0)
    return X, y


class TestDecisionTree:
    def test_interpolates_training_data(self, step_data):
        X, y = step_data
        model = DecisionTreeRegressor().fit(X, y)
        assert np.allclose(model.predict(X), y)

    def test_generalises_step_function(self, step_data):
        X, y = step_data
        model = DecisionTreeRegressor().fit(X[:300], y[:300])
        assert r2_score(y[300:], model.predict(X[300:])) > 0.95

    def test_max_depth_limits_nodes(self, step_data):
        X, y = step_data
        shallow = DecisionTreeRegressor(max_depth=1).fit(X, y)
        deep = DecisionTreeRegressor(max_depth=8).fit(X, y)
        assert shallow.node_count() < deep.node_count()
        assert shallow.node_count() <= 3

    def test_min_samples_leaf(self, step_data):
        X, y = step_data
        model = DecisionTreeRegressor(min_samples_leaf=50).fit(X, y)
        # every leaf mean pools >= 50 samples; tree stays small
        assert model.node_count() < 30

    def test_constant_target(self):
        X = np.random.default_rng(0).normal(size=(50, 2))
        y = np.full(50, 3.0)
        model = DecisionTreeRegressor().fit(X, y)
        assert np.allclose(model.predict(X), 3.0)
        assert model.node_count() == 1

    def test_single_sample(self):
        model = DecisionTreeRegressor().fit(np.zeros((1, 2)),
                                            np.array([5.0]))
        assert model.predict(np.zeros((3, 2)))[0] == 5.0

    @pytest.mark.parametrize("kwargs", [
        {"max_depth": 0},
        {"min_samples_split": 1},
        {"min_samples_leaf": 0},
        {"max_features": 1.5},
    ])
    def test_invalid_params(self, kwargs):
        with pytest.raises(ValueError):
            DecisionTreeRegressor(**kwargs)


class TestRandomForest:
    def test_beats_single_tree_on_noise(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(0, 10, (300, 4))
        y = np.sin(X[:, 0]) * 3 + rng.normal(0, 0.8, 300)
        tree = DecisionTreeRegressor().fit(X[:200], y[:200])
        forest = RandomForestRegressor(n_estimators=30, rng=0).fit(
            X[:200], y[:200]
        )
        assert r2_score(y[200:], forest.predict(X[200:])) > r2_score(
            y[200:], tree.predict(X[200:])
        )

    def test_deterministic_with_seed(self, step_data):
        X, y = step_data
        a = RandomForestRegressor(n_estimators=5, rng=7).fit(X, y)
        b = RandomForestRegressor(n_estimators=5, rng=7).fit(X, y)
        assert np.array_equal(a.predict(X), b.predict(X))

    def test_compiled_predict_matches_tree_average(self, step_data):
        X, y = step_data
        forest = RandomForestRegressor(n_estimators=8, rng=0).fit(X, y)
        compiled = forest.predict(X[:50])
        manual = np.mean(
            [t.predict(X[:50]) for t in forest._trees], axis=0
        )
        assert np.allclose(compiled, manual)

    def test_single_row_prediction(self, step_data):
        X, y = step_data
        forest = RandomForestRegressor(n_estimators=5, rng=0).fit(X, y)
        out = forest.predict(X[:1])
        assert out.shape == (1,)

    def test_invalid_estimators(self):
        with pytest.raises(ValueError):
            RandomForestRegressor(n_estimators=0)

    @pytest.mark.parametrize("kwargs, message", [
        ({"max_features": 2.0}, "max_features must be in"),
        ({"max_features": 0.0}, "max_features must be in"),
        ({"min_samples_leaf": 0}, "min_samples_leaf must be >= 1"),
        ({"max_depth": 0}, "max_depth must be >= 1"),
    ])
    def test_invalid_tree_params_fail_at_construction(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            RandomForestRegressor(**kwargs)


class TestGradientBoosting:
    def test_improves_over_iterations(self, step_data):
        X, y = step_data
        weak = GradientBoostingRegressor(n_estimators=2, rng=0).fit(X, y)
        strong = GradientBoostingRegressor(n_estimators=80, rng=0).fit(X, y)
        assert r2_score(y, strong.predict(X)) > r2_score(
            y, weak.predict(X)
        )

    def test_fits_nonlinear(self, step_data):
        X, y = step_data
        model = GradientBoostingRegressor(n_estimators=60, rng=0).fit(
            X[:300], y[:300]
        )
        assert r2_score(y[300:], model.predict(X[300:])) > 0.9

    def test_invalid_learning_rate(self):
        with pytest.raises(ValueError):
            GradientBoostingRegressor(learning_rate=0.0)

    def test_invalid_max_depth_fails_at_construction(self):
        with pytest.raises(ValueError, match="max_depth must be >= 1"):
            GradientBoostingRegressor(max_depth=0)


class TestAdaBoost:
    def test_fits_step_function(self, step_data):
        X, y = step_data
        model = AdaBoostRegressor(n_estimators=20, rng=0).fit(
            X[:300], y[:300]
        )
        assert r2_score(y[300:], model.predict(X[300:])) > 0.85

    def test_perfect_fit_stops_early(self):
        X = np.arange(20, dtype=float).reshape(-1, 1)
        y = (X[:, 0] > 10).astype(float)
        model = AdaBoostRegressor(n_estimators=50, rng=0).fit(X, y)
        assert len(model._trees) < 50

    def test_weighted_median_prediction_shape(self, step_data):
        X, y = step_data
        model = AdaBoostRegressor(n_estimators=10, rng=0).fit(X, y)
        assert model.predict(X[:7]).shape == (7,)

    def test_invalid_max_depth_fails_at_construction(self):
        with pytest.raises(ValueError, match="max_depth must be >= 1"):
            AdaBoostRegressor(max_depth=0)
