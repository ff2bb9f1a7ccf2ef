"""Boosted tree ensembles: gradient boosting (LS loss) and AdaBoost.R2."""

from __future__ import annotations

import numpy as np

from repro.ml.base import Regressor
from repro.ml.trees import DecisionTreeRegressor, check_tree_params
from repro.utils.rng import RngLike, ensure_rng, spawn_rngs


class GradientBoostingRegressor(Regressor):
    """Least-squares gradient boosting with shallow CART trees."""

    def __init__(
        self,
        n_estimators: int = 100,
        learning_rate: float = 0.1,
        max_depth: int = 3,
        rng: RngLike = 0,
    ):
        super().__init__()
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if not 0.0 < learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        check_tree_params(max_depth)
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.rng = rng

    def _fit(self, X, y):
        self._init_value = float(y.mean())
        residual = y - self._init_value
        rngs = spawn_rngs(self.rng, self.n_estimators)
        self._trees = []
        for tree_rng in rngs:
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth, rng=tree_rng
            )
            tree.fit(X, residual)
            update = tree.predict(X)
            residual = residual - self.learning_rate * update
            self._trees.append(tree)

    def _predict(self, X):
        out = np.full(X.shape[0], self._init_value)
        for tree in self._trees:
            out += self.learning_rate * tree.predict(X)
        return out


class AdaBoostRegressor(Regressor):
    """AdaBoost.R2 (Drucker 1997) with CART base learners.

    Prediction is the weighted *median* of the base learners, as in the
    original algorithm and sklearn.
    """

    def __init__(
        self,
        n_estimators: int = 50,
        max_depth: int = 3,
        rng: RngLike = 0,
    ):
        super().__init__()
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        check_tree_params(max_depth)
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.rng = rng

    def _fit(self, X, y):
        n = X.shape[0]
        gen = ensure_rng(self.rng)
        weights = np.full(n, 1.0 / n)
        self._trees = []
        self._betas = []
        for _ in range(self.n_estimators):
            idx = gen.choice(n, size=n, replace=True, p=weights)
            tree = DecisionTreeRegressor(max_depth=self.max_depth, rng=gen)
            tree.fit(X[idx], y[idx])
            pred = tree.predict(X)
            abs_err = np.abs(pred - y)
            max_err = abs_err.max()
            if max_err <= 0:
                self._trees.append(tree)
                self._betas.append(1e-12)
                break
            loss = abs_err / max_err  # linear loss
            avg_loss = float(loss @ weights)
            if avg_loss >= 0.5:
                if not self._trees:
                    self._trees.append(tree)
                    self._betas.append(1.0)
                break
            beta = avg_loss / (1.0 - avg_loss)
            weights = weights * beta ** (1.0 - loss)
            weights /= weights.sum()
            self._trees.append(tree)
            self._betas.append(beta)

    def _predict(self, X):
        preds = np.stack([t.predict(X) for t in self._trees], axis=1)
        log_w = np.log(1.0 / np.maximum(np.asarray(self._betas), 1e-12))
        if not np.any(log_w > 0):
            log_w = np.ones_like(log_w)
        order = np.argsort(preds, axis=1)
        sorted_preds = np.take_along_axis(preds, order, axis=1)
        sorted_w = log_w[order]
        cum = np.cumsum(sorted_w, axis=1)
        half = 0.5 * cum[:, -1:]
        pick = np.argmax(cum >= half, axis=1)
        return sorted_preds[np.arange(X.shape[0]), pick]
