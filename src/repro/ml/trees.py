"""CART regression tree.

Standard variance-reduction splitting with optional feature subsampling
(used by the ensemble engines).  The fitted tree is stored in flat arrays
so prediction is a vectorised level-by-level descent.

The split search (:func:`_best_split`) scores every candidate feature of
a node in one numpy pass: a stable per-column argsort, column-wise prefix
sums of ``y`` and ``y**2``, and the SSE of every cut point at once.  It
is bit-identical to scanning the features one at a time, so fitted trees
do not depend on it:

* a column-wise ``cumsum`` performs the same sequential additions as a
  1-D one, and a stable argsort gives each column the same order;
* ``argmin``/``argmax`` return the first extremum, which reproduces the
  scan's rule: keep the first feature with a valid split and replace it
  only on a strictly greater gain.

``tests/ml/test_split_oracle.py`` keeps the per-feature scan as the
oracle, and ``tests/golden/golden_trees.json`` pins the fitted trees of
the registry's tree engines.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.ml.base import Regressor
from repro.utils.rng import RngLike, ensure_rng


class _TreeArrays:
    """Flat tree storage: children, split feature/threshold, leaf value."""

    def __init__(self):
        self.feature: List[int] = []
        self.threshold: List[float] = []
        self.left: List[int] = []
        self.right: List[int] = []
        self.value: List[float] = []

    def new_node(self, value: float) -> int:
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(value)
        return len(self.value) - 1

    def finalize(self):
        self.feature = np.asarray(self.feature, dtype=np.int64)
        self.threshold = np.asarray(self.threshold, dtype=np.float64)
        self.left = np.asarray(self.left, dtype=np.int64)
        self.right = np.asarray(self.right, dtype=np.int64)
        self.value = np.asarray(self.value, dtype=np.float64)


def _best_split(X, y, features, min_samples_leaf):
    """Best (feature, threshold, sse_gain) over the candidate features.

    All candidate columns are scanned in one pass over the node's
    ``(m, F)`` block; ``(None, 0.0, 0.0)`` when no column can split.
    """
    n = y.size
    total_sum = y.sum()
    total_sq = float(y @ y)
    base_sse = total_sq - total_sum**2 / n
    block = X[:, features]
    order = block.argsort(axis=0, kind="stable")
    xs = block[order, np.arange(block.shape[1])]
    ys = y[order]
    csum = ys.cumsum(axis=0)[:-1]
    csq = (ys * ys).cumsum(axis=0)[:-1]
    left_n = np.arange(1, n)[:, None]
    right_n = n - left_n
    sse = (
        (csq - csum**2 / left_n)
        + (total_sq - csq)
        - (total_sum - csum) ** 2 / right_n
    )
    invalid = xs[1:] == xs[:-1]
    if min_samples_leaf > 1:
        invalid |= (left_n < min_samples_leaf) | (
            right_n < min_samples_leaf
        )
    sse[invalid] = np.inf
    # a column without a valid split has gain -inf and never wins
    gain = base_sse - sse.min(axis=0)
    c = int(np.argmax(gain))
    if gain[c] == -np.inf:
        return None, 0.0, 0.0
    k = int(np.argmin(sse[:, c]))
    return features[c], 0.5 * (xs[k, c] + xs[k + 1, c]), gain[c]


def check_tree_params(
    max_depth: Optional[int] = None,
    min_samples_split: int = 2,
    min_samples_leaf: int = 1,
    max_features: Optional[float] = None,
) -> None:
    """Reject CART hyperparameters no tree can be grown with.

    Shared by the ensembles so they fail at construction, not inside
    the first tree's ``fit``.
    """
    if max_depth is not None and max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    if min_samples_split < 2:
        raise ValueError("min_samples_split must be >= 2")
    if min_samples_leaf < 1:
        raise ValueError("min_samples_leaf must be >= 1")
    if max_features is not None and not 0.0 < max_features <= 1.0:
        raise ValueError("max_features must be in (0, 1]")


class DecisionTreeRegressor(Regressor):
    """CART regressor (variance reduction, axis-aligned splits)."""

    def __init__(
        self,
        max_depth: Optional[int] = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: Optional[float] = None,
        rng: RngLike = 0,
    ):
        super().__init__()
        check_tree_params(
            max_depth, min_samples_split, min_samples_leaf, max_features
        )
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.rng = rng

    def _fit(self, X, y):
        gen = ensure_rng(self.rng)
        d = X.shape[1]
        n_candidates = (
            d
            if self.max_features is None
            else max(1, int(round(self.max_features * d)))
        )
        tree = _TreeArrays()

        def grow(idx: np.ndarray, depth: int) -> int:
            ys = y[idx]
            # ys.mean()'s sum and division, without its dispatch overhead
            node = tree.new_node(float(ys.sum() / ys.size))
            if (
                idx.size < self.min_samples_split
                or (self.max_depth is not None and depth >= self.max_depth)
                or np.all(ys == ys[0])
            ):
                return node
            if n_candidates < d:
                features = gen.choice(d, size=n_candidates, replace=False)
            else:
                features = np.arange(d)
            j, threshold, gain = _best_split(
                X[idx], ys, features, self.min_samples_leaf
            )
            if j is None or gain <= 1e-12:
                return node
            mask = X[idx, j] <= threshold
            tree.feature[node] = j
            tree.threshold[node] = threshold
            left = grow(idx[mask], depth + 1)
            right = grow(idx[~mask], depth + 1)
            tree.left[node] = left
            tree.right[node] = right
            return node

        grow(np.arange(X.shape[0]), 0)
        tree.finalize()
        self._tree = tree

    def _predict(self, X):
        tree = self._tree
        nodes = np.zeros(X.shape[0], dtype=np.int64)
        active = tree.feature[nodes] >= 0
        while np.any(active):
            idx = np.nonzero(active)[0]
            cur = nodes[idx]
            go_left = (
                X[idx, tree.feature[cur]] <= tree.threshold[cur]
            )
            nodes[idx] = np.where(
                go_left, tree.left[cur], tree.right[cur]
            )
            active[idx] = tree.feature[nodes[idx]] >= 0
        return tree.value[nodes]

    def node_count(self) -> int:
        """Number of nodes in the fitted tree."""
        return int(self._tree.value.size)
