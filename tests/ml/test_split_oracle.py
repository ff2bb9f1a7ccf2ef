"""The vectorized CART split search against the per-feature scan, bit for bit.

``reference_best_split`` is the scan that ``repro.ml.trees._best_split``
replaced: one argsort and prefix-sum pass per candidate feature, keeping
the first feature with a valid split and replacing it only on a strictly
greater gain.  The fitted trees depend on the exact ``(feature,
threshold, gain)`` each node gets, so the two must agree in every bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.trees import _best_split


def reference_best_split(X, y, features, min_samples_leaf):
    """Best (feature, threshold, sse_gain) over the candidate features."""
    n = y.size
    total_sum = y.sum()
    total_sq = float(y @ y)
    base_sse = total_sq - total_sum**2 / n
    best = (None, 0.0, 0.0)
    for j in features:
        order = np.argsort(X[:, j], kind="stable")
        xs = X[order, j]
        ys = y[order]
        csum = np.cumsum(ys)[:-1]
        csq = np.cumsum(ys * ys)[:-1]
        left_n = np.arange(1, n)
        right_n = n - left_n
        sse = (
            (csq - csum**2 / left_n)
            + (total_sq - csq)
            - (total_sum - csum) ** 2 / right_n
        )
        valid = xs[1:] != xs[:-1]
        if min_samples_leaf > 1:
            valid &= (left_n >= min_samples_leaf) & (
                right_n >= min_samples_leaf
            )
        if not np.any(valid):
            continue
        sse = np.where(valid, sse, np.inf)
        k = int(np.argmin(sse))
        gain = base_sse - float(sse[k])
        if best[0] is None or gain > best[2]:
            threshold = 0.5 * (xs[k] + xs[k + 1])
            best = (j, threshold, gain)
    return best


def bits(split):
    """A split as comparable bits: feature, then the floats' bytes."""
    feature, threshold, gain = split
    return (
        None if feature is None else int(feature),
        np.float64(threshold).tobytes(),
        np.float64(gain).tobytes(),
    )


def assert_same_split(X, y, features, min_samples_leaf):
    want = reference_best_split(X, y, features, min_samples_leaf)
    got = _best_split(X, y, features, min_samples_leaf)
    assert bits(got) == bits(want), (got, want)
    return got


def node_block(seed, m, d, codes, n_constant, duplicate_share, y_kind):
    """A tree node's training block: integer-coded X, tie-heavy target."""
    gen = np.random.default_rng(seed)
    n_distinct = max(1, int(round(m * (1.0 - duplicate_share))))
    base = gen.integers(0, codes, size=(n_distinct, d))
    if y_kind == "continuous":
        target = gen.normal(0.0, 1.0, size=n_distinct)
    elif y_kind == "levels":
        target = gen.integers(0, 4, size=n_distinct).astype(np.float64)
    else:  # additive per-feature costs, like area or WMED sums
        table = gen.uniform(0.0, 1.0, size=(d, codes))
        target = table[np.arange(d), base].sum(axis=1)
    # bootstrap-style rows: the node holds repeated copies of some rows
    rows = gen.integers(0, n_distinct, size=m)
    X = base[rows].astype(np.float64)
    X[:, gen.permutation(d)[:n_constant]] = float(gen.integers(codes))
    return X, target[rows]


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(2, 150),
    d=st.integers(1, 40),
    codes=st.integers(1, 8),
    constant_share=st.floats(0.0, 1.0),
    duplicate_share=st.floats(0.0, 0.9),
    y_kind=st.sampled_from(["continuous", "levels", "additive"]),
    subset_share=st.floats(0.0, 1.0),
    min_samples_leaf=st.sampled_from([1, 2, 5]),
)
def test_matches_per_feature_scan(
    seed, m, d, codes, constant_share, duplicate_share, y_kind,
    subset_share, min_samples_leaf,
):
    n_constant = int(constant_share * d)
    X, y = node_block(
        seed, m, d, codes, n_constant, duplicate_share, y_kind
    )
    gen = np.random.default_rng(seed + 1)
    n_features = max(1, int(round(subset_share * d)))
    features = gen.permutation(d)[:n_features]
    assert_same_split(X, y, features, min_samples_leaf)


def test_no_split_when_every_column_is_constant():
    X = np.full((12, 3), 4.0)
    y = np.arange(12.0)
    assert assert_same_split(X, y, np.arange(3), 1) == (None, 0.0, 0.0)


def test_no_split_when_min_samples_leaf_cannot_be_met():
    X = np.arange(8.0).reshape(4, 2)
    y = np.array([0.0, 1.0, 0.0, 1.0])
    assert assert_same_split(X, y, np.array([1, 0]), 5) == (None, 0.0, 0.0)


def test_gain_ties_keep_the_first_candidate_feature():
    col = np.array([0.0, 0.0, 1.0, 1.0, 2.0, 2.0])
    X = np.stack([col, col, col], axis=1)
    y = np.array([1.0, 1.0, 5.0, 5.0, 9.0, 9.0])
    for features in ([2, 0, 1], [1, 2, 0]):
        feature, _, _ = assert_same_split(X, y, np.array(features), 1)
        assert feature == features[0]


@pytest.mark.parametrize("min_samples_leaf", [1, 2, 5])
def test_pipeline_sized_nodes(min_samples_leaf):
    # the estimator's root nodes: 150 bootstrap rows, a 0.7 feature draw
    gen = np.random.default_rng(min_samples_leaf)
    X = gen.integers(0, 6, size=(150, 33)).astype(np.float64)
    y = gen.normal(size=150)
    idx = gen.integers(0, 150, size=150)
    features = gen.choice(33, size=23, replace=False)
    split = assert_same_split(X[idx], y[idx], features, min_samples_leaf)
    assert split[0] is not None
