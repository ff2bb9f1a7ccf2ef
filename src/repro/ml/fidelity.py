"""Fidelity — the paper's model-selection criterion (§2.3).

The fidelity of an estimator is the fraction of configuration pairs whose
estimated values stand in the same relation (<, =, >) as their real
values.  Because the models drive *relative* decisions during Pareto
construction, fidelity matters more than absolute accuracy.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.utils.rng import RngLike, ensure_rng

#: Pair counts above this use random pair sampling instead of all pairs.
_EXHAUSTIVE_LIMIT = 3000


def _relation(delta: np.ndarray, tol: float) -> np.ndarray:
    """Encode pairwise deltas as -1 / 0 / +1 with an equality tolerance."""
    rel = np.sign(delta)
    rel[np.abs(delta) <= tol] = 0.0
    return rel


def fidelity(
    y_true,
    y_pred,
    tol: float = 0.0,
    max_pairs: int = 2_000_000,
    rng: RngLike = 0,
) -> float:
    """Pairwise order agreement between ``y_true`` and ``y_pred`` in [0, 1].

    All ordered pairs ``i < j`` are used when the sample is small; larger
    samples are estimated from ``max_pairs`` random pairs.
    """
    y_true = np.asarray(y_true, dtype=np.float64)
    y_pred = np.asarray(y_pred, dtype=np.float64)
    if y_true.shape != y_pred.shape or y_true.ndim != 1:
        raise ValueError("fidelity expects two equal-length 1-D arrays")
    n = y_true.size
    if n < 2:
        raise ValueError("fidelity needs at least two samples")
    if max_pairs < 1:
        raise ValueError(f"max_pairs must be >= 1, got {max_pairs}")

    if n <= _EXHAUSTIVE_LIMIT:
        i, j = np.triu_indices(n, k=1)
    else:
        gen = ensure_rng(rng)
        i = gen.integers(0, n, size=max_pairs)
        j = gen.integers(0, n, size=max_pairs)
        keep = i != j
        i, j = i[keep], j[keep]
    rel_true = _relation(y_true[i] - y_true[j], tol)
    rel_pred = _relation(y_pred[i] - y_pred[j], tol)
    return float(np.mean(rel_true == rel_pred))


def fidelity_matrix(y_true, predictions: dict, tol: float = 0.0) -> dict:
    """Fidelity of several prediction vectors against one ground truth."""
    return {
        name: fidelity(y_true, y_pred, tol=tol)
        for name, y_pred in predictions.items()
    }
