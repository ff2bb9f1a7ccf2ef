"""Golden regression: the fitted tree structure of the tree engines, pinned.

The fitted random forest feeds every downstream cache key, estimate and
front, so a change to the CART split search must leave every tree
unchanged.  This suite fits the registry's four tree engines on a
deterministic 150x33 integer-coded training set (the shape of the
fixed Gaussian filter's QoR model: 33 configurable operations, each
coded by its component index) and pins a sha256 of each model's flat
tree arrays.

The fixture is checked in at ``tests/golden/golden_trees.json``.  After
an *intentional* change to the fitted trees, regenerate it with::

    REPRO_REGEN_GOLDEN=1 python -m pytest tests/ml/test_golden_trees.py

and review the diff like any other code change.
"""

import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.ml.registry import make_engine

GOLDEN_PATH = Path(__file__).parents[1] / "golden" / "golden_trees.json"

#: Part of the golden contract; changing any of it requires regeneration.
ENGINES = ("Random Forest", "Decision Tree", "Gradient Boosting", "Ada Boost")
N_SAMPLES, N_FEATURES, N_CODES = 150, 33, 6
DATA_SEED, ENGINE_SEED = 20190602, 1


def training_set():
    """Integer-coded configurations with an additive, tie-heavy target."""
    gen = np.random.default_rng(DATA_SEED)
    X = gen.integers(0, N_CODES, size=(N_SAMPLES, N_FEATURES))
    table = gen.uniform(0.0, 1.0, size=(N_FEATURES, N_CODES))
    y = table[np.arange(N_FEATURES), X].sum(axis=1)
    y += gen.normal(0.0, 0.05, size=N_SAMPLES)
    return X.astype(np.float64), y


def _trees(model):
    return getattr(model, "_trees", None) or [model]


def tree_digest(model) -> dict:
    """sha256 over every tree's flat arrays, in fitted order."""
    h = hashlib.sha256()
    nodes = 0
    trees = _trees(model)
    for tree in trees:
        t = tree._tree
        for arr in (t.feature, t.threshold, t.left, t.right, t.value):
            h.update(np.ascontiguousarray(arr).tobytes())
        nodes += int(t.value.size)
    return {"trees": len(trees), "nodes": nodes, "sha256": h.hexdigest()}


@pytest.fixture(scope="module")
def computed():
    X, y = training_set()
    return {
        name: tree_digest(make_engine(name, seed=ENGINE_SEED).fit(X, y))
        for name in ENGINES
    }


def test_golden_trees_are_current(computed):
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(
            json.dumps(computed, indent=2, sort_keys=True) + "\n"
        )
        pytest.skip(f"regenerated {GOLDEN_PATH}")
    assert GOLDEN_PATH.exists(), (
        "golden fixture missing; run with REPRO_REGEN_GOLDEN=1"
    )
    golden = json.loads(GOLDEN_PATH.read_text())
    assert sorted(golden) == sorted(ENGINES)
    for name in ENGINES:
        assert computed[name] == golden[name], name

