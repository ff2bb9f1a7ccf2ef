"""The end-to-end benchmark's traced run can still find its layers.

``e2ebench/layers.py`` times each layer by replacing a function *where
its caller looks it up* and raises when a target is gone, so a renamed
layer would otherwise only surface in a traced benchmark run.  These
tests read the benchmark's boundary table (without editing it) and pin
that the pipeline still calls its step functions through the
``repro.core.pipeline`` module globals the traced run wraps.
"""

import importlib
import importlib.util
import sys
from collections import Counter
from pathlib import Path

import pytest

import repro.core.pipeline as pipeline
from repro.core.pipeline import AutoAx, AutoAxConfig

LAYERS_PATH = Path(__file__).parents[1] / "e2ebench" / "layers.py"


@pytest.fixture(scope="module")
def boundaries():
    """``BOUNDARIES`` of the benchmark's layer module, loaded in place."""
    preloaded = set(sys.modules)
    sys.path.insert(0, str(LAYERS_PATH.parent))
    try:
        spec = importlib.util.spec_from_file_location(
            "e2ebench_layers", LAYERS_PATH
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(LAYERS_PATH.parent))
        # the benchmark's sibling modules (e.g. ``metrics``) stay private
        for name in set(sys.modules) - preloaded:
            if not name.startswith("repro"):
                del sys.modules[name]
    return module.BOUNDARIES


def test_every_boundary_target_resolves(boundaries):
    targets = [
        (module_name, path)
        for _, layer_targets, _ in boundaries
        for module_name, path in layer_targets
    ]
    assert targets
    for module_name, path in targets:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            assert hasattr(owner, part), f"{module_name}:{path}"
            owner = getattr(owner, part)
        assert callable(owner), f"{module_name}:{path}"


#: Pipeline step functions the traced run wraps as module globals.
PIPELINE_GLOBALS = {
    "profile_accelerator": 1,
    "reduce_library": 1,
    "build_training_set": 2,  # train and test sets
    "fit_engines": 2,  # QoR and area targets
    "heuristic_pareto_construction": 1,
}


def test_pipeline_calls_steps_through_module_globals(
    boundaries, monkeypatch, sobel, tiny_library, small_images
):
    wrapped = {
        path
        for _, targets, _ in boundaries
        for module_name, path in targets
        if module_name == "repro.core.pipeline"
    }
    assert wrapped == set(PIPELINE_GLOBALS)

    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in PIPELINE_GLOBALS:
        monkeypatch.setattr(
            pipeline, name, counting(name, getattr(pipeline, name))
        )
    config = AutoAxConfig(
        n_train=16, n_test=8, engines=("K-Neighbors",),
        max_evaluations=300, seed=3,
    )
    AutoAx(sobel, tiny_library, small_images[:1], config=config).run()
    assert dict(calls) == PIPELINE_GLOBALS
