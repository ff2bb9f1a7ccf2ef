"""Golden regression: store keys and manifest stage records, pinned.

Every cached artifact is addressed by the content hash of its inputs,
so a store written by an earlier version stays warm only while those
hashes, the stage records and the order of store reads are unchanged.
This suite freezes them for a tiny fixed pipeline configuration and
for the two whole-library blob keys.

The fixture is checked in at ``tests/golden/golden_stage_keys.json``.
After an *intentional* key change (which orphans every existing store),
regenerate it with::

    REPRO_REGEN_GOLDEN=1 python -m pytest tests/store/test_golden_stage_keys.py

and review the diff like any other code change.
"""

import json
import os
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.core.pipeline import AutoAx, AutoAxConfig
from repro.experiments.setup import scaled_library, workload_setup
from repro.store import ArtifactStore, RunLedger

GOLDEN_PATH = (
    Path(__file__).parents[1] / "golden" / "golden_stage_keys.json"
)

#: Part of the golden contract; changing it requires regeneration.
CONFIG = AutoAxConfig(
    n_train=16, n_test=8, engines=("K-Neighbors",),
    max_evaluations=300, seed=3,
)
LIBRARY_SCALE = 0.02


def _stage_records(manifest):
    """Manifest stage records minus their wall time."""
    return [
        {k: v for k, v in stage.items() if k != "seconds"}
        for stage in manifest["stages"]
    ]


@pytest.fixture(scope="module")
def computed(tmp_path_factory, sobel, tiny_library, small_images):
    store = ArtifactStore(tmp_path_factory.mktemp("golden-store"))
    reads = []
    original_get = ArtifactStore.get

    def recording_get(self, kind, key):
        reads.append(kind)
        return original_get(self, kind, key)

    out = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ArtifactStore, "get", recording_get)
        for phase in ("cold", "warm"):
            reads.clear()
            result = AutoAx(
                sobel, tiny_library, small_images[:1], config=CONFIG,
                store=store, run_kind="test", run_label="golden",
            ).run()
            manifest = RunLedger(store).get(result.run_id)
            out[phase] = {
                "config_hash": manifest["config_hash"],
                "stages": _stage_records(manifest),
                "reads": list(reads),
            }

        # Whole-library blob keys: stub the build so only the keying
        # and the store round trip run.
        lib_store = tmp_path_factory.mktemp("golden-libraries")
        mp.setenv("REPRO_STORE_DIR", str(lib_store))
        mp.setattr(
            "repro.library.pipeline.build_library",
            lambda plan, **kwargs: SimpleNamespace(library=tiny_library),
        )
        reads.clear()
        scaled_library(
            LIBRARY_SCALE, store=ArtifactStore(lib_store / "default")
        )
        workload_setup(
            "sobel", scale=LIBRARY_SCALE, n_images=1,
            image_shape=(16, 16),
        )
        out["libraries"] = {
            "default": ArtifactStore(lib_store / "default").keys(
                "library"
            ),
            "workload": ArtifactStore(lib_store).keys("library"),
            "reads": list(reads),
        }
    return out


def test_golden_stage_keys_are_current(computed):
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
    for section in ("cold", "warm", "libraries"):
        assert computed[section] == golden[section], section


def test_warm_run_hits_every_stage_with_cold_keys(computed):
    cold, warm = computed["cold"], computed["warm"]
    assert [s["cache"] for s in cold["stages"]] == ["miss"] * 5
    assert [s["cache"] for s in warm["stages"]] == ["hit"] * 5
    strip = lambda stages: [  # noqa: E731
        (s["name"], s["artifacts"]) for s in stages
    ]
    assert strip(warm["stages"]) == strip(cold["stages"])
    assert warm["config_hash"] == cold["config_hash"]
    # one read per stage artifact, in stage order (a cold run also
    # reads the synthesis memo in between)
    stage_reads = [
        "space", "profiles", "training-set", "training-set",
        "models", "dse", "evaluations",
    ]
    assert warm["reads"] == stage_reads
    assert [k for k in cold["reads"] if k != "synthesis"] == stage_reads
