import pytest

from repro.errors import ValidationError
from repro.experiments.setup import (
    ExperimentSetup,
    build_workload_engine,
    default_scale,
    default_setup,
    run_workload_pipeline,
    workload_plan,
    workload_setup,
)
from repro.store import ArtifactStore
from repro.workloads import WORKLOADS


def _library_blobs(tmp_path):
    """(key, path) of every library artifact in the store at tmp_path."""
    return [
        (ref.key, ref.path)
        for ref in ArtifactStore(tmp_path).entries("library")
    ]


class TestDefaultSetup:
    def test_builds_and_caches(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
        setup = default_setup(
            scale=0.002, n_images=2, image_shape=(32, 48), use_cache=True
        )
        assert isinstance(setup, ExperimentSetup)
        assert setup.image_shape == (32, 48)
        assert len(setup.images) == 2
        assert len(_library_blobs(tmp_path)) == 1

    def test_cache_reused(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
        first = default_setup(scale=0.002, n_images=1,
                              image_shape=(16, 16))
        [(_, blob)] = _library_blobs(tmp_path)
        mtime = blob.stat().st_mtime
        second = default_setup(scale=0.002, n_images=1,
                               image_shape=(16, 16))
        [(_, blob_after)] = _library_blobs(tmp_path)
        assert blob_after == blob
        assert blob.stat().st_mtime == mtime
        assert first.library.summary() == second.library.summary()

    def test_store_dir_env_takes_priority(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "store"))
        default_setup(scale=0.002, n_images=1, image_shape=(16, 16))
        assert len(_library_blobs(tmp_path / "store")) == 1
        assert not (tmp_path / ".repro-store").exists()

    def test_blank_store_dir_rejected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", "   ")
        with pytest.raises(ValidationError, match="REPRO_STORE_DIR"):
            default_setup(
                scale=0.002, n_images=1, image_shape=(16, 16)
            )

    def test_scale_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_SCALE", "0.002")
        setup = default_setup(n_images=1, image_shape=(16, 16),
                              use_cache=False)
        # the floor dominates at this scale: every signature present
        assert len(setup.library.signatures()) == 6


class TestWorkloadSetup:
    def test_plan_covers_exact_signatures(self):
        accelerator = WORKLOADS.get("sharpen3").build_accelerator()
        plan = workload_plan(accelerator, scale=0.001, floor=8)
        assert set(plan.counts) == set(accelerator.op_inventory())
        assert all(count >= 8 for count in plan.counts.values())

    def test_builds_library_and_engine(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
        setup = workload_setup(
            "sharpen3", scale=0.0005, n_images=1,
            image_shape=(16, 24),
        )
        slot_sigs = {
            slot.signature
            for slot in setup.accelerator.op_slots()
        }
        assert set(setup.library.signatures()) == slot_sigs
        engine = build_workload_engine(setup)
        assert engine.run_count == 1  # one image, no scenarios
        # the library landed in the store at the configured directory
        assert len(_library_blobs(tmp_path)) == 1

    def test_cache_shared_across_same_signature_workloads(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
        # gaussian5 and box5 share (mul, 8) x (add, 16) signatures
        workload_setup(
            "gaussian5", scale=0.0005, n_images=1,
            image_shape=(16, 16),
        )
        [(key, blob)] = _library_blobs(tmp_path)
        mtime = blob.stat().st_mtime
        setup = workload_setup(
            "box5", scale=0.0005, n_images=1, image_shape=(16, 16)
        )
        [(key_after, blob_after)] = _library_blobs(tmp_path)
        assert (key_after, blob_after) == (key, blob)
        assert blob.stat().st_mtime == mtime
        assert setup.scenarios is not None and len(setup.scenarios) == 3

    def test_scenarios_reach_engine(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
        setup = workload_setup(
            "box3_6b", scale=0.0005, n_images=2, image_shape=(16, 16)
        )
        engine = build_workload_engine(setup)
        assert engine.run_count == 2 * 2  # images x scenarios


class TestRequestValidation:
    @pytest.mark.parametrize("scale", [0.0, -1.0])
    def test_workload_plan_rejects_non_positive_scale(self, scale):
        accelerator = WORKLOADS.get("sobel").build_accelerator()
        with pytest.raises(ValueError, match="scale"):
            workload_plan(accelerator, scale=scale)

    @pytest.mark.parametrize("raw", ["0", "-0.5"])
    def test_scale_env_rejects_non_positive(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_SCALE", raw)
        with pytest.raises(ValidationError, match="REPRO_SCALE"):
            default_scale()

    def test_invalid_pipeline_settings_fail_before_any_work(
        self, tmp_path, monkeypatch
    ):
        """A bad request builds no library and writes nothing."""
        root = tmp_path / "store"
        monkeypatch.setenv("REPRO_STORE_DIR", str(root))
        with pytest.raises(ValidationError, match="max_evaluations"):
            run_workload_pipeline(
                "sobel", scale=0.0005, n_images=1, train=12, evals=0,
                store=ArtifactStore(root),
            )
        assert not root.exists() or not ArtifactStore(root).entries()
