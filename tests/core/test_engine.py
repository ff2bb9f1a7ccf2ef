"""EvaluationEngine: batched QoR, synthesis memo, dedupe, parallelism."""

import tracemalloc

import numpy as np
import pytest

from repro.core import runtime as rt
from repro.core.engine import EvaluationEngine, default_workers
from repro.core.evaluation import AcceleratorEvaluator
from repro.core.runtime import get_runtime, reset_runtime
from repro.imaging.datasets import benchmark_images
from repro.imaging.metrics import ssim


@pytest.fixture()
def fresh_runtime():
    reset_runtime()
    yield get_runtime()
    reset_runtime()


def some_configs(space, n=6, rng=17):
    configs = space.random_configurations(n, rng=rng)
    # Duplicates ride along: evaluate_many analyses them once but must
    # still report them at their original positions.
    return list(configs) + list(configs[:2])


class TestBatchedQor:
    def test_matches_per_run_reference(self, sobel, small_images,
                                       sobel_space, sobel_evaluator):
        configs = sobel_space.random_configurations(4, rng=11)
        for config in configs:
            impls = sobel_space.assignment_callables(config)
            reference = 0.0
            for image in small_images:
                golden = sobel.golden(image)
                out = sobel.compute(image, impls)
                reference += ssim(
                    golden.astype(float), out.astype(float)
                )
            reference /= len(small_images)
            assert sobel_evaluator.qor(impls) == pytest.approx(
                reference, abs=1e-12
            )

    def test_qor_per_run_shape(self, sobel_space, sobel_evaluator):
        impls = sobel_space.assignment_callables(
            sobel_space.exact_configuration()
        )
        per_run = sobel_evaluator.qor_per_run(impls)
        assert per_run.shape == (sobel_evaluator.run_count,)
        assert np.allclose(per_run, 1.0)

    def test_scenarios_reference(self, small_images):
        from repro.accelerators import (
            GenericGaussianFilter,
            gaussian_kernel_weights,
        )

        acc = GenericGaussianFilter()
        scenarios = [
            acc.kernel_extra(gaussian_kernel_weights(s))
            for s in (0.4, 0.7)
        ]
        engine = EvaluationEngine(acc, small_images, scenarios)
        assert engine.run_count == 2 * len(small_images)
        # exact outputs across all scenario runs reproduce the goldens
        assert engine.qor({}) == pytest.approx(1.0)

    def test_heterogeneous_image_shapes(self, sobel, sobel_space):
        rng = np.random.default_rng(0)
        images = [
            rng.integers(0, 256, size=(24, 32)),
            rng.integers(0, 256, size=(32, 24)),
        ]
        engine = EvaluationEngine(sobel, images)
        assert engine.run_count == 2
        config = sobel_space.random_configurations(1, rng=3)[0]
        impls = sobel_space.assignment_callables(config)
        reference = np.mean(
            [
                ssim(
                    sobel.golden(img).astype(float),
                    sobel.compute(img, impls).astype(float),
                )
                for img in images
            ]
        )
        assert engine.qor(impls) == pytest.approx(reference, abs=1e-12)


class TestSynthesisMemo:
    def test_repeat_evaluations_hit_memo(self, sobel, small_images,
                                         sobel_space):
        engine = EvaluationEngine(sobel, small_images)
        config = sobel_space.random_configurations(1, rng=5)[0]
        first = engine.evaluate(sobel_space, config)
        assert engine.synth_misses == 1 and engine.synth_hits == 0
        second = engine.evaluate(sobel_space, config)
        assert engine.synth_misses == 1 and engine.synth_hits == 1
        assert first == second

    def test_memo_does_not_leak_across_configs(self, sobel,
                                               small_images,
                                               sobel_space):
        engine = EvaluationEngine(sobel, small_images)
        configs = sobel_space.random_configurations(3, rng=6)
        areas = {
            engine.evaluate(sobel_space, c).area for c in configs
        }
        assert engine.synth_misses == 3
        assert len(areas) > 1  # distinct configs synthesise differently


class TestEvaluateMany:
    def test_deduplicates_and_preserves_order(self, sobel,
                                              small_images,
                                              sobel_space):
        engine = EvaluationEngine(sobel, small_images)
        a, b = sobel_space.random_configurations(2, rng=7)
        results = engine.evaluate_many(sobel_space, [a, b, a, b, a])
        assert len(results) == 5
        assert results[0] == results[2] == results[4]
        assert results[1] == results[3]
        # each unique configuration was analysed exactly once
        assert engine.synth_misses == 2 and engine.synth_hits == 0

    def test_parallel_matches_serial(self, sobel, small_images,
                                     sobel_space):
        engine = EvaluationEngine(sobel, small_images)
        configs = sobel_space.random_configurations(4, rng=8)
        serial = engine.evaluate_many(sobel_space, configs, workers=1)
        parallel = engine.evaluate_many(
            sobel_space, configs, workers=2
        )
        assert serial == parallel

    def test_parallel_merges_worker_memo(self, sobel, small_images,
                                         sobel_space, monkeypatch):
        # Let workers=2 reach the pool on any host.
        monkeypatch.setattr(rt, "usable_cores", lambda: 2)
        reset_runtime()
        try:
            engine = EvaluationEngine(sobel, small_images)
            configs = sobel_space.random_configurations(3, rng=10)
            engine.evaluate_many(sobel_space, configs, workers=2)
            # Every unique configuration reached the parent memo: all
            # three synthesis reports came from the pool and were
            # adopted on merge.
            assert len(engine._synth_memo) == 3
            assert engine.synth_misses == 0
            # ... so a follow-up in-process evaluation hits the memo.
            engine.evaluate(sobel_space, configs[0])
            assert engine.synth_hits == 1
            assert engine.synth_misses == 0
        finally:
            reset_runtime()

    def test_serial_and_pool_identical(
        self, sobel_space, sobel_evaluator, monkeypatch, fresh_runtime
    ):
        configs = some_configs(sobel_space)
        serial = sobel_evaluator.evaluate_many(sobel_space, configs)
        # Let workers=2 reach the pool even on a single-core host.
        monkeypatch.setattr(rt, "usable_cores", lambda: 2)
        pooled = sobel_evaluator.evaluate_many(
            sobel_space, configs, workers=2
        )
        assert pooled == serial
        assert fresh_runtime.stats["parallel_batches"] == 1

    def test_duplicates_share_one_analysis(
        self, sobel_space, sobel_evaluator
    ):
        configs = some_configs(sobel_space)
        results = sobel_evaluator.evaluate_many(sobel_space, configs)
        assert len(results) == len(configs)
        for i, config in enumerate(configs):
            assert results[i] == results[configs.index(config)]

    def test_memory_flat_in_batch_size(self, sobel, sobel_space):
        """Each configuration is analysed on its own, so the traced
        allocation peak of a batch does not grow with its size."""
        engine = EvaluationEngine(
            sobel, benchmark_images(2, shape=(32, 48))
        )
        configs = sobel_space.random_configurations(32, rng=71)
        # Warm the synthesis memo and the impl memo: the peaks below
        # measure simulation + scoring, not one-time characterisation.
        engine.evaluate_many(sobel_space, configs)

        def peak(batch):
            tracemalloc.start()
            try:
                engine.evaluate_many(sobel_space, batch)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small = peak(configs[:2])
        large = peak(configs)
        assert large <= 1.5 * small, (small, large)

    def test_matches_single_evaluate(self, sobel_space,
                                     sobel_evaluator):
        configs = sobel_space.random_configurations(3, rng=9)
        batch = sobel_evaluator.evaluate_many(sobel_space, configs)
        singles = [
            sobel_evaluator.evaluate(sobel_space, c) for c in configs
        ]
        assert batch == singles


class TestCompatibility:
    def test_accelerator_evaluator_is_engine(self):
        assert issubclass(AcceleratorEvaluator, EvaluationEngine)

    def test_core_exports_engine(self):
        from repro.core import EvaluationEngine as exported

        assert exported is EvaluationEngine

    def test_default_workers_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert default_workers() == 3
        monkeypatch.setenv("REPRO_WORKERS", "1")
        assert default_workers() is None
        monkeypatch.delenv("REPRO_WORKERS")
        assert default_workers() is None

    def test_default_workers_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "eight")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            default_workers()
