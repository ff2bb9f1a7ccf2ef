"""Evaluation-engine throughput — interpreted vs compiled vs parallel.

Measures configurations/second of the *real* QoR evaluation path on the
Sobel accelerator in three stages:

* ``interpreted`` — the seed path: per-(image x scenario) dict
  interpretation of the dataflow graph plus a scalar SSIM per run;
* ``compiled``    — the engine: one ``GraphProgram`` pass over the
  stacked run batch plus batched SSIM with precomputed golden stats;
* ``parallel``    — ``EvaluationEngine.evaluate_many`` (full analysis,
  simulation + synthesis) with a 2-process pool vs in-process.

The engine targets the paper's many-runs regime (many benchmark images
and/or kernel scenarios per evaluation), where per-run interpretation and
per-call SSIM overheads dominate; the benchmark geometry — many small
tiles — reflects that.  Compiled results are asserted bit-identical to
the interpreter on randomised inputs and assignments before timing, the
compiled speed-up must stay >= 3x, and the pooled results must equal the
serial ones.

Run ``python -m pytest benchmarks/bench_engine_throughput.py -x -q``;
the library is store-cached (``REPRO_STORE_DIR``), so a warmed store
skips characterisation.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

if __package__ in (None, ""):  # `python benchmarks/bench_engine_throughput.py`
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import numpy as np

from benchmarks._common import (
    build_engine,
    shared_setup,
    sized,
    throughput,
    write_result,
)
from repro.accelerators.profiler import profile_accelerator
from repro.accelerators.sobel import SobelEdgeDetector
from repro.core.preprocessing import reduce_library
from repro.imaging.datasets import benchmark_images
from repro.imaging.metrics import ssim

#: Tile geometry of the throughput runs (many small runs per evaluation).
TILE_SHAPE = (24, 32)


def _assert_bit_identical(space, graph, rng) -> None:
    """Compiled execution must match the interpreter bit for bit."""
    program = graph.compile()
    for _ in range(8):
        inputs = {
            node.name: rng.integers(
                0, 1 << (2 * node.width), size=257
            )
            for node in graph.inputs()
        }
        config = space.random_configuration(rng)
        impls = space.assignment_callables(config)
        for assignment in (None, impls):
            expected = graph.evaluate_interpreted(inputs, assignment)
            got = program.execute(inputs, assignment)
            assert np.array_equal(expected, got)


def test_engine_throughput():
    setup = shared_setup()
    sobel = SobelEdgeDetector()
    graph = sobel.graph
    images = benchmark_images(sized(16, 32), shape=TILE_SHAPE)
    profiles = profile_accelerator(sobel, images, rng=setup.seed)
    space = reduce_library(sobel, setup.library, profiles)
    configs = space.random_configurations(
        sized(20, 60), rng=setup.seed + 1
    )

    _assert_bit_identical(
        space, graph, np.random.default_rng(setup.seed + 2)
    )

    # Seed path: cached per-run inputs/goldens, interpreted evaluation.
    runs = []
    for image in images:
        inputs = sobel.window_inputs(image)
        golden = graph.evaluate_interpreted(inputs).reshape(image.shape)
        runs.append((inputs, golden))

    def interpreted_qor(config) -> float:
        impls = space.assignment_callables(config)
        total = 0.0
        for inputs, golden in runs:
            out = graph.evaluate_interpreted(inputs, impls).reshape(
                golden.shape
            )
            total += ssim(golden.astype(float), out.astype(float))
        return total / len(runs)

    engine = build_engine(sobel, images)

    def compiled_qor(config) -> float:
        return engine.qor(space.assignment_callables(config))

    for config in configs[:3]:
        assert abs(interpreted_qor(config) - compiled_qor(config)) < 1e-9

    interp_cps = throughput(interpreted_qor, configs)
    compiled_cps = throughput(compiled_qor, configs)
    qor_speedup = compiled_cps / interp_cps

    # Full analysis (simulation + synthesis): serial vs 2-process pool.
    full_configs = configs[: sized(10, 30)]
    serial_engine = build_engine(sobel, images, workers=None)
    start = time.perf_counter()
    serial_results = serial_engine.evaluate_many(space, full_configs)
    serial_cps = len(full_configs) / (time.perf_counter() - start)
    parallel_engine = build_engine(sobel, images, workers=2)
    start = time.perf_counter()
    parallel_results = parallel_engine.evaluate_many(space, full_configs)
    parallel_cps = len(full_configs) / (time.perf_counter() - start)
    assert parallel_results == serial_results

    write_result(
        "engine_throughput",
        (
            f"Sobel, {len(images)} runs of {TILE_SHAPE[0]}x"
            f"{TILE_SHAPE[1]} px, {len(configs)} configurations\n"
            "QoR evaluation (single process):\n"
            f"  interpreted (seed):    {interp_cps:8.1f} configs/s\n"
            f"  compiled + batched:    {compiled_cps:8.1f} configs/s\n"
            f"  speed-up:              {qor_speedup:8.2f}x\n"
            f"full analysis ({len(full_configs)} configs):\n"
            f"  serial:                {serial_cps:8.1f} configs/s\n"
            f"  2 workers:             {parallel_cps:8.1f} configs/s "
            f"({os.cpu_count()} CPU(s) available)"
        ),
    )
    assert qor_speedup >= 3.0
    # The parallel row is informational: whether a 2-process pool beats
    # the in-process path depends on available cores and pool start-up
    # cost relative to this (deliberately small) workload.


if __name__ == "__main__":  # pragma: no cover - CLI convenience
    test_engine_throughput()
    print("bench_engine_throughput: OK")
