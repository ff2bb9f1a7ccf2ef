"""Shared parallel runtime: serial rule, shm lifecycle, spawn identity.

The runtime's three load-bearing promises are pinned here:

* the **serial rule** runs a batch in-process exactly when at most one
  worker would be busy (or the caller already is a worker);
* every published **shared-memory segment** is tracked and unlinked —
  after normal use, worker crashes, ``KeyboardInterrupt`` and plain
  interpreter exit (asserted against ``/dev/shm`` directly);
* execution is **bit-identical for any worker count and any start
  method** — including the forced-``spawn`` path that non-fork
  platforms take.
"""

from __future__ import annotations

import gc
import glob
import os
import pickle
import subprocess
import sys
import textwrap
import weakref

import numpy as np
import pytest

from repro.core import runtime as rt
from repro.core.engine import EvaluationEngine
from repro.core.runtime import (
    MIN_SHARED_ARRAY_BYTES,
    ParallelRuntime,
    get_runtime,
    reset_runtime,
)
from repro.library.generation import GenerationPlan
from repro.library.io import library_payload
from repro.library.pipeline import build_library


@pytest.fixture(autouse=True)
def two_cores(monkeypatch):
    """Let ``workers=2`` reach the pool on any host."""
    monkeypatch.setattr(rt, "usable_cores", lambda: 2)


@pytest.fixture()
def fresh_runtime():
    """Isolate each test's singleton (and its pool/segments)."""
    reset_runtime()
    yield get_runtime()
    reset_runtime()


def _shm_entries(pid: int):
    return glob.glob(f"/dev/shm/repro-{pid}-*")


# Module-level task functions (the runtime's fn(context, task) contract).

def _sum_task(context, n):
    (arr,) = context
    return int(arr[:n].sum())


def _flags_task(context, n):
    (arr,) = context
    return bool(arr.flags.writeable)


def _crash_task(context, n):
    # Only die inside a pool worker, never in the test process.
    if rt._IN_WORKER:
        os._exit(13)
    return n


def _interrupt_task(context, n):
    if rt._IN_WORKER:
        raise KeyboardInterrupt
    return n


BIG = np.arange(100_000, dtype=np.int64)  # well above the shm threshold


class TestWorkersConventions:
    def test_engine_reexports_the_runtime_helpers(self):
        from repro.core import engine

        assert engine.validate_workers is rt.validate_workers
        assert engine.default_workers is rt.default_workers
        assert engine.WORKERS_ENV == rt.WORKERS_ENV

    def test_search_and_pipeline_share_the_convention(self):
        import repro.library.pipeline as pipeline_mod
        import repro.search.portfolio as portfolio_mod

        src_p = open(pipeline_mod.__file__).read()
        src_s = open(portfolio_mod.__file__).read()
        for src in (src_p, src_s):
            assert "def validate_workers" not in src
            assert 'get_context("fork")' not in src


class TestSerialRule:
    @pytest.mark.parametrize(
        "workers, n_tasks, cores, in_worker, mode",
        [
            (None, 3, 2, False, "serial"),
            (0, 3, 2, False, "serial"),
            (1, 3, 2, False, "serial"),
            (4, 1, 2, False, "serial"),
            (4, 3, 1, False, "serial"),
            (4, 3, 2, True, "serial"),
            (2, 3, 2, False, "parallel"),
        ],
        ids=[
            "workers-none", "workers-0", "workers-1", "one-task",
            "one-core", "nested-in-worker", "pool",
        ],
    )
    def test_rule(self, fresh_runtime, monkeypatch, workers, n_tasks,
                  cores, in_worker, mode):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        monkeypatch.setattr(rt, "usable_cores", lambda: cores)
        monkeypatch.setattr(rt, "_IN_WORKER", in_worker)
        tasks = list(range(2, 2 + n_tasks))
        out = fresh_runtime.map(
            _sum_task, tasks, context=(BIG,), workers=workers
        )
        assert out == [int(BIG[:n].sum()) for n in tasks]
        other = "parallel" if mode == "serial" else "serial"
        assert fresh_runtime.stats[f"{mode}_batches"] == 1
        assert fresh_runtime.stats[f"{other}_batches"] == 0
        # Serial batches publish nothing.
        assert bool(fresh_runtime.tracked_segments()) == (
            mode == "parallel"
        )

    def test_empty_batch(self, fresh_runtime):
        assert fresh_runtime.map(_sum_task, [], context=(BIG,)) == []


class TestParallelExecution:
    def test_forced_parallel_matches_serial(self, fresh_runtime):
        tasks = list(range(2, 40))
        serial = fresh_runtime.map(_sum_task, tasks, context=(BIG,))
        parallel = fresh_runtime.map(
            _sum_task, tasks, context=(BIG,), workers=2
        )
        assert parallel == serial
        assert fresh_runtime.stats["parallel_batches"] == 1

    def test_imap_streams_in_task_order(self, fresh_runtime):
        tasks = list(range(1, 20))
        out = list(
            fresh_runtime.imap(
                _sum_task, tasks, context=(BIG,), workers=2
            )
        )
        assert out == [int(BIG[:n].sum()) for n in tasks]

    def test_workers_see_zero_copy_readonly_views(self, fresh_runtime):
        flags = fresh_runtime.map(
            _flags_task, [1, 2, 3, 4], context=(BIG,), workers=2
        )
        # Every task runs in the pool on the published read-only view.
        assert not any(flags)

    def test_pool_and_context_are_reused_across_batches(self, fresh_runtime):
        context = (BIG,)
        fresh_runtime.map(
            _sum_task, [1, 2, 3], context=context, workers=2
        )
        published = fresh_runtime.stats["contexts_published"]
        segments = fresh_runtime.tracked_segments()
        fresh_runtime.map(
            _sum_task, [4, 5, 6], context=context, workers=2
        )
        assert fresh_runtime.stats["contexts_published"] == published
        assert fresh_runtime.stats["context_cache_hits"] >= 1
        assert fresh_runtime.tracked_segments() == segments


class TestSingleton:
    def test_reset_releases_the_closed_runtime(self):
        reset_runtime()
        ref = weakref.ref(get_runtime())
        reset_runtime()
        gc.collect()
        assert ref() is None


class TestShmLifecycle:
    def test_normal_close_unlinks_everything(self, fresh_runtime):
        fresh_runtime.map(
            _sum_task, [1, 2, 3], context=(BIG,), workers=2
        )
        assert fresh_runtime.tracked_segments()
        assert _shm_entries(os.getpid())
        fresh_runtime.close()
        assert fresh_runtime.tracked_segments() == []
        assert _shm_entries(os.getpid()) == []

    def test_worker_crash_cleans_up_and_recovers(self, fresh_runtime):
        from concurrent.futures.process import BrokenProcessPool

        with pytest.raises(BrokenProcessPool):
            fresh_runtime.map(
                _crash_task, [1, 2, 3, 4], context=(BIG,), workers=2
            )
        # The runtime recovers with a fresh pool...
        out = fresh_runtime.map(
            _sum_task, [2, 3], context=(BIG,), workers=2
        )
        assert out == [1, 3]
        # ...and still owns (and can unlink) every segment.
        fresh_runtime.close()
        assert _shm_entries(os.getpid()) == []

    def test_keyboard_interrupt_cleans_up(self, fresh_runtime):
        with pytest.raises(KeyboardInterrupt):
            fresh_runtime.map(
                _interrupt_task, [1, 2, 3], context=(BIG,), workers=2
            )
        fresh_runtime.close()
        assert _shm_entries(os.getpid()) == []

    def test_interpreter_exit_unlinks_segments(self, tmp_path):
        """atexit cleanup: no /dev/shm leak even without close()."""
        script = textwrap.dedent(
            """
            import os
            import numpy as np
            import repro.core.runtime as rt
            from repro.core.runtime import get_runtime

            rt.usable_cores = lambda: 2
            runtime = get_runtime()
            arr = np.arange(100_000, dtype=np.int64)

            def task(context, n):
                return int(context[0][:n].sum())

            out = runtime.map(task, [1, 2, 3], context=(arr,), workers=2)
            assert out == [0, 1, 3]
            assert runtime.tracked_segments()
            print(os.getpid())
            # exit WITHOUT close(): atexit must unlink the segments
            """
        )
        env = dict(os.environ)
        root = os.path.dirname(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        )
        env["PYTHONPATH"] = os.path.join(root, "src")
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        child_pid = int(proc.stdout.strip().splitlines()[-1])
        assert _shm_entries(child_pid) == []

    def test_context_eviction_unlinks_old_segments(self):
        runtime = ParallelRuntime(max_contexts=2)
        try:
            refs = []
            for i in range(5):
                ctx = (np.arange(50_000, dtype=np.int64) + i,)
                refs.append(runtime.publish(ctx))
            # Only the two newest contexts may still own segments.
            alive = runtime.tracked_segments()
            assert len(alive) <= 4  # <= 2 contexts x (array + payload)
            assert runtime.stats["segments_created"] == 10
        finally:
            runtime.close()
        assert runtime.tracked_segments() == []

    def test_forked_children_never_unlink_parent_segments(self, fresh_runtime):
        """close() in an inheriting process must be a no-op."""
        fresh_runtime.map(
            _sum_task, [1, 2, 3], context=(BIG,), workers=2
        )
        before = fresh_runtime.tracked_segments()
        assert before
        pid = os.fork()
        if pid == 0:  # child: inherited runtime object, not owner
            fresh_runtime.close()
            os._exit(0)
        os.waitpid(pid, 0)
        assert fresh_runtime.tracked_segments() == before
        assert len(_shm_entries(os.getpid())) == len(before)


class TestSharedArrayPublication:
    def test_large_arrays_ride_shared_memory(self, fresh_runtime):
        arr = np.arange(
            MIN_SHARED_ARRAY_BYTES // 8 + 1, dtype=np.int64
        )
        ref = fresh_runtime.publish((arr,))
        assert ref is not None
        # context payload segment + one hoisted array segment
        assert len(fresh_runtime.tracked_segments()) == 2

    def test_small_arrays_stay_inline(self, fresh_runtime):
        arr = np.arange(8, dtype=np.int64)
        fresh_runtime.publish((arr,))
        assert len(fresh_runtime.tracked_segments()) == 1

    def test_no_shm_mode_falls_back_to_inline_blobs(self):
        runtime = ParallelRuntime()
        runtime._shm_ok = False  # as after a failed segment creation
        try:
            out = runtime.map(
                _sum_task, [2, 3, 4], context=(BIG,), workers=2
            )
            assert out == [1, 3, 6]
            assert runtime.tracked_segments() == []
        finally:
            runtime.close()


def _install_spawn_runtime():
    """Make a spawn-started runtime the process-wide singleton."""
    reset_runtime()
    rt._RUNTIME = ParallelRuntime(start_method="spawn")


class TestForcedSpawn:
    """Satellite: the non-fork path must be bit-identical (and exist)."""

    def test_spawn_evaluate_many_matches_serial(
        self, sobel, small_images, sobel_space
    ):
        _install_spawn_runtime()
        try:
            assert get_runtime().start_method == "spawn"
            configs = sobel_space.random_configurations(6, rng=7)
            serial = EvaluationEngine(
                sobel, small_images
            ).evaluate_many(sobel_space, configs, workers=1)
            spawned = EvaluationEngine(
                sobel, small_images
            ).evaluate_many(sobel_space, configs, workers=2)
            assert pickle.dumps(serial) == pickle.dumps(spawned)
            assert get_runtime().stats["parallel_batches"] == 1
        finally:
            reset_runtime()

    def test_spawn_library_build_matches_serial(self):
        plan = GenerationPlan(
            {("add", 4): 10, ("mul", 4): 6}, seed=3, sample_size=1 << 10
        )
        reset_runtime()
        serial = build_library(plan, workers=1, chunk_size=4)
        _install_spawn_runtime()
        try:
            spawned = build_library(plan, workers=2, chunk_size=4)
            assert get_runtime().stats["parallel_batches"] >= 1
            assert library_payload(spawned.library) == library_payload(
                serial.library
            )
        finally:
            reset_runtime()

    def test_invalid_start_method_rejected(self):
        with pytest.raises(ValueError, match="thread"):
            ParallelRuntime(start_method="thread")
