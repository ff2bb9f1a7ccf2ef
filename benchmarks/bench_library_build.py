"""Library-construction pipeline — serial vs parallel vs warm store.

Builds the same generation plan three ways:

* **serial** — the pipeline with ``workers=1`` (the seed path);
* **parallel** — ``workers=4`` fork processes over fixed-size chunks;
* **warm** — a rebuild against a store already holding every
  per-component memo entry.

Asserted contract (also the PR's acceptance bar): the parallel build is
**>= 2x faster** than serial (on machines with >= 4 usable cores — the
CI job runs on 4-vCPU runners), every build is **bit-identical**, and
the warm rebuild performs **zero characterisations and zero synthesis
runs** — proven both by the pipeline's own accounting and by the
process-level run counters.

Results land in ``results/library_build.txt``; the machine-readable doc
of each run is appended to the ``BENCH_library.json`` trajectory (a
JSON array) in the working tree.
"""

from __future__ import annotations

import json
import tempfile
import time
from pathlib import Path

from benchmarks._common import sized, write_result
from repro.circuits.characterization import characterization_count
from repro.core.runtime import reset_runtime, usable_cores
from repro.library.generation import scaled_plan
from repro.library.io import library_payload
from repro.library.pipeline import build_library
from repro.store import ArtifactStore, RunLedger
from repro.synthesis.synthesizer import synthesis_run_count

#: Bench trajectory file (machine-readable, one doc per run).
BENCH_JSON = Path("BENCH_library.json")

PARALLEL_WORKERS = 4

#: Floor of the parallel-speedup assertion, only enforced on machines
#: with at least PARALLEL_WORKERS usable cores.
MIN_SPEEDUP = 2.0


def _payload_text(library) -> str:
    return json.dumps(library_payload(library), sort_keys=True)


def test_library_build():
    plan = scaled_plan(sized(0.004, 0.05), seed=0)

    reset_runtime()
    start = time.perf_counter()
    serial = build_library(plan, workers=1)
    serial_s = time.perf_counter() - start
    reference = _payload_text(serial.library)

    reset_runtime()
    start = time.perf_counter()
    parallel = build_library(plan, workers=PARALLEL_WORKERS)
    parallel_s = time.perf_counter() - start
    assert _payload_text(parallel.library) == reference
    cores = usable_cores()
    # On one usable core the runtime runs the workers=1 path.
    parallel_ran = min(PARALLEL_WORKERS, cores) > 1
    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")

    with tempfile.TemporaryDirectory(prefix="repro-bench-lib-") as tmp:
        store = ArtifactStore(tmp)
        cold = build_library(
            plan, workers=PARALLEL_WORKERS, store=store
        )
        assert cold.stats.characterized == plan.total()

        chars_before = characterization_count()
        synths_before = synthesis_run_count()
        start = time.perf_counter()
        warm = build_library(plan, workers=1, store=store)
        warm_s = time.perf_counter() - start

        # Warm contract: every component from the store, nothing ran.
        assert warm.stats.store_hits == plan.total()
        assert warm.stats.characterized == 0
        assert warm.stats.synthesized == 0
        assert characterization_count() == chars_before
        assert synthesis_run_count() == synths_before
        assert _payload_text(warm.library) == reference

        ledger = RunLedger(store.root)
        warm_manifest = ledger.get(warm.run_id)
        assert warm_manifest["extra"]["build"]["synthesized"] == 0
        assert warm_manifest["stages"][0]["cache"] == "hit"

    warm_speedup = serial_s / warm_s if warm_s > 0 else float("inf")
    enforced = cores >= PARALLEL_WORKERS
    write_result(
        "library_build",
        (
            f"plan: {plan.total()} components over "
            f"{len(plan.counts)} signatures\n"
            f"serial  ({1} worker):  {serial_s:8.3f}s\n"
            f"parallel ({PARALLEL_WORKERS} workers): "
            f"{parallel_s:8.3f}s  ({speedup:.1f}x"
            f"{'' if parallel_ran else ', serial path'})\n"
            f"warm store rebuild:   {warm_s:8.3f}s  "
            f"({warm_speedup:.1f}x, 0 characterisations, "
            f"0 synthesis)\n"
            f"speedup floor {MIN_SPEEDUP}x "
            f"{'enforced' if enforced else f'skipped ({cores} cores)'}"
        ),
    )
    doc = {
        "version": 1,
        "bench": "library_build",
        "components": plan.total(),
        "cores": cores,
        "workers": PARALLEL_WORKERS,
        "serial_seconds": round(serial_s, 4),
        "parallel_seconds": round(parallel_s, 4),
        "parallel_speedup": round(speedup, 2),
        "parallel_ran": parallel_ran,
        "warm_seconds": round(warm_s, 4),
        "warm_speedup": round(warm_speedup, 2),
        "warm_stats": warm.stats.as_dict(),
    }
    trajectory = []
    if BENCH_JSON.is_file():
        try:
            previous = json.loads(BENCH_JSON.read_text())
            if isinstance(previous, list):
                trajectory = previous
        except (OSError, json.JSONDecodeError):
            trajectory = []
    trajectory.append(doc)
    BENCH_JSON.write_text(
        json.dumps(trajectory, sort_keys=True, indent=2) + "\n"
    )
    # Where the pool ran, it must not lose to serial (on one core both
    # builds take the serial path, so only noise separates them).
    if parallel_ran:
        assert speedup >= 1.0, (
            f"4-worker build lost to serial: {speedup:.2f}x"
        )
    if enforced:
        assert speedup >= MIN_SPEEDUP, (
            f"parallel build only {speedup:.2f}x faster "
            f"({serial_s:.2f}s -> {parallel_s:.2f}s)"
        )
