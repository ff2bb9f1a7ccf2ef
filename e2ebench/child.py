"""One measured pipeline run in a fresh process (started by run.py).

The process imports ``repro``, opens the experiment store named by
``REPRO_STORE_DIR`` and is then *ready*: ``setup_s`` is the time from
the parent spawning it to this point.  It then calls
``run_workload_pipeline`` once, the entry point shared by ``repro
workloads run``, ``runs resume`` and ``serve``, at the default geometry,
and writes what it measured and produced to ``--result`` as JSON.

Run by hand (the parent passes the same arguments):

    PYTHONPATH=src REPRO_STORE_DIR=/tmp/s REPRO_CACHE_DIR=/tmp/c \\
        python3 e2ebench/child.py --workload sobel --seed 1 \\
        --spawned 0 --result /tmp/r.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() when the parent spawned us")
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", default=None,
                        help="record layer spans and write them here")
    parser.add_argument("--quality", action="store_true",
                        help="report the data the quality metrics need")
    parser.add_argument("--oracle", type=int, default=0,
                        help="re-score this many final-front configs")
    args = parser.parse_args(argv)

    import numpy as np

    from repro.experiments.setup import run_workload_pipeline
    from repro.store import open_store

    store = open_store()
    setup_s = time.monotonic() - args.spawned

    recorder = None
    if args.trace:
        from layers import SpanRecorder

        recorder = SpanRecorder(
            f"{args.workload}-{args.seed}-{time.time_ns():x}"
        )
        recorder.install()

    cpu0 = _cpu_s()
    start = time.perf_counter()
    setup, result = run_workload_pipeline(
        args.workload, scale=None, n_images=4, train=150, evals=10_000,
        seed=args.seed, workers=None, store=store,
    )
    wall_s = time.perf_counter() - start
    cpu_s = _cpu_s() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if recorder is not None:
        recorder.write(args.trace)

    points = np.ascontiguousarray(result.final_points, dtype=np.float64)
    points3 = np.ascontiguousarray(result.final_points_3d, dtype=np.float64)
    digest = hashlib.sha256()
    for blob in (
        json.dumps([list(c) for c in result.final_configs]).encode(),
        points.tobytes(),
        json.dumps([list(c) for c in result.final_configs_3d]).encode(),
        points3.tobytes(),
    ):
        digest.update(blob)

    doc = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "stage_cache": result.stage_cache,
        "stage_seconds": result.timings,
        "front_digest": digest.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }
    if args.quality:
        doc.update(_quality(setup, result))
    if args.oracle:
        from oracle import rescore_front

        doc["oracle"] = rescore_front(setup, result, args.oracle)
    with open(args.result, "w") as handle:
        json.dump(doc, handle)
    return 0


def _quality(setup, result) -> dict:
    """Raw inputs of the quality metrics (derived in metrics.py)."""
    from repro.synthesis.synthesizer import synthesize

    accelerator = setup.accelerator
    exact = {
        slot.name: setup.library.exact_component(slot.signature)
        for slot in accelerator.op_slots()
    }
    exact_area = synthesize(accelerator.to_netlist(exact), in_place=True).area
    pseudo = result.pseudo_pareto
    return {
        "front": result.final_points.tolist(),
        "exact_area": float(exact_area),
        "qor_fidelity": float(result.qor_model.fidelity_test),
        "area_fidelity": float(result.hw_model.fidelity_test),
        "pseudo_predicted": pseudo.points.tolist(),
        "pseudo_real": [[r.qor, r.area] for r in result.real_evaluations],
    }


if __name__ == "__main__":
    sys.exit(main())
