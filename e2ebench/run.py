"""End-to-end cold/warm benchmark of the autoAx pipeline.

    python3 e2ebench/run.py --workload sobel --seed 1 --seconds 10 --trace 0

Runs ``repro.experiments.setup.run_workload_pipeline`` (the entry point
of ``repro workloads run``, ``runs resume`` and ``serve``) at the
default geometry, 4 images of 128x192 px and library scale 0.02, with
the workload seed as the pipeline seed.  Every pipeline run is a fresh
child process (``child.py``):

* ``--trace 0``: one *cold* run on an empty store and cache, then warm
  re-runs against the store it filled until ``--seconds`` have passed
  (at least three).  Tracing is off.  Prints the end-to-end metrics.
* ``--trace 1``: an untraced cold run, a traced cold run on a second
  empty store and a traced warm re-run.  Prints the per-layer metrics
  (layers.py) and the tracing overhead (traced minus untraced cold).

Every run checks its outputs: cold runs must miss every stage and warm
runs hit every stage; all fronts must be byte-identical; and a few
final-front configurations are re-scored by an independent oracle
(``oracle.py``).  A pipeline run that raises or fails a check counts in
``failed``.  The last stdout line is the JSON result; the full record
(samples, environment, cleared knobs) goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

from metrics import est_gap_area, est_gap_qor, front_hv

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: The paper's case studies kept (see BENCHMARK.json for why).
WORKLOADS = ("sobel", "fixed_gf")

#: Warm re-runs per measured run, at least and at most.
MIN_WARM, MAX_WARM = 3, 40

#: One benchmark run must end within this many seconds.
DEADLINE_S = 175.0

#: Final-front configurations the oracle re-scores per run.
ORACLE_CONFIGS = 3

#: Share of the traced cold run the top-level layer spans must cover.
MIN_COVERAGE = 0.9

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class ChildFailed(RuntimeError):
    """A pipeline child exited non-zero or did not finish in time."""


class Bench:
    def __init__(self, workload: str, seed: int, deadline: float) -> None:
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.work = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
        self.out = ROOT / ".bench_out"
        self.nproc = len(os.sched_getaffinity(0))
        self.env, self.cleared, self.threads = self._child_env()
        self.children = 0

    def _child_env(self) -> Tuple[Dict[str, str], Dict[str, str],
                                  Dict[str, str]]:
        """The parent's environment without any ``REPRO_*`` knob and with
        BLAS/OpenMP threads capped at ``nproc``."""
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        cleared = {k: v for k, v in os.environ.items()
                   if k.startswith("REPRO_")}
        threads = {}
        for var in THREAD_VARS:
            try:
                given = int(env.get(var, ""))
            except ValueError:
                given = self.nproc
            threads[var] = str(max(1, min(given, self.nproc)))
        env.update(threads)
        env["PYTHONPATH"] = str(ROOT / "src")
        return env, cleared, threads

    def child(self, store: str, trace: bool = False, quality: bool = False,
              oracle: int = 0) -> Dict:
        """One pipeline run in a fresh process on store ``store``.

        Each store gets its own empty ``REPRO_CACHE_DIR``: without it
        the library lookup falls back to a legacy ``.cache/`` file and a
        "cold" run would silently start warm.
        """
        self.children += 1
        tag = f"{store}-{self.children}"
        result = self.work / f"{tag}.json"
        env = dict(self.env)
        env["REPRO_STORE_DIR"] = str(self.work / store / "store")
        env["REPRO_CACHE_DIR"] = str(self.work / store / "cache")
        cmd = [sys.executable, str(HERE / "child.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--result", str(result)]
        if trace:
            cmd += ["--trace", str(self.work / f"{tag}.trace.json")]
        if quality:
            cmd.append("--quality")
        if oracle:
            cmd += ["--oracle", str(oracle)]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise ChildFailed("benchmark deadline passed")
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                cmd + ["--spawned", repr(spawned)], env=env, cwd=ROOT,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                text=True, timeout=remaining,
            )
        except subprocess.TimeoutExpired as exc:
            raise ChildFailed(f"{tag}: timed out") from exc
        if proc.returncode != 0:
            raise ChildFailed(
                f"{tag}: exit {proc.returncode}\n{proc.stderr[-4000:]}"
            )
        doc = json.loads(result.read_text())
        if trace:
            doc["trace_file"] = cmd[cmd.index("--trace") + 1]
        return doc


class Tally:
    """Pipeline runs attempted and failed, with the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def record(self, problems: List[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def check_cold(doc: Dict) -> List[str]:
    """A cold run must compute every stage: anything cached means the
    store or cache was not empty."""
    cached = [s for s, c in doc["stage_cache"].items() if c != "miss"]
    return [f"cold run found cached stages {cached}"] if cached else []


def check_warm(doc: Dict, cold: Dict) -> List[str]:
    problems = []
    recomputed = [s for s, c in doc["stage_cache"].items() if c != "hit"]
    if recomputed:
        problems.append(f"warm run recomputed stages {recomputed}")
    if doc["front_digest"] != cold["front_digest"]:
        problems.append("warm front differs from the cold front")
    for row in doc.get("oracle", []):
        if not row["ok"]:
            problems.append(
                f"oracle SSIM {row['oracle']!r} != reported "
                f"{row['reported']!r} for config {row['config']}"
            )
    return problems


def quality_metrics(cold: Dict) -> Dict[str, Tuple[float, str]]:
    """Result quality of a cold run, steady enough across seeds to be
    gated end to end."""
    return {
        "front_hv": (front_hv(cold["front"], cold["exact_area"]), "ratio"),
        "qor_fidelity": (cold["qor_fidelity"], "ratio"),
        "area_fidelity": (cold["area_fidelity"], "ratio"),
    }


def estimator_gaps(cold: Dict) -> Dict[str, Tuple[float, str]]:
    """Predicted versus real QoR and area over the pseudo-Pareto set.

    Reported by the traced run only: across seeds they spread by about
    half their median, far beyond any bound an end-to-end metric may
    have.
    """
    pred = cold["pseudo_predicted"]
    real = cold["pseudo_real"]
    return {
        "modeling.est_gap_qor": (
            est_gap_qor([p[0] for p in pred], [r[0] for r in real]),
            "ssim"),
        "modeling.est_gap_area": (
            est_gap_area([p[1] for p in pred], [r[1] for r in real],
                         cold["exact_area"]), "ratio"),
    }


def run_untraced(bench: Bench, seconds: int, tally: Tally):
    """One cold run, then warm re-runs for ``seconds`` (at least
    :data:`MIN_WARM`); the first warm run also runs the oracle."""
    cold = bench.child("cold", quality=True)
    tally.record(check_cold(cold))
    warms: List[Dict] = []
    attempts = 0
    phase_start = time.monotonic()
    while attempts < MIN_WARM or (
        time.monotonic() - phase_start < seconds and attempts < MAX_WARM
    ):
        attempts += 1
        try:
            warm = bench.child(
                "cold", oracle=0 if warms else ORACLE_CONFIGS)
        except ChildFailed as exc:
            tally.record([str(exc)])
            continue
        tally.record(check_warm(warm, cold))
        warms.append(warm)
    if not warms:
        raise ChildFailed("no warm run finished")
    metrics = {
        "cold_s": (cold["wall_s"], "s"),
        "cold_cpu_s": (cold["cpu_s"], "s"),
        "warm_s": (statistics.median(w["wall_s"] for w in warms), "s"),
        "setup_s": (statistics.median(d["setup_s"] for d in [cold] + warms),
                    "s"),
        "peak_rss_mb": (cold["peak_rss_mb"], "MB"),
    }
    metrics.update(quality_metrics(cold))
    return metrics, {"cold": cold, "warm": warms}


def run_traced(bench: Bench, tally: Tally):
    """Untraced cold, traced cold on a second store, traced warm."""
    from layers import layer_metrics, load_events

    reference = bench.child("reference", quality=True)
    tally.record(check_cold(reference))
    cold = bench.child("traced", trace=True)
    problems = check_cold(cold)
    if cold["front_digest"] != reference["front_digest"]:
        problems.append("traced front differs from the untraced front")
    cold_events = load_events(cold["trace_file"])
    warm = bench.child("traced", trace=True, oracle=ORACLE_CONFIGS)
    tally.record(check_warm(warm, cold))
    metrics = layer_metrics(
        cold_events, load_events(warm["trace_file"]),
        cold["wall_s"], reference["wall_s"],
    )
    metrics.update(estimator_gaps(reference))
    coverage = metrics["trace.coverage"][0]
    if coverage < MIN_COVERAGE:
        problems.append(
            f"layer spans cover {coverage:.1%} of the traced cold run, "
            f"below {MIN_COVERAGE:.0%}: a layer is missing from layers.py"
        )
    tally.record(problems)
    bench.out.mkdir(exist_ok=True)
    stem = f"{bench.workload}-seed{bench.seed}"
    for doc, kind in ((cold, "cold"), (warm, "warm")):
        target = bench.out / f"{stem}-{kind}.trace.json"
        shutil.copyfile(doc["trace_file"], target)
        doc["trace_file"] = str(target.relative_to(ROOT))
    return metrics, {"reference": reference, "cold": cold, "warm": warm}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20,
                        help="warm re-run phase length (--trace 0)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    started = time.monotonic()
    bench = Bench(args.workload, args.seed, started + DEADLINE_S)
    tally = Tally()
    bench.work.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            metrics, samples = run_traced(bench, tally)
        else:
            metrics, samples = run_untraced(bench, args.seconds, tally)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    some = samples["cold"]
    environment = {
        "nproc": bench.nproc,
        "python": some["python"],
        "numpy": some["numpy"],
        "platform": platform.platform(),
        "threads": bench.threads,
        "cleared_repro_knobs": bench.cleared,
    }
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "elapsed_s": time.monotonic() - started,
        "environment": environment,
        "attempted": tally.attempted, "failed": tally.failed,
        "problems": tally.problems,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
        "samples": samples,
    }
    bench.out.mkdir(exist_ok=True)
    path = bench.out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    for problem in tally.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(f"environment: {json.dumps(environment, sort_keys=True)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
