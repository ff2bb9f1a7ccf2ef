"""Shared infrastructure of the benchmark harness.

Every benchmark regenerates one table or figure of the paper.  The
experiment setup (characterised library + benchmark images) is built once
per session and cached on disk; results are printed and archived under
``results/``.

Environment knobs:

* ``REPRO_SCALE``       — library scale relative to Table 2 (default 0.02;
                          1.0 regenerates the paper-size library).
* ``REPRO_PAPER_SCALE`` — set to 1 to run paper-size experiment settings
                          (1500/1500 training configurations, 10**6 DSE
                          evaluations, 384x256 images).  Expect hours.
* ``REPRO_STORE_DIR``   — persistent experiment-store root (library
                          cache, stage artifacts, run ledger; default
                          ``.repro-store``; blank values are rejected).
* ``REPRO_WORKERS``     — worker processes for real evaluation (default:
                          in-process; picked up by the evaluation engine).
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Callable, Dict, Optional

from repro.experiments.setup import (
    DEFAULT_SHAPE,
    PAPER_SHAPE,
    ExperimentSetup,
    build_engine,
    default_setup,
    experiment_store,
)
from repro.telemetry import get_metrics

__all__ = [
    "RESULTS_DIR",
    "paper_scale",
    "shared_setup",
    "sized",
    "write_result",
    "build_engine",
    "experiment_store",
    "throughput",
    "timed",
    "metrics_mark",
    "bench_metrics",
]

RESULTS_DIR = Path(os.environ.get("REPRO_RESULTS_DIR", "results"))

_SETUP: Optional[ExperimentSetup] = None


def paper_scale() -> bool:
    """True when paper-size experiment settings are requested."""
    return os.environ.get("REPRO_PAPER_SCALE", "0") not in ("0", "", "false")


def shared_setup() -> ExperimentSetup:
    """Session-cached experiment setup shared by all benchmarks."""
    global _SETUP
    if _SETUP is None:
        if paper_scale():
            _SETUP = default_setup(
                n_images=24, image_shape=PAPER_SHAPE
            )
        else:
            _SETUP = default_setup(n_images=4, image_shape=DEFAULT_SHAPE)
    return _SETUP


def sized(default: int, paper: int) -> int:
    """Pick the experiment size for the current scale mode."""
    return paper if paper_scale() else default


def write_result(name: str, text: str) -> None:
    """Print a result block and archive it under ``results/``."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n===== {name} =====")
    print(text)


class timed:
    """Time one block on the monotonic clock, into the metrics registry.

    ``with timed("cold") as t: ...`` leaves the elapsed wall seconds in
    ``t.seconds`` and records the same value as a
    ``bench.<name>_seconds`` histogram observation, so the telemetry
    snapshot attached to every ``BENCH_*.json`` doc carries each
    measured phase alongside the subsystem counters it triggered.
    """

    __slots__ = ("name", "seconds", "_start")

    def __init__(self, name: str):
        self.name = name
        self.seconds = 0.0

    def __enter__(self) -> "timed":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = time.perf_counter() - self._start
        get_metrics().observe(
            f"bench.{self.name}_seconds", self.seconds
        )


def metrics_mark() -> Dict:
    """Counter checkpoint; pass to :func:`bench_metrics` to diff."""
    return get_metrics().mark()


def bench_metrics(mark: Optional[Dict] = None) -> Dict:
    """The telemetry ``metrics`` sub-object of a ``BENCH_*.json`` doc.

    Counters are diffed against ``mark`` (when given) so the doc only
    reports what the benchmark itself did; histograms are absolute.
    """
    return get_metrics().snapshot(since=mark)


def throughput(fn: Callable[[object], object], items) -> float:
    """Apply ``fn`` to every item and return items/second."""
    items = list(items)
    with timed("throughput") as t:
        for item in items:
            fn(item)
    return len(items) / t.seconds if t.seconds > 0 else float("inf")
