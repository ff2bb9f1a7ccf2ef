"""Batched evaluation engine — the fast *real* (reference) path.

The expensive step the estimation models amortise is the full analysis of
a configuration: simulating the accelerator over every (image, scenario)
run and synthesising the composed netlist.  The seed implementation
re-interpreted the dataflow graph per run and synthesised every
configuration from scratch; :class:`EvaluationEngine` makes the same
analysis fast and scalable in four layered steps:

1. **compile** — the accelerator graph is lowered once to a
   :class:`~repro.accelerators.graph.GraphProgram` (flat instruction
   list, resolved operand registers, precomputed masks);
2. **batch** — all (image x scenario) runs are stacked into one
   ``(runs, pixels)`` input batch, so a configuration's QoR needs a
   single vectorised pass instead of ``runs`` re-interpretations, and
   SSIM is scored by a :class:`~repro.imaging.metrics.BatchedSsim` whose
   golden-side window statistics are precomputed once;
3. **parallelise** — :meth:`evaluate_many` analyses every configuration
   on its own (simulate, score, synthesise) and, with ``workers > 1``,
   fans configuration chunks out to worker processes (the analyses are
   independent);
4. **memoise** — synthesis reports are cached by the configuration's
   component-record tuple, and duplicate configurations inside one batch
   are analysed once.

Numerical contract: QoR values match the per-run reference path to float
round-off (the SSIM math is identical; only the summation grouping
differs), and hardware reports are exactly those of
:func:`~repro.synthesis.synthesizer.synthesize`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.accelerators.base import ImageAccelerator
from repro.core.configuration import Configuration, ConfigurationSpace
from repro.core.runtime import (  # noqa: F401 - re-exported conventions
    WORKERS_ENV,
    default_workers,
    get_runtime,
    validate_workers,
)
from repro.imaging.metrics import BatchedSsim
from repro.library.component import ComponentRecord
from repro.synthesis.synthesizer import SynthesisReport, synthesize
from repro.telemetry import get_metrics, maybe_span


@dataclass(frozen=True)
class EvaluationResult:
    """Real QoR and hardware parameters of one configuration."""

    qor: float
    area: float
    delay: float
    power: float

    @property
    def energy(self) -> float:
        return self.power * self.delay


class EvaluationEngine:
    """Caches benchmark inputs and golden outputs; evaluates configurations.

    ``scenarios`` lists ``extra``-input dicts (kernel coefficient sets for
    the generic Gaussian filter); each image is simulated under every
    scenario and the QoR is the mean SSIM over all runs, following the
    paper's protocol (§3).

    ``workers`` sets the default process count of :meth:`evaluate_many`
    (overridable per call); ``None`` falls back to ``REPRO_WORKERS`` and
    then to in-process evaluation.

    ``synth_cache`` plugs a second-level synthesis cache behind the
    in-memory memo: any object with ``get(memo_key)`` /
    ``put(memo_key, report)`` (e.g.
    :class:`repro.store.synth_cache.StoreSynthCache`, which persists
    reports in the experiment store and shares them across processes
    and runs).  It must be fork-safe and picklable for parallel
    ``evaluate_many``.
    """

    def __init__(
        self,
        accelerator: ImageAccelerator,
        images: Sequence[np.ndarray],
        scenarios: Optional[Sequence[Dict[str, int]]] = None,
        workers: Optional[int] = None,
        synth_cache=None,
    ):
        if not images:
            raise ValueError("need at least one benchmark image")
        self.accelerator = accelerator
        self.images = [np.asarray(img) for img in images]
        self.scenarios: List[Optional[Dict[str, int]]] = (
            list(scenarios) if scenarios else [None]
        )
        self.workers = (
            validate_workers(workers)
            if workers is not None
            else default_workers()
        )
        self.synth_cache = synth_cache
        self._program = accelerator.graph.compile()
        self._synth_memo: Dict[Tuple[Tuple[str, str], ...],
                               SynthesisReport] = {}
        self.synth_hits = 0
        self.synth_store_hits = 0
        self.synth_misses = 0

        shapes = {img.shape for img in self.images}
        self._uniform = len(shapes) == 1
        if self._uniform:
            self._build_stacked()
        else:
            self._build_per_run()

    # -- construction helpers -------------------------------------------------

    def _build_stacked(self) -> None:
        """Stack all runs into one batch; precompute golden SSIM stats.

        The batch is 3-D broadcastable — ``(images, 1, pixels)`` pixel
        stacks against ``(1, scenarios, 1)`` extra columns — so resident
        memory is one copy of the pixel data however many scenarios run.
        """
        stacked = self.accelerator.stack_runs(self.images, self.scenarios)
        # Mask once at build; every execute then skips the input masking.
        for name, _, mask in self._program.inputs:
            stacked[name] = stacked[name] & mask
        self._inputs = stacked
        self._batch_shape = (
            len(self.images),
            len(self.scenarios),
            int(self.images[0].size),
        )
        n_runs = len(self.images) * len(self.scenarios)
        self._run_shape = (n_runs,) + self.images[0].shape
        golden = self._execute_stack(None)
        self._ssim = BatchedSsim(golden)

    def _build_per_run(self) -> None:
        """Heterogeneous image shapes: keep the per-run compiled path."""
        acc = self.accelerator
        self._runs: List[Tuple[Dict[str, np.ndarray], BatchedSsim]] = []
        for image in self.images:
            window = acc.window_inputs(image)
            for extra in self.scenarios:
                inputs = dict(window)
                merged = acc.extra_inputs()
                if extra:
                    merged.update(extra)
                for name, value in merged.items():
                    inputs[name] = np.int64(value)
                golden = self._program.execute(inputs).reshape(
                    (1,) + image.shape
                )
                self._runs.append((inputs, BatchedSsim(golden)))

    def _execute_stack(self, assignment) -> np.ndarray:
        """One vectorised pass over the whole run batch."""
        out = self._program.execute(
            self._inputs, assignment, assume_masked=True
        )
        return np.reshape(
            np.broadcast_to(out, self._batch_shape), self._run_shape
        )

    # -- basic queries --------------------------------------------------------

    @property
    def run_count(self) -> int:
        """Number of (image, scenario) simulation runs per evaluation."""
        if self._uniform:
            return self._run_shape[0]
        return len(self._runs)

    def synth_stats(self) -> Dict[str, int]:
        """This process's synthesis cache counters (for run manifests)."""
        return {
            "synth_hits": self.synth_hits,
            "synth_store_hits": self.synth_store_hits,
            "synth_misses": self.synth_misses,
        }

    # -- QoR ------------------------------------------------------------------

    def qor_per_run(self, assignment: Dict[str, object]) -> np.ndarray:
        """SSIM of every (image, scenario) run under ``assignment``."""
        if self._uniform:
            return np.asarray(self._ssim(self._execute_stack(assignment)))
        scores = []
        for inputs, ssim_ref in self._runs:
            out = self._program.execute(inputs, assignment).reshape(
                ssim_ref.shape
            )
            scores.append(float(ssim_ref(out)[0]))
        return np.asarray(scores)

    def qor(self, assignment: Dict[str, object]) -> float:
        """Mean SSIM of the approximate output against the golden output."""
        return float(np.mean(self.qor_per_run(assignment)))

    # -- hardware -------------------------------------------------------------

    @staticmethod
    def _memo_key(
        records: Dict[str, ComponentRecord]
    ) -> Tuple[Tuple[str, str], ...]:
        return tuple(
            (op, record.name) for op, record in sorted(records.items())
        )

    def hardware(
        self, records: Dict[str, ComponentRecord]
    ) -> SynthesisReport:
        """Compose and synthesise the accelerator with ``records``.

        Reports are memoised on the record tuple: after dead-gate sweeps
        many configurations share composed netlists, and repeated
        evaluations of the same configuration (training-set overlaps,
        Pareto re-analysis) skip synthesis entirely.  A miss then falls
        through to ``synth_cache`` (when plugged), whose hits are
        adopted into the memo and counted in ``synth_store_hits`` —
        ``synth_misses`` counts *actual* synthesis runs only.  The
        counters track this process only; parallel ``evaluate_many``
        merges the workers' memo entries back but not their counters.
        """
        key = self._memo_key(records)
        cached = self._synth_memo.get(key)
        if cached is not None:
            self.synth_hits += 1
            get_metrics().inc("engine.synth_hits")
            return cached
        if self.synth_cache is not None:
            cached = self.synth_cache.get(key)
            if cached is not None:
                self.synth_store_hits += 1
                get_metrics().inc("engine.synth_store_hits")
                self._synth_memo[key] = cached
                return cached
        self.synth_misses += 1
        get_metrics().inc("engine.synth_misses")
        netlist = self.accelerator.to_netlist(records)
        rep = synthesize(netlist, in_place=True)
        self._synth_memo[key] = rep
        if self.synth_cache is not None:
            self.synth_cache.put(key, rep)
        return rep

    # -- combined -------------------------------------------------------------

    def evaluate(
        self, space: ConfigurationSpace, config: Configuration
    ) -> EvaluationResult:
        """Full analysis of one configuration (simulation + synthesis)."""
        get_metrics().inc("engine.evaluations")
        impls = space.assignment_callables(config)
        quality = self.qor(impls)
        rep = self.hardware(space.records(config))
        return EvaluationResult(
            qor=quality, area=rep.area, delay=rep.delay, power=rep.power
        )

    def evaluate_many(
        self,
        space: ConfigurationSpace,
        configs: Sequence[Configuration],
        workers: Optional[int] = None,
    ) -> List[EvaluationResult]:
        """Full analysis of a batch of configurations.

        Duplicates are analysed once.  Every unique configuration gets
        its own :meth:`evaluate`: in-process, or — with ``workers > 1``
        — in contiguous chunks on the shared process pool, unless the
        runtime's serial rule keeps the batch in-process (one usable
        core).  Both paths produce bit-identical results.
        """
        configs = [tuple(c) for c in configs]
        unique: Dict[Configuration, int] = {}
        for config in configs:
            if config not in unique:
                unique[config] = len(unique)
        ordered = list(unique)
        metrics = get_metrics()
        metrics.inc("engine.evaluate_batches")
        metrics.observe("engine.batch_size", len(configs))

        if workers is None:
            workers = self.workers
        else:
            workers = validate_workers(workers)
        with maybe_span(
            "engine.evaluate_many", cat="engine",
            args={"configs": len(configs), "unique": len(ordered)},
        ):
            if workers is None or len(ordered) < 2:
                results = [self.evaluate(space, c) for c in ordered]
            else:
                results = self._evaluate_parallel(space, ordered, workers)
        return [results[unique[c]] for c in configs]

    def _evaluate_parallel(
        self,
        space: ConfigurationSpace,
        configs: List[Configuration],
        workers: int,
    ) -> List[EvaluationResult]:
        # Contiguous chunks, a few per worker so stragglers even out.
        n_chunks = min(len(configs), workers * 4)
        chunks = [
            [configs[i] for i in part]
            for part in np.array_split(np.arange(len(configs)), n_chunks)
            if len(part)
        ]
        chunk_results = get_runtime().map(
            _evaluate_chunk,
            chunks,
            context=(self, space),
            workers=workers,
            label="evaluate_many",
        )
        flat: List[EvaluationResult] = []
        for part, memo_updates in chunk_results:
            flat.extend(part)
            # Adopt the workers' synthesis reports so later in-process
            # evaluations of the same configurations skip synthesis.
            for key, report in memo_updates.items():
                self._synth_memo.setdefault(key, report)
        return flat


def _evaluate_chunk(context, chunk: List[Configuration]):
    """Runtime task: analyse one chunk on the (shared) engine context."""
    engine, space = context
    known = set(engine._synth_memo)
    results = [engine.evaluate(space, config) for config in chunk]
    memo_updates = {
        key: report
        for key, report in engine._synth_memo.items()
        if key not in known
    }
    return results, memo_updates
