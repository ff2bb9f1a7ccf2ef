"""Layer spans for the traced run, recorded from outside ``src/``.

Each layer is timed at the call into its public function.  Those
functions are imported by name, so a wrapper replaces the name *where
the caller looks it up* (e.g. ``repro.core.pipeline.reduce_library``,
not ``repro.core.preprocessing.reduce_library``).  A target that no
longer exists raises, so a renamed layer fails the traced run instead of
silently dropping out of the attribution.

Spans stay in memory (name, start, end, parent, run id) and are written
once, at the end of the run, as the Chrome trace-event JSON that
``repro ... --trace`` emits.  The pipeline runs single-threaded at the
default settings, so one span stack per recorder is enough.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import resource
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from metrics import layer_summary, ratio, repeat_ratio, top_level_coverage


def _circuit_key(circuit) -> Tuple[str, int, str]:
    return (
        type(circuit).__name__,
        circuit.width,
        json.dumps(circuit.params(), sort_keys=True),
    )


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


#: (layer metric prefix, [(module, attribute path), ...], note).  A note
#: turns one call's arguments and result into span args, the counts the
#: layer ratios are made from.
BOUNDARIES = (
    ("library.build", [("repro.library.pipeline", "build_library")],
     lambda a, kw, r: {"store_hits": r.stats.store_hits,
                       "components": r.stats.components}),
    ("circuits.characterize",
     [("repro.library.component", "characterize_many")], None),
    ("circuits.build_lut",
     [("repro.circuits.characterization", "build_lut"),
      ("repro.library.component", "build_lut")],
     lambda a, kw, r: {"circuit": list(_circuit_key(
         _arg(a, kw, 0, "circuit")))}),
    ("accelerators.profile",
     [("repro.core.pipeline", "profile_accelerator")], None),
    ("preprocessing.reduce", [("repro.core.pipeline", "reduce_library")],
     None),
    ("modeling.training_set",
     [("repro.core.pipeline", "build_training_set")], None),
    ("engine.evaluate_many",
     [("repro.core.engine", "EvaluationEngine.evaluate_many")],
     lambda a, kw, r: {"configs": len(_arg(a, kw, 2, "configs"))}),
    ("graph.execute", [("repro.accelerators.graph", "GraphProgram.execute")],
     None),
    ("graph.execute_batch",
     [("repro.accelerators.graph", "GraphProgram.execute_batch")], None),
    ("imaging.ssim", [("repro.imaging.metrics", "BatchedSsim.__call__"),
                      ("repro.imaging.metrics", "BatchedSsim.batch")], None),
    ("engine.hardware", [("repro.core.engine", "EvaluationEngine.hardware")],
     None),
    ("synthesis.synthesize", [("repro.core.engine", "synthesize")], None),
    ("modeling.fit", [("repro.core.pipeline", "fit_engines")], None),
    # Regressor.fit also runs for every tree inside a forest; the
    # recorder keeps only the outermost call of a name, so ``calls``
    # counts regressors, not trees.
    ("ml.fit", [("repro.ml.base", "Regressor.fit")], None),
    ("modeling.predict",
     [("repro.core.modeling", "EstimationModel.predict")], None),
    ("dse.pareto",
     [("repro.core.pipeline", "heuristic_pareto_construction")],
     lambda a, kw, r: {"evaluations": r.evaluations}),
    ("store.put", [("repro.store.artifacts", "ArtifactStore.put")], None),
    ("store.get", [("repro.store.artifacts", "ArtifactStore.get")],
     lambda a, kw, r: {"hit": r is not None}),
)

LAYERS = tuple(name for name, _, _ in BOUNDARIES)

#: Layers read from the traced warm re-run; all others from the cold run.
WARM_LAYERS = ("store.get",)


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class SpanRecorder:
    """In-memory spans of one run, written out as Chrome trace events."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.events: List[Dict] = []
        self._stack: List[str] = []
        self._open: Counter = Counter()
        self._ids = itertools.count(1)
        self._t0 = time.perf_counter()
        self._wall0_us = time.time_ns() / 1e3

    def wrap(self, name: str, fn: Callable, note: Optional[Callable]):
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # Re-entry into an open layer (a forest fitting its trees)
            # belongs to the outer call.
            if recorder._open[name]:
                return fn(*args, **kwargs)
            span_id = f"{os.getpid():x}.{next(recorder._ids)}"
            parent = recorder._stack[-1] if recorder._stack else None
            recorder._stack.append(span_id)
            recorder._open[name] += 1
            rss0 = _maxrss_kb()
            start = time.perf_counter()
            extra = None
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    extra = note(args, kwargs, result)
                return result
            finally:
                end = time.perf_counter()
                recorder._stack.pop()
                recorder._open[name] -= 1
                recorder._finish(name, span_id, parent, start, end,
                                 _maxrss_kb() - rss0, extra)

        return wrapper

    def _finish(self, name, span_id, parent, start, end, rss_kb, extra):
        args = {"span_id": span_id, "trace_id": self.run_id,
                "rss_growth_kb": rss_kb}
        if parent is not None:
            args["parent"] = parent
        if extra:
            args.update(extra)
        self.events.append({
            "name": name,
            "cat": name.split(".", 1)[0],
            "ph": "X",
            "ts": self._wall0_us + (start - self._t0) * 1e6,
            "dur": (end - start) * 1e6,
            "pid": os.getpid(),
            "tid": 0,
            "args": args,
        })

    def install(self) -> None:
        """Wrap every boundary of :data:`BOUNDARIES` in this process."""
        for name, targets, note in BOUNDARIES:
            for module_name, path in targets:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
                setattr(owner, attr, self.wrap(name, original, note))

    def write(self, path: Path) -> None:
        events = sorted(self.events, key=lambda e: e["ts"])
        Path(path).write_text(json.dumps({
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"trace_id": self.run_id},
        }) + "\n")


def load_events(path: Path) -> List[Dict]:
    return json.loads(Path(path).read_text())["traceEvents"]


def layer_metrics(
    cold_events: Sequence[Dict],
    warm_events: Sequence[Dict],
    traced_cold_s: float,
    untraced_cold_s: float,
) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric of a traced run: name -> (value, unit)."""
    cold = layer_summary(cold_events)
    warm = layer_summary(warm_events)
    out: Dict[str, Tuple[float, str]] = {}
    for layer in LAYERS:
        row = (warm if layer in WARM_LAYERS else cold).get(layer, {})
        out[f"{layer}.s"] = (row.get("s", 0.0), "s")
        out[f"{layer}.calls"] = (row.get("calls", 0), "count")
        out[f"{layer}.self_s"] = (row.get("self_s", 0.0), "s")
        out[f"{layer}.rss_mb"] = (row.get("rss_mb", 0.0), "MB")

    def notes(events, layer, key):
        return [e["args"][key] for e in events if e["name"] == layer]

    hits = sum(notes(cold_events, "library.build", "store_hits"))
    comps = sum(notes(cold_events, "library.build", "components"))
    out["library.build.memo_hit_ratio"] = (ratio(hits, comps), "ratio")
    luts = [tuple(k) for k in notes(cold_events, "circuits.build_lut",
                                    "circuit")]
    out["circuits.build_lut.repeat_ratio"] = (repeat_ratio(luts), "ratio")
    configs = sum(notes(cold_events, "engine.evaluate_many", "configs"))
    out["engine.evaluate_many.configs"] = (configs, "count")
    out["engine.evaluate_many.ms_per_config"] = (
        ratio(out["engine.evaluate_many.s"][0] * 1e3, configs), "ms")
    out["synthesis.miss_ratio"] = (
        ratio(out["synthesis.synthesize.calls"][0],
              out["engine.hardware.calls"][0]), "ratio")
    out["dse.pareto.evaluations"] = (
        sum(notes(cold_events, "dse.pareto", "evaluations")), "count")
    gets = notes(warm_events, "store.get", "hit")
    out["store.get.hit_ratio"] = (ratio(sum(gets), len(gets)), "ratio")
    out["trace.cold_s"] = (traced_cold_s, "s")
    out["trace.overhead_s"] = (traced_cold_s - untraced_cold_s, "s")
    out["trace.coverage"] = (
        top_level_coverage(cold_events, traced_cold_s), "ratio")
    return out
