"""Hand-worked checks of the benchmark's metric code.

    python3 -m pytest e2ebench/test_metrics.py -q
"""

import json
from pathlib import Path

import pytest

from layers import LAYERS, SpanRecorder, layer_metrics
from run import estimator_gaps, quality_metrics
from metrics import (
    est_gap_area,
    est_gap_qor,
    front_hv,
    hypervolume_2d,
    layer_summary,
    repeat_ratio,
    self_times,
    top_level_coverage,
)

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def span(name, sid, ts, dur, parent=None, **extra):
    args = {"span_id": sid, **extra}
    if parent is not None:
        args["parent"] = parent
    return {"name": name, "ts": ts, "dur": dur, "args": args}


def test_hypervolume_of_two_points():
    # Boxes [0.1,1]x[0.5,1] (0.45) and [0.5,1]x[0.2,1] (0.40) overlap
    # in [0.5,1]x[0.5,1] (0.25): 0.45 + 0.40 - 0.25.
    assert hypervolume_2d([(0.1, 0.5), (0.5, 0.2)]) == pytest.approx(0.60)


def test_hypervolume_ignores_dominated_and_out_of_box_points():
    base = hypervolume_2d([(0.1, 0.5), (0.5, 0.2)])
    more = hypervolume_2d(
        [(0.1, 0.5), (0.5, 0.2), (0.6, 0.6), (0.05, 1.2), (1.0, 0.0)]
    )
    assert more == pytest.approx(base)


def test_front_hv_normalises_area_by_the_exact_configuration():
    # (SSIM, area) -> (1 - SSIM, area / 100) = (0.1, 0.5), (0.5, 0.2).
    front = [(0.9, 50.0), (0.5, 20.0)]
    assert front_hv(front, exact_area=100.0) == pytest.approx(0.60)
    # Area units cancel: the same front in other units scores the same.
    doubled = [(q, 2 * a) for q, a in front]
    assert front_hv(doubled, exact_area=200.0) == pytest.approx(0.60)
    # A point larger than the exact design lies outside the box.
    assert front_hv([(0.9, 150.0)], exact_area=100.0) == 0.0
    with pytest.raises(ValueError):
        front_hv(front, exact_area=0.0)


def test_estimator_gaps():
    assert est_gap_qor([0.9, 0.5], [0.8, 0.6]) == pytest.approx(0.1)
    # (|110 - 100| + |45 - 50| + |3 - 0|) / 3, over the exact area 60;
    # a real area of 0 is allowed.
    assert est_gap_area([110.0, 45.0, 3.0], [100.0, 50.0, 0.0],
                        exact_area=60.0) == pytest.approx(0.1)
    with pytest.raises(ValueError):
        est_gap_qor([0.9], [0.8, 0.6])
    with pytest.raises(ValueError):
        est_gap_area([1.0], [1.0], exact_area=0.0)


def test_self_time_subtracts_nested_children():
    # A[0,100] holds B[10,40] and C[50,70]; B holds D[15,25] (µs).
    events = [
        span("a", "A", 0, 100),
        span("b", "B", 10, 30, parent="A"),
        span("c", "C", 50, 20, parent="A"),
        span("d", "D", 15, 10, parent="B"),
    ]
    own = self_times(events)
    assert own["A"] == pytest.approx(50e-6)
    assert own["B"] == pytest.approx(20e-6)
    assert own["C"] == pytest.approx(20e-6)
    assert own["D"] == pytest.approx(10e-6)


def test_self_time_counts_overlapping_children_once():
    events = [
        span("a", "A", 0, 100),
        span("b", "B", 10, 30, parent="A"),
        span("b", "C", 20, 30, parent="A"),
    ]
    assert self_times(events)["A"] == pytest.approx(60e-6)


def test_layer_summary_and_coverage():
    events = [
        span("a", "A", 0, 100, rss_growth_kb=2048),
        span("b", "B", 10, 30, parent="A"),
        span("b", "C", 50, 20, parent="A", rss_growth_kb=1024),
        span("e", "E", 200, 50),
    ]
    rows = layer_summary(events)
    assert rows["b"]["calls"] == 2
    assert rows["b"]["s"] == pytest.approx(50e-6)
    assert rows["a"]["self_s"] == pytest.approx(50e-6)
    assert rows["a"]["rss_mb"] == pytest.approx(2.0)
    assert rows["b"]["rss_mb"] == pytest.approx(1.0)
    # Top level covers [0,100] and [200,250] of 200 µs.
    assert top_level_coverage(events, 200e-6) == pytest.approx(0.75)


def test_repeat_ratio():
    assert repeat_ratio(["x", "y", "x", "y"]) == 2.0
    assert repeat_ratio(["x", "y", "z"]) == 1.0
    assert repeat_ratio([]) == 0.0


def test_recorder_links_parents_and_keeps_the_outer_reentrant_call():
    recorder = SpanRecorder("run")

    def leaf(n):
        return n

    def outer(n):
        return wrapped_leaf(n) + (wrapped_outer(n - 1) if n else 0)

    wrapped_leaf = recorder.wrap("leaf", leaf, None)
    wrapped_outer = recorder.wrap(
        "outer", outer, lambda a, kw, r: {"n": a[0]})
    assert wrapped_outer(2) == 3
    names = sorted(e["name"] for e in recorder.events)
    assert names == ["leaf", "leaf", "leaf", "outer"]
    (top,) = [e for e in recorder.events if e["name"] == "outer"]
    assert "parent" not in top["args"] and top["args"]["n"] == 2
    assert all(e["args"]["parent"] == top["args"]["span_id"]
               for e in recorder.events if e["name"] == "leaf")
    assert all(e["args"]["trace_id"] == "run" for e in recorder.events)


def test_layer_metrics_match_the_declared_per_layer_metrics():
    cold = [
        span("library.build", "1", 0, 100, store_hits=1, components=4),
        span("circuits.build_lut", "2", 10, 10, parent="1",
             circuit=["Add", 8, "{}"]),
        span("circuits.build_lut", "3", 30, 10, parent="1",
             circuit=["Add", 8, "{}"]),
        span("engine.evaluate_many", "4", 200, 400, configs=8),
        span("engine.hardware", "5", 210, 10, parent="4"),
        span("engine.hardware", "6", 230, 10, parent="4"),
        span("synthesis.synthesize", "7", 231, 5, parent="6"),
        span("dse.pareto", "8", 700, 100, evaluations=10000),
    ]
    warm = [span("store.get", "9", 0, 10, hit=True),
            span("store.get", "10", 20, 10, hit=False)]
    out = layer_metrics(cold, warm, traced_cold_s=1e-3,
                        untraced_cold_s=0.8e-3)
    assert out["library.build.memo_hit_ratio"][0] == pytest.approx(0.25)
    assert out["circuits.build_lut.repeat_ratio"][0] == 2.0
    assert out["engine.evaluate_many.ms_per_config"][0] == pytest.approx(
        0.4 / 8)
    assert out["synthesis.miss_ratio"][0] == 0.5
    assert out["dse.pareto.evaluations"][0] == 10000
    assert out["store.get.hit_ratio"][0] == 0.5
    assert out["trace.overhead_s"][0] == pytest.approx(0.2e-3)
    assert out["trace.coverage"][0] == pytest.approx(0.6)
    out.update(estimator_gaps(COLD))
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: u for k, (_, u) in out.items()} == declared
    assert {name.rsplit(".", 1)[0] for name in declared} >= set(LAYERS)


#: A cold child's quality record: a two-point front and a two-config
#: pseudo-Pareto set, with the all-exact design at area 100.
COLD = {
    "front": [[0.9, 50.0], [0.5, 20.0]],
    "exact_area": 100.0,
    "qor_fidelity": 0.8,
    "area_fidelity": 0.9,
    "pseudo_predicted": [[0.9, 60.0], [0.5, 20.0]],
    "pseudo_real": [[0.8, 50.0], [0.6, 10.0]],
}


def test_quality_metrics_and_estimator_gaps_of_a_cold_run():
    quality = quality_metrics(COLD)
    assert quality["front_hv"][0] == pytest.approx(0.60)
    assert quality["qor_fidelity"][0] == 0.8
    gaps = estimator_gaps(COLD)
    assert gaps["modeling.est_gap_qor"][0] == pytest.approx(0.1)
    # (|60 - 50| + |20 - 10|) / 2 over the exact area 100.
    assert gaps["modeling.est_gap_area"][0] == pytest.approx(0.1)
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    timing = {"cold_s", "cold_cpu_s", "warm_s", "setup_s", "peak_rss_mb"}
    assert set(declared) == timing | set(quality)
    assert all(declared[k] == u for k, (_, u) in quality.items())


def test_design_record_makes_no_claim_and_covers_every_layer():
    design = json.loads((HERE / "design.json").read_text())
    assert design["claim"] is None
    assert set(design["workloads"]) == {w["name"] for w in
                                        BENCHMARK["workloads"]}
    table = " ".join(row["layer_metrics"] for row in design["layer_table"])
    assert all(layer in table for layer in LAYERS)
