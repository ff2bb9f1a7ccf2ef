"""Cross-process aggregation: worker metrics/spans ride the piggyback.

The contract under test: metrics recorded inside ``ParallelRuntime``
worker processes land in the *parent's* registry (exact counts, merged
histograms) and worker spans stitch under the submitting batch span —
for both start methods — while results stay bit-identical to the
serial path with telemetry and tracing enabled.
"""

import pickle

import pytest

from repro.core import runtime as rt
from repro.core.runtime import ParallelRuntime, get_runtime, reset_runtime
from repro.telemetry import get_metrics
from repro.telemetry.tracing import (
    Tracer,
    install_tracer,
    uninstall_tracer,
)


@pytest.fixture(autouse=True)
def two_cores(monkeypatch):
    """Let ``workers=2`` reach the pool on any host."""
    monkeypatch.setattr(rt, "usable_cores", lambda: 2)


@pytest.fixture()
def fresh_runtime():
    reset_runtime()
    yield get_runtime()
    reset_runtime()


@pytest.fixture()
def tracer():
    t = install_tracer(Tracer())
    yield t
    uninstall_tracer()


def _metric_task(context, n):
    get_metrics().inc("wd.tasks")
    get_metrics().observe("wd.values", float(n))
    return n * n


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_worker_metrics_aggregate(start_method, fresh_runtime):
    reset_runtime()
    rt._RUNTIME = ParallelRuntime(start_method=start_method)
    runtime = get_runtime()
    assert runtime.start_method == start_method
    tasks = list(range(8))
    metrics = get_metrics()
    mark = metrics.mark()
    before = metrics.snapshot()["histograms"].get(
        "wd.values", {"count": 0, "sum": 0.0}
    )

    out = runtime.map(_metric_task, tasks, workers=2)

    assert out == [n * n for n in tasks]
    assert runtime.stats["parallel_batches"] == 1
    snap = metrics.snapshot(since=mark)
    # every task counted exactly once, wherever it ran
    assert snap["counters"]["wd.tasks"] == len(tasks)
    after = snap["histograms"]["wd.values"]
    assert after["count"] - before["count"] == len(tasks)
    assert after["sum"] - before["sum"] == float(sum(tasks))


def test_worker_spans_stitch_under_batch(fresh_runtime, tracer):
    tasks = list(range(6))
    out = fresh_runtime.map(_metric_task, tasks, workers=2)
    assert out == [n * n for n in tasks]

    events = tracer.events()
    (batch,) = [e for e in events if e["cat"] == "runtime"]
    assert batch["name"] == "runtime._metric_task"
    worker_spans = [e for e in events if e["cat"] == "worker"]
    # every task ran in the pool and got a worker span
    assert len(worker_spans) == len(tasks)
    for event in worker_spans:
        assert event["name"] == "task:_metric_task"
        assert event["args"]["parent"] == batch["args"]["span_id"]
        assert event["args"]["trace_id"] == tracer.trace_id


def test_results_identical_with_and_without_telemetry(fresh_runtime):
    tasks = list(range(10))
    plain = fresh_runtime.map(_metric_task, tasks, workers=2)

    reset_runtime()
    tracer = install_tracer(Tracer())
    try:
        traced = get_runtime().map(_metric_task, tasks, workers=2)
    finally:
        uninstall_tracer()
    assert pickle.dumps(traced) == pickle.dumps(plain)
    assert tracer.events()  # tracing actually happened
