"""Pure metric code of the end-to-end benchmark (no numpy, no repro).

Everything here works on plain lists and dicts, so the benchmark parent
process stays small and every formula can be tested on hand-worked
inputs (``e2ebench/test_metrics.py``).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

Point = Tuple[float, float]


# -- result quality ----------------------------------------------------------


def hypervolume_2d(points: Iterable[Point], ref: Point = (1.0, 1.0)) -> float:
    """Area dominated by ``points`` inside the box up to ``ref``.

    Both objectives are minimised.  Points on or beyond the reference in
    either objective dominate nothing inside the box and are ignored.
    """
    inside = sorted(
        (x, y) for x, y in points if x < ref[0] and y < ref[1]
    )
    volume = 0.0
    best_y = ref[1]
    # Sweep by increasing x; a point only adds area below the lowest y
    # seen so far, as a slab reaching to the reference x.
    for x, y in inside:
        if y < best_y:
            volume += (ref[0] - x) * (best_y - y)
            best_y = y
    return volume


def front_hv(front: Iterable[Point], exact_area: float) -> float:
    """Hypervolume of a final (SSIM, area) front, paper orientation.

    Each point becomes ``(1 - SSIM, area / exact_area)``, with
    ``exact_area`` the area of the all-exact configuration, and the
    volume is taken against the reference ``(1, 1)``: a front that
    reached SSIM 1 at zero area would score 1.
    """
    if exact_area <= 0:
        raise ValueError("exact_area must be positive")
    return hypervolume_2d(
        (1.0 - ssim, area / exact_area) for ssim, area in front
    )


def est_gap_qor(predicted: Sequence[float], real: Sequence[float]) -> float:
    """Mean absolute gap between predicted and real SSIM."""
    _check_pairs(predicted, real)
    return sum(abs(p - r) for p, r in zip(predicted, real)) / len(real)


def est_gap_area(
    predicted: Sequence[float], real: Sequence[float], exact_area: float
) -> float:
    """Mean gap between predicted and real area, relative to the area of
    the all-exact configuration (a real area may be 0, so it cannot be
    the base)."""
    _check_pairs(predicted, real)
    if exact_area <= 0:
        raise ValueError("exact_area must be positive")
    return sum(abs(p - r) for p, r in zip(predicted, real)) / (
        len(real) * exact_area
    )


def _check_pairs(predicted: Sequence[float], real: Sequence[float]) -> None:
    if len(predicted) != len(real) or not real:
        raise ValueError("need equally long, non-empty value lists")


# -- layer attribution -------------------------------------------------------


def repeat_ratio(keys: Sequence[object]) -> float:
    """Calls per distinct key (1.0 means no call repeated work)."""
    if not keys:
        return 0.0
    return len(keys) / len(set(keys))


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(events: Sequence[Dict]) -> Dict[str, float]:
    """Span id -> duration minus the part its child spans cover.

    ``events`` are Chrome complete events (``ts``/``dur`` in
    microseconds) whose ``args`` carry ``span_id`` and, below the top
    level, ``parent``.  Children are clipped to their parent's interval,
    and overlapping children count once.
    """
    children: Dict[str, List[Tuple[float, float]]] = {}
    bounds: Dict[str, Tuple[float, float]] = {}
    for event in events:
        sid = event["args"]["span_id"]
        bounds[sid] = (event["ts"], event["ts"] + event["dur"])
    for event in events:
        parent = event["args"].get("parent")
        if parent is not None:
            children.setdefault(parent, []).append(
                (event["ts"], event["ts"] + event["dur"])
            )
    result = {}
    for sid, (lo, hi) in bounds.items():
        clipped = [
            (max(a, lo), min(b, hi))
            for a, b in children.get(sid, [])
            if min(b, hi) > max(a, lo)
        ]
        result[sid] = (hi - lo - _union_length(clipped)) / 1e6
    return result


def top_level_coverage(events: Sequence[Dict], total_s: float) -> float:
    """Share of ``total_s`` covered by spans that have no parent."""
    intervals = [
        (e["ts"], e["ts"] + e["dur"])
        for e in events
        if e["args"].get("parent") is None
    ]
    return _union_length(intervals) / 1e6 / total_s


def layer_summary(events: Sequence[Dict]) -> Dict[str, Dict[str, float]]:
    """Per span name: total ``s``, ``calls``, ``self_s`` and ``rss_mb``.

    ``rss_mb`` sums the growth of the process's peak RSS across each
    call (``args.rss_growth_kb``).
    """
    own = self_times(events)
    summary: Dict[str, Dict[str, float]] = {}
    for event in events:
        row = summary.setdefault(
            event["name"],
            {"s": 0.0, "calls": 0, "self_s": 0.0, "rss_mb": 0.0},
        )
        row["s"] += event["dur"] / 1e6
        row["calls"] += 1
        row["self_s"] += own[event["args"]["span_id"]]
        row["rss_mb"] += event["args"].get("rss_growth_kb", 0) / 1024.0
    return summary


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0 when nothing was counted."""
    if not denominator:
        return 0.0
    return numerator / denominator
