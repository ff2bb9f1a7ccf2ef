"""Independent re-scoring of final-front configurations.

The pipeline scores SSIM through the compiled ``GraphProgram`` with
gathered component LUTs and the batched SSIM.  The oracle takes none of
those paths: it runs the per-node interpreter
(``DataflowGraph.evaluate_interpreted``) with each component's
behavioural model (``circuit.evaluate``) and scores every run with the
scalar ``imaging.metrics.ssim``.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.imaging.metrics import ssim

#: Largest |oracle - reported| SSIM accepted.  The two paths run the same
#: integer arithmetic and the same Gaussian window; only the order of the
#: floating-point reductions differs.
TOLERANCE = 1e-9


def _behavioural(record):
    circuit = record.circuit

    def impl(a, b):
        return circuit.evaluate(a, b)

    return impl


def oracle_ssim(accelerator, images, scenarios, records) -> float:
    """Mean SSIM over every (image, scenario) run of one assignment."""
    graph = accelerator.graph
    assignment = {name: _behavioural(r) for name, r in records.items()}
    scores = []
    for image in images:
        window = accelerator.window_inputs(image)
        for extra in scenarios or [None]:
            inputs = dict(window)
            merged = accelerator.extra_inputs()
            merged.update(extra or {})
            for name, value in merged.items():
                inputs[name] = np.full(image.size, int(value), np.int64)
            golden = graph.evaluate_interpreted(inputs)
            approx = graph.evaluate_interpreted(inputs, assignment)
            scores.append(
                ssim(golden.reshape(image.shape), approx.reshape(image.shape))
            )
    return float(np.mean(scores))


def rescore_front(setup, result, count: int) -> List[Dict]:
    """Oracle SSIM of up to ``count`` configs spread along the front."""
    n = len(result.final_configs)
    picks = sorted({round(i * (n - 1) / max(count - 1, 1))
                    for i in range(count)})
    rows = []
    for i in picks:
        config = result.final_configs[i]
        reported = float(result.final_points[i][0])
        rescored = oracle_ssim(
            setup.accelerator, setup.images, setup.scenarios,
            result.space.records(config),
        )
        rows.append({
            "config": list(config),
            "reported": reported,
            "oracle": rescored,
            "ok": abs(rescored - reported) <= TOLERANCE,
        })
    return rows
