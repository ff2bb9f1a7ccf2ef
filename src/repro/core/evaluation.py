"""Real (reference) evaluation of configurations — simulation + synthesis.

This is the expensive path the estimation models replace during search:
QoR is measured by running the accelerator's software model over benchmark
images and averaging SSIM against the accurate output, and hardware cost
by composing the component netlists and synthesising the result.

The implementation lives in :mod:`repro.core.engine`:
:class:`AcceleratorEvaluator` is the historical name of (and a drop-in
alias for) :class:`~repro.core.engine.EvaluationEngine`, which compiles
the accelerator graph, batches all (image x scenario) runs into one
vectorised pass, memoises synthesis, and analyses configuration batches
one configuration at a time (``evaluate_many`` runs the serial loop or,
when more than one worker would be busy, process-pool chunks — both
bit-identical).
"""

from __future__ import annotations

from repro.core.engine import EvaluationEngine, EvaluationResult

__all__ = ["AcceleratorEvaluator", "EvaluationResult"]


class AcceleratorEvaluator(EvaluationEngine):
    """Backward-compatible alias of :class:`EvaluationEngine`.

    Kept so existing imports, fixtures and pickles keep working; new code
    should construct :class:`EvaluationEngine` directly (e.g. via
    :func:`repro.experiments.setup.build_engine`).
    """
