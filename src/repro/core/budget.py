"""Exact evaluation-budget accounting for design-space exploration.

The paper's Table 4 compares search algorithms *at matched
model-evaluation budgets*, so an evaluation that is estimated but never
consumed (e.g. the tail of a candidate batch discarded after an accepted
hill-climbing move) still costs one model call and must be counted.  The
seed implementation kept the counter next to the consumption loop and
silently dropped those tails; this module closes that bug class by
construction:

* :class:`EvaluationBudget` is the single ledger of model calls.  It is
  charged *before* the models run and refuses (raises
  :class:`~repro.errors.BudgetExceededError`) to go negative, so no code
  path can issue more model calls than the budget allows.
* :class:`MeteredEstimator` is the only sanctioned way for a search
  strategy to invoke the QoR/HW estimation models: every configuration
  that reaches ``predict`` is charged exactly once (one *evaluation* =
  one configuration estimated by both the QoR and the hardware model,
  the paper's unit).

One budget can be shared by several strategies (the portfolio runner
hands each island a slice); each strategy's own spend is the estimator's
``count``.

``MeteredEstimator`` can also fan prediction batches out to worker
processes (``workers``): chunks are predicted in parallel and
concatenated in submission order, so results are bit-identical to the
serial path for any row-independent regressor.
"""

from __future__ import annotations

import math
import threading
from typing import Optional

import numpy as np

from repro.errors import BudgetExceededError, DSEError
from repro.telemetry import get_metrics


class EvaluationBudget:
    """A hard cap on model evaluations, charged before the models run.

    ``total=None`` means unlimited (spend is still tracked).  ``grant``
    answers "how many of ``requested`` may I still estimate?" without
    reserving anything; ``charge`` commits the spend and raises when it
    would exceed the cap — callers are expected to ``grant`` first and
    size their batch accordingly.

    The ledger is **thread-safe**: one budget may be shared by several
    coordinator threads (the serving layer meters every API key through
    one budget).  ``charge`` is atomic under an internal lock, and
    concurrent grant-then-charge callers should use :meth:`reserve`,
    which grants and commits in one locked step — two threads
    interleaving ``grant``/``charge`` could otherwise both observe the
    same ``remaining`` and jointly overspend the exact-accounting
    contract.
    """

    __slots__ = ("total", "_spent", "_lock")

    def __init__(self, total: Optional[int] = None):
        if total is not None:
            total = int(total)
            if total < 1:
                raise DSEError("evaluation budget must be >= 1")
        self.total = total
        self._spent = 0
        self._lock = threading.Lock()

    # Budgets travel inside worker-task payloads (portfolio islands);
    # locks do not pickle, so rebuild one on the other side.
    def __getstate__(self):
        return {"total": self.total, "spent": self._spent}

    def __setstate__(self, state):
        self.total = state["total"]
        self._spent = state["spent"]
        self._lock = threading.Lock()

    @property
    def spent(self) -> int:
        """Model evaluations charged so far."""
        return self._spent

    @property
    def remaining(self) -> float:
        """Evaluations left (``inf`` for an unlimited budget)."""
        if self.total is None:
            return math.inf
        return self.total - self._spent

    @property
    def exhausted(self) -> bool:
        return self.remaining <= 0

    def grant(self, requested: int) -> int:
        """Largest batch size <= ``requested`` the budget still allows."""
        if requested < 0:
            raise DSEError("cannot request a negative batch")
        return int(min(requested, max(0, self.remaining)))

    def charge(self, count: int) -> None:
        """Commit ``count`` evaluations; raise instead of overdrawing."""
        if count < 0:
            raise DSEError("cannot charge a negative evaluation count")
        with self._lock:
            if (
                self.total is not None
                and self._spent + count > self.total
            ):
                raise BudgetExceededError(
                    f"charging {count} evaluations would exceed the "
                    f"budget ({self._spent}/{self.total} spent)"
                )
            self._spent += count

    def reserve(self, requested: int) -> int:
        """Atomically grant *and* charge up to ``requested`` evaluations.

        Returns the number actually committed (possibly 0 when the
        budget is exhausted).  This is the concurrency-safe form of the
        ``grant``-then-``charge`` idiom: the check and the commit happen
        under one lock, so N threads hammering one budget can never
        jointly spend past ``total``.
        """
        if requested < 0:
            raise DSEError("cannot request a negative batch")
        with self._lock:
            if self.total is None:
                granted = int(requested)
            else:
                granted = int(
                    min(requested, max(0, self.total - self._spent))
                )
            self._spent += granted
            return granted

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        cap = "inf" if self.total is None else str(self.total)
        return f"<EvaluationBudget {self._spent}/{cap}>"


#: Minimum rows per parallel prediction chunk — below this the IPC
#: overhead dwarfs the prediction work.
_MIN_CHUNK = 64


def _predict_chunk(context, genomes: np.ndarray) -> np.ndarray:
    """Runtime task: fused QoR + hardware predict of one genome chunk."""
    qor_model, hw_model = context
    return np.stack(
        [qor_model.predict(genomes), hw_model.predict(genomes)], axis=1
    )


class MeteredEstimator:
    """Budget-charging gateway to the QoR and hardware estimation models.

    ``estimate(configs)`` returns the ``(n, 2)`` array of
    ``(estimated QoR, estimated cost)`` rows and charges ``n``
    evaluations to the budget *first* — a batch that would overdraw the
    budget raises before any model call is issued.

    Each batch runs both models through one fused pass over a genome
    matrix built once.  With ``workers > 1`` large batches are chunked
    through the shared :class:`~repro.core.runtime.ParallelRuntime`
    (models published to the persistent pool via shared memory; chunk
    results concatenate in submission order, so the output is
    bit-identical to the serial path for any row-independent
    regressor).  :meth:`close` remains for API compatibility; the pool is
    process-wide and outlives the estimator.
    """

    def __init__(
        self,
        qor_model,
        hw_model,
        budget: Optional[EvaluationBudget] = None,
        workers: Optional[int] = None,
    ):
        self.qor_model = qor_model
        self.hw_model = hw_model
        self.budget = budget if budget is not None else EvaluationBudget()
        self.count = 0  # configurations this estimator charged
        self.calls = 0  # estimate() invocations
        self._workers = workers if workers and workers > 1 else None
        # Guards the charge-then-count sequence: concurrent estimate()
        # callers must observe spend == count at every instant, and two
        # threads must never interleave their budget checks.
        self._meter_lock = threading.Lock()

    def __getstate__(self):
        state = {
            slot: getattr(self, slot)
            for slot in self.__dict__
            if slot != "_meter_lock"
        }
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._meter_lock = threading.Lock()

    # -- lifecycle (the pool is owned by the shared runtime) -----------------

    def close(self) -> None:
        """Kept for API compatibility; the shared pool persists."""

    def __enter__(self) -> "MeteredEstimator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- estimation ----------------------------------------------------------

    def estimate(self, configs) -> np.ndarray:
        """Charge and estimate a batch of configurations."""
        n = len(configs)
        if n == 0:
            return np.empty((0, 2), dtype=float)
        with self._meter_lock:
            self.budget.charge(n)
            self.count += n
            self.calls += 1
        metrics = get_metrics()
        metrics.inc("search.evaluations", n)
        metrics.inc("search.estimate_calls")
        metrics.observe("search.estimate_batch", n)
        # One genome matrix for the whole generation; both models (and
        # any parallel chunks) predict from the same compiled array.
        genomes = np.asarray(configs)
        if self._workers and n >= 2 * _MIN_CHUNK:
            from repro.core.runtime import get_runtime

            n_chunks = min(self._workers * 2, n // _MIN_CHUNK)
            chunks = np.array_split(genomes, max(1, n_chunks))
            return np.vstack(
                get_runtime().map(
                    _predict_chunk,
                    chunks,
                    context=(self.qor_model, self.hw_model),
                    workers=self._workers,
                    label="model-predict",
                )
            )
        return _predict_chunk((self.qor_model, self.hw_model), genomes)
