"""The one cached-stage primitive of the experiment store.

Every stage of :meth:`repro.core.pipeline.AutoAx.run` and the
whole-library blob cache of :mod:`repro.experiments.setup` is the same
get-or-compute step: hash the stage's inputs into a key, decode the
stored artifacts under that key, and on a miss compute, encode and
store them.  :class:`CachedStages` owns that step and the per-stage
bookkeeping around it (timings, ``"hit"``/``"miss"``/``"off"``
outcomes, manifest stage records, ``pipeline.*`` metrics and trace
events), so callers only supply a key payload and compute/encode/decode.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.store.hashing import content_hash
from repro.telemetry import complete_event, get_metrics


def _identity(value):
    return value


class CachedStages:
    """Get-or-compute over an optional store, recording each stage.

    With ``store=None`` nothing is hashed, read or written: every
    computation runs and every stage is recorded as ``"off"``.
    """

    def __init__(self, store=None) -> None:
        self.store = store
        #: stage name -> wall seconds / cache outcome, in run order
        self.timings: Dict[str, float] = {}
        self.cache: Dict[str, str] = {}
        #: manifest stage records (name, seconds, cache, artifacts)
        self.records: List[Dict] = []
        self._open: Optional[Tuple[List[Dict], List[bool]]] = None

    def key(self, payload: Callable[[], object]) -> Optional[str]:
        """Content hash of ``payload()``; ``None`` (and no call) without
        a store, so key inputs are only fingerprinted when used."""
        return None if self.store is None else content_hash(payload())

    @contextmanager
    def stage(self, name: str):
        """Time and record the :meth:`cached` calls made inside.

        The stage is a ``"hit"`` only if every artifact it asked for
        was decoded from the store.  A stage that raises records
        nothing.
        """
        start = time.perf_counter()
        self._open = artifacts, hits = [], []
        try:
            yield
        finally:
            self._open = None
        seconds = time.perf_counter() - start
        cache = "off" if self.store is None else (
            "hit" if all(hits) else "miss"
        )
        self.timings[name] = seconds
        self.cache[name] = cache
        self.records.append({"name": name, "seconds": round(seconds, 6),
                             "cache": cache, "artifacts": artifacts})
        metrics = get_metrics()
        metrics.observe(f"pipeline.stage_seconds.{name}", seconds)
        metrics.inc(f"pipeline.stage_{cache}")
        complete_event(
            f"pipeline.{name}", seconds, cat="pipeline",
            args={"cache": cache},
        )

    def cached(
        self,
        kinds: Union[str, Tuple[str, ...]],
        key_payload: Callable[[], object],
        compute: Callable[[], object],
        encode: Callable = _identity,
        decode: Callable = _identity,
        meta: Optional[Callable[[object], Dict]] = None,
    ):
        """``(value, key)`` of one artifact set, decoded or computed.

        ``kinds`` is one artifact kind, or a tuple of kinds stored under
        the same key; then ``encode`` returns one object per kind and
        ``decode`` takes them as arguments.  Every kind is read before
        deciding; a missing artifact, or ``decode`` returning ``None``
        (the artifact no longer matches its caller), is a miss that
        recomputes and overwrites.  ``meta(value)`` annotates the
        stored index rows.
        """
        single = isinstance(kinds, str)
        if single:
            kinds = (kinds,)
        key = self.key(key_payload)
        value = None
        if key is not None:
            stored = [self.store.get(kind, key) for kind in kinds]
            if all(obj is not None for obj in stored):
                value = decode(*stored)
        hit = value is not None
        if not hit:
            value = compute()
            if key is not None:
                encoded = encode(value)
                row = None if meta is None else meta(value)
                for kind, obj in zip(kinds, (encoded,) if single
                                     else encoded):
                    self.store.put(kind, key, obj, meta=row)
        if self._open is not None and key is not None:
            artifacts, hits = self._open
            artifacts.extend({"kind": kind, "key": key} for kind in kinds)
            hits.append(hit)
        return value, key
