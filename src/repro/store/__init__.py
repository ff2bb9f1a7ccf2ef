"""Persistent experiment store: artifact cache, run ledger, resume.

The autoAx methodology front-loads expensive work — library
characterisation, thousands of synthesis runs, model fitting — that is
identical across many invocations.  This package makes that work
persistent and reusable across runs on one machine:

* :class:`~repro.store.artifacts.ArtifactStore` — a content-addressed
  blob cache (sqlite3 index + files, stdlib only).  Artifacts are keyed
  by the SHA-256 of their canonical inputs (library fingerprint + scale,
  accelerator dataflow graph, configuration record tuples, model name +
  training-set hash — see :mod:`~repro.store.hashing`), written via
  atomic rename so concurrent readers and writers never observe a torn
  blob, and read back through typed codecs (libraries, synthesis
  reports, QoR evaluation matrices, fitted models, operand profiles).
  Corrupt or stale entries are evicted and recomputed, never raised.
* :class:`~repro.store.ledger.RunLedger` — one JSON manifest per
  pipeline invocation (params, seed, config hash, per-stage timings and
  cache hits, artifact refs) under ``<root>/runs/``; the basis of the
  ``repro runs list|show|resume|gc`` CLI and of garbage collection
  (``gc`` keeps exactly the artifacts some manifest references).
* resumable pipelines — ``AutoAx.run()`` decomposes into cache-aware
  stages (characterize -> reduce -> train -> DSE -> real-evaluate) that
  skip any stage whose inputs hash to a stored artifact, and the
  evaluation engine's synthesis memo can be backed by
  :class:`~repro.store.synth_cache.StoreSynthCache` so reports are
  shared across processes and runs.

Disk layout — everything under ``REPRO_STORE_DIR`` (a path; the
spelling ``sqlite:PATH`` means the same), falling back to
``.repro-store``::

    index.sqlite3                       artifact index
    objects/<kind>/<k0k1>/<key>.<ext>   content-addressed blobs
    runs/<run_id>.json                  run-ledger manifests
"""

from repro.store.artifacts import (
    DEFAULT_STORE_DIR,
    STORE_ENV,
    ArtifactRef,
    ArtifactStore,
    atomic_write_bytes,
    default_store_dir,
    open_store,
    require_store,
)
from repro.store.hashing import (
    accelerator_fingerprint,
    canonical_json,
    content_hash,
    images_fingerprint,
    library_fingerprint,
    space_fingerprint,
)
from repro.store.ledger import MANIFEST_VERSION, RunLedger
from repro.store.synth_cache import (
    MemorySynthCache,
    StoreSynthCache,
    synth_cache_for,
)

__all__ = [
    "ArtifactRef",
    "ArtifactStore",
    "DEFAULT_STORE_DIR",
    "MANIFEST_VERSION",
    "MemorySynthCache",
    "RunLedger",
    "STORE_ENV",
    "StoreSynthCache",
    "accelerator_fingerprint",
    "atomic_write_bytes",
    "canonical_json",
    "content_hash",
    "default_store_dir",
    "images_fingerprint",
    "library_fingerprint",
    "open_store",
    "require_store",
    "space_fingerprint",
    "synth_cache_for",
]
