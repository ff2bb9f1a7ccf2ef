"""Content-addressed artifact cache: sqlite3 index + file blobs.

Layout on disk (everything under one *store root*)::

    <root>/
      index.sqlite3             -- (kind, key) -> blob metadata
      objects/<kind>/<k0k1>/<key>.<ext>   -- the blobs themselves
      runs/<run_id>.json        -- run-ledger manifests (ledger.py)

Writes are crash- and concurrency-safe without locks: blobs land via
write-to-temp + :func:`os.replace` (atomic on POSIX within one
filesystem), and the sqlite index is only ever told about a blob after
the rename.  Readers verify the blob's SHA-256 against the index row and
treat any mismatch, truncation or decode failure as a cache miss — the
offending entry is evicted and the caller recomputes.  A blob without an
index row (a writer died between rename and insert, or two processes
raced) is adopted back into the index on first read.

Typed codecs translate domain objects to blob bytes per *kind*:
libraries share the JSON format of :mod:`repro.library.io`, synthesis
reports and QoR evaluation matrices are canonical JSON, fitted models
and operand profiles are pickles (stdlib, local trusted cache).
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import sqlite3
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import StoreError, ValidationError
from repro.telemetry import get_metrics
from repro.utils.validation import check_env_dir

#: Environment knob: the store root.
STORE_ENV = "REPRO_STORE_DIR"

#: Default store root in the working tree.
DEFAULT_STORE_DIR = ".repro-store"

#: Prefix of in-flight temp files (pre-rename); gc must never touch them.
_TMP_PREFIX = ".tmp-"

#: Root manifest that earlier releases wrote for non-default layouts
#: (hash-sharded trees).  Such a root is refused, never opened as a
#: plain store on top of its shards.
_LAYOUT_MANIFEST = "store-manifest.json"

#: Store locations of backends that no longer exist.  They raise
#: instead of silently becoming a local directory named ``sharded:``.
_REMOVED_SCHEMES = ("sharded:", "http://", "https://")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS artifacts (
    kind TEXT NOT NULL,
    key TEXT NOT NULL,
    filename TEXT NOT NULL,
    sha256 TEXT NOT NULL,
    size INTEGER NOT NULL,
    created_at REAL NOT NULL,
    meta TEXT NOT NULL DEFAULT '{}',
    PRIMARY KEY (kind, key)
)
"""

#: sqlite connections inherited across ``fork`` are parked here instead
#: of being closed: sqlite3 forbids touching (even closing) a
#: connection from a process other than the one that created it, so a
#: forked child must never finalise the parent's handle — the same
#: discipline as the runtime's pid-guarded shared-memory segments,
#: which forked children never unlink.
_FORK_PARKED_CONNS: List[sqlite3.Connection] = []


def default_store_dir() -> Path:
    """Resolve the store root: ``REPRO_STORE_DIR``, then ``.repro-store``.

    A set-but-blank value is a configuration error (see
    :func:`~repro.utils.validation.check_env_dir`), not a silent
    fallback.
    """
    return _store_root(_env_store_root())


def _env_store_root() -> str:
    value = os.environ.get(STORE_ENV)
    if value is None:
        return DEFAULT_STORE_DIR
    return check_env_dir(value, source=STORE_ENV)


def _store_root(target) -> Path:
    """The local root named by a path or a ``sqlite:PATH`` string.

    ``sqlite:PATH`` is accepted as a spelling of ``PATH`` (it is what
    :attr:`ArtifactStore.uri` prints).  The removed ``sharded:`` and
    ``http(s)://`` backends and empty locations raise
    :class:`~repro.errors.ValidationError`.
    """
    if isinstance(target, Path):
        return target
    text = str(target).strip()
    if text.startswith("sqlite:"):
        text = text[len("sqlite:"):]
    elif text.startswith(_REMOVED_SCHEMES):
        raise ValidationError(
            f"store location {target!r} names a removed backend; the "
            f"experiment store is a local directory (PATH or sqlite:PATH)"
        )
    if not text:
        raise ValidationError(
            f"store location must be a non-empty path, got {target!r}"
        )
    return Path(text)


def atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` via temp file + :func:`os.replace`.

    The rename is atomic within one filesystem, so concurrent readers
    see either the previous content or the full new content, never a
    torn write.  Shared by blob writes and ledger manifests.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=_TMP_PREFIX, suffix=path.suffix
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


@dataclass(frozen=True)
class ArtifactRef:
    """A stored artifact's address plus blob metadata."""

    kind: str
    key: str
    path: Path
    sha256: str
    size: int


def _gc_count(stats: Dict, kind: str, size: int) -> None:
    stats["removed"] += 1
    stats["freed_bytes"] += size
    bucket = stats["by_kind"].setdefault(kind, {"count": 0, "bytes": 0})
    bucket["count"] += 1
    bucket["bytes"] += size


# -- codecs -----------------------------------------------------------------


@dataclass(frozen=True)
class Codec:
    """Blob (de)serialisation of one artifact kind."""

    encode: Callable[[object], bytes]
    decode: Callable[[bytes], object]
    ext: str = "json"


def _json_encode(obj) -> bytes:
    return json.dumps(obj, sort_keys=True).encode("utf-8")


def _json_decode(data: bytes):
    return json.loads(data.decode("utf-8"))


def _library_encode(library) -> bytes:
    from repro.library.io import library_payload

    return _json_encode(library_payload(library))


def _library_decode(data: bytes):
    from repro.library.io import library_from_payload

    return library_from_payload(_json_decode(data))


def _synthesis_encode(report) -> bytes:
    return _json_encode(
        {
            "area": report.area,
            "delay": report.delay,
            "power": report.power,
            "gate_count": report.gate_count,
            "cells": dict(report.cells),
        }
    )


def _synthesis_decode(data: bytes):
    from repro.synthesis.synthesizer import SynthesisReport

    payload = _json_decode(data)
    return SynthesisReport(
        area=payload["area"],
        delay=payload["delay"],
        power=payload["power"],
        gate_count=payload["gate_count"],
        cells=dict(payload["cells"]),
    )


def _evaluations_encode(results) -> bytes:
    return _json_encode(
        [
            {
                "qor": r.qor,
                "area": r.area,
                "delay": r.delay,
                "power": r.power,
            }
            for r in results
        ]
    )


def _evaluations_decode(data: bytes):
    from repro.core.engine import EvaluationResult

    return [EvaluationResult(**entry) for entry in _json_decode(data)]


def _pickle_encode(obj) -> bytes:
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def _pickle_decode(data: bytes):
    return pickle.loads(data)


#: kind -> codec.  Unlisted kinds fall back to canonical JSON.
CODECS: Dict[str, Codec] = {
    "library": Codec(_library_encode, _library_decode, "json"),
    # Per-component memo entries of the library-construction pipeline:
    # plain ComponentRecord.to_dict documents, canonical JSON.
    "component": Codec(_json_encode, _json_decode, "json"),
    "synthesis": Codec(_synthesis_encode, _synthesis_decode, "json"),
    "evaluations": Codec(_evaluations_encode, _evaluations_decode, "json"),
    "training-set": Codec(_json_encode, _json_decode, "json"),
    "space": Codec(_json_encode, _json_decode, "json"),
    "dse": Codec(_json_encode, _json_decode, "json"),
    "profiles": Codec(_pickle_encode, _pickle_decode, "pkl"),
    "models": Codec(_pickle_encode, _pickle_decode, "pkl"),
}


_DEFAULT_CODEC = Codec(_json_encode, _json_decode, "json")


class ArtifactStore:
    """Typed content-addressed cache under one local root directory.

    Persistent state is only the root path, so a store is cheap to
    construct, safe to share across ``fork()`` and picklable into
    worker processes.  The sqlite connection is cached per process
    (keyed by pid: a forked child opens its own and *parks* the
    inherited parent handle rather than closing it, which sqlite
    forbids across processes) and opened with
    ``check_same_thread=False`` behind an instance lock so the serve
    layer's executor threads can share one store.
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        self._conn: Optional[sqlite3.Connection] = None
        self._conn_pid: Optional[int] = None
        self._lock = threading.RLock()
        self._check_layout()

    def _check_layout(self) -> None:
        manifest = self.root / _LAYOUT_MANIFEST
        if not manifest.is_file():
            return
        try:
            fmt = json.loads(manifest.read_text()).get("format")
        except (OSError, json.JSONDecodeError):
            return
        if fmt and fmt != "sqlite":
            raise StoreError(
                f"store at {self.root} is a {fmt!r} layout, which this "
                f"version cannot open; only plain sqlite stores are "
                f"supported"
            )

    def __getstate__(self):
        return {"root": self.root}

    def __setstate__(self, state):
        self.root = state["root"]
        self._conn = None
        self._conn_pid = None
        self._lock = threading.RLock()

    @property
    def uri(self) -> str:
        """The store location as printed in ``--json`` documents."""
        return f"sqlite:{self.root}"

    # -- plumbing -----------------------------------------------------------

    def _connect(self) -> sqlite3.Connection:
        pid = os.getpid()
        with self._lock:
            if self._conn is not None and self._conn_pid != pid:
                # Connected before a fork: the child parks the
                # inherited handle (never closes or reuses it) and
                # opens its own, exactly like the runtime's shm
                # segments are pid-guarded against child unlinks.
                _FORK_PARKED_CONNS.append(self._conn)
                self._conn = None
            if self._conn is None:
                self.root.mkdir(parents=True, exist_ok=True)
                conn = sqlite3.connect(
                    self.root / "index.sqlite3",
                    timeout=30.0,
                    check_same_thread=False,
                )
                conn.execute(_SCHEMA)
                self._conn = conn
                self._conn_pid = pid
            return self._conn

    @staticmethod
    def _codec(kind: str) -> Codec:
        return CODECS.get(kind, _DEFAULT_CODEC)

    def _blob_path(self, kind: str, key: str) -> Path:
        ext = self._codec(kind).ext
        return self.root / "objects" / kind / key[:2] / f"{key}.{ext}"

    def _index(
        self, kind: str, key: str, path: Path, digest: str,
        size: int, meta: Optional[Dict],
    ) -> None:
        with self._lock, self._connect() as conn:
            conn.execute(
                "INSERT OR REPLACE INTO artifacts "
                "(kind, key, filename, sha256, size, created_at, meta) "
                "VALUES (?, ?, ?, ?, ?, ?, ?)",
                (
                    kind,
                    key,
                    str(path.relative_to(self.root)),
                    digest,
                    size,
                    time.time(),
                    json.dumps(meta or {}, sort_keys=True),
                ),
            )

    def _row(self, kind: str, key: str):
        with self._lock, self._connect() as conn:
            return conn.execute(
                "SELECT filename, sha256 FROM artifacts "
                "WHERE kind = ? AND key = ?",
                (kind, key),
            ).fetchone()

    def _drop_row(self, kind: str, key: str) -> None:
        with self._lock, self._connect() as conn:
            conn.execute(
                "DELETE FROM artifacts WHERE kind = ? AND key = ?",
                (kind, key),
            )

    def _evict(self, kind: str, key: str) -> None:
        self._drop_row(kind, key)
        try:
            self._blob_path(kind, key).unlink()
        except OSError:
            pass

    def _read(self, kind: str, key: str) -> Optional[bytes]:
        """The blob bytes at ``(kind, key)``, or ``None`` on a miss.

        Self-heals the index: a stale row (blob gone) is evicted, an
        orphan blob adopted, and checksum drift with surviving bytes
        re-indexed.
        """
        row = self._row(kind, key)
        path = self._blob_path(kind, key)
        if row is not None:
            path = self.root / row[0]
        try:
            data = path.read_bytes()
        except OSError:
            if row is not None:  # stale index entry: blob is gone
                self._evict(kind, key)
                get_metrics().inc("store.evictions")
            return None
        digest = hashlib.sha256(data).hexdigest()
        if row is None or digest != row[1]:
            # A blob without an index row (a writer died between
            # rename and insert) is adopted; a checksum mismatch with
            # surviving bytes (two writers raced; the last rename won)
            # re-indexes them instead of discarding them.
            self._index(kind, key, path, digest, len(data), None)
        return data

    # -- primary API --------------------------------------------------------

    def put(
        self, kind: str, key: str, obj, meta: Optional[Dict] = None
    ) -> ArtifactRef:
        """Encode and store ``obj`` under ``(kind, key)`` atomically."""
        data = self._codec(kind).encode(obj)
        digest = hashlib.sha256(data).hexdigest()
        path = self._blob_path(kind, key)
        atomic_write_bytes(path, data)
        self._index(kind, key, path, digest, len(data), meta)
        metrics = get_metrics()
        metrics.inc("store.puts")
        metrics.inc("store.bytes_written", len(data))
        return ArtifactRef(kind, key, path, digest, len(data))

    def get(self, kind: str, key: str):
        """Decode the artifact at ``(kind, key)``; ``None`` on any miss.

        Corruption (truncated or undecodable blob) and staleness (index
        row without blob) are *transparent* misses: the entry is evicted
        and the caller recomputes.  The blob is the source of truth and
        the index only a cache of it — orphan blobs are adopted and
        checksum drift re-indexed on read, while decode failures are
        evicted.
        """
        metrics = get_metrics()
        data = self._read(kind, key)
        if data is None:
            metrics.inc("store.misses")
            return None
        try:
            obj = self._codec(kind).decode(data)
        except Exception:
            self._evict(kind, key)
            metrics.inc("store.evictions")
            metrics.inc("store.misses")
            return None
        metrics.inc("store.hits")
        metrics.inc("store.bytes_read", len(data))
        return obj

    def has(self, kind: str, key: str) -> bool:
        return self.get(kind, key) is not None

    def delete(self, kind: str, key: str) -> None:
        self._evict(kind, key)

    # -- enumeration / maintenance ------------------------------------------

    def entries(
        self, kind: Optional[str] = None
    ) -> List[ArtifactRef]:
        """Indexed artifacts sorted by ``(kind, key)``, optionally one kind."""
        if not (self.root / "index.sqlite3").exists():
            return []
        query = "SELECT kind, key, filename, sha256, size FROM artifacts"
        params: Tuple = ()
        if kind is not None:
            query += " WHERE kind = ?"
            params = (kind,)
        with self._lock, self._connect() as conn:
            rows = conn.execute(query + " ORDER BY kind, key",
                                params).fetchall()
        return [
            ArtifactRef(k, key, self.root / fn, sha, size)
            for k, key, fn, sha, size in rows
        ]

    def keys(self, kind: str) -> List[str]:
        return [ref.key for ref in self.entries(kind)]

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Per-kind artifact counts and byte totals."""
        out: Dict[str, Dict[str, int]] = {}
        for ref in self.entries():
            bucket = out.setdefault(ref.kind, {"count": 0, "bytes": 0})
            bucket["count"] += 1
            bucket["bytes"] += ref.size
        return out

    #: Kinds kept by default during gc even when no manifest references
    #: them: content-shared pools (one blob serves many runs), not
    #: run-owned stage outputs.  Per-component memo entries live here
    #: too — thousands of them serve every future library build, so
    #: manifests deliberately do not enumerate them.
    SHARED_KINDS = ("synthesis", "library", "component")

    def gc(
        self,
        referenced: Iterable[Tuple[str, str]],
        keep_kinds: Optional[Iterable[str]] = None,
        dry_run: bool = False,
    ) -> Dict:
        """Drop artifacts not in ``referenced`` plus orphan blob files.

        ``referenced`` lists the ``(kind, key)`` pairs to keep (typically
        the union of all run-ledger manifests' artifact refs).  Kinds in
        ``keep_kinds`` (default :data:`SHARED_KINDS`) survive without a
        reference — synthesis reports and libraries are shared across
        runs rather than owned by one manifest.  With ``dry_run``
        nothing is deleted; the statistics describe what a real pass
        would remove.  Returns removal statistics including per-kind
        ``by_kind`` count/byte buckets.
        """
        keep: Set[Tuple[str, str]] = set(
            (kind, key) for kind, key in referenced
        )
        shared = set(
            self.SHARED_KINDS if keep_kinds is None else keep_kinds
        )
        stats = {
            "removed": 0,
            "freed_bytes": 0,
            "kept": 0,
            "dry_run": dry_run,
            "by_kind": {},
        }
        gone_paths: Set[Path] = set()
        keep_paths: Set[Path] = set()
        for ref in self.entries():
            if (ref.kind, ref.key) in keep or ref.kind in shared:
                stats["kept"] += 1
                keep_paths.add(ref.path)
                continue
            _gc_count(stats, ref.kind, ref.size)
            gone_paths.add(ref.path)
            if not dry_run:
                self._drop_row(ref.kind, ref.key)
                try:
                    ref.path.unlink()
                except OSError:
                    pass
        objects = self.root / "objects"
        if objects.is_dir():
            for path in sorted(objects.rglob("*")):
                if path.name.startswith(_TMP_PREFIX):
                    continue  # in-flight write of a concurrent process
                if (
                    path.is_file()
                    and path not in keep_paths
                    and path not in gone_paths
                ):
                    try:
                        size = path.stat().st_size
                        if not dry_run:
                            path.unlink()
                    except OSError:
                        continue
                    kind = path.relative_to(objects).parts[0]
                    _gc_count(stats, kind, size)
        metrics = get_metrics()
        metrics.inc("store.gc_runs")
        if not dry_run:
            metrics.inc("store.gc_removed", stats["removed"])
            metrics.inc("store.gc_freed_bytes", stats["freed_bytes"])
        return stats

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ArtifactStore {self.uri}>"


def open_store(root=None) -> ArtifactStore:
    """An :class:`ArtifactStore` at ``root`` (default: env-resolved).

    ``root`` may be a path, a ``sqlite:PATH`` string or an existing
    store (returned as-is); ``REPRO_STORE_DIR`` accepts the same
    spellings.
    """
    if isinstance(root, ArtifactStore):
        return root
    if root is None:
        root = _env_store_root()
    return ArtifactStore(_store_root(root))


def require_store(root=None) -> ArtifactStore:
    """Like :func:`open_store` but the store must already exist."""
    store = open_store(root)
    if not store.root.is_dir():
        raise StoreError(
            f"no experiment store at {store.uri} (run with --store or "
            f"set {STORE_ENV} first)"
        )
    return store
