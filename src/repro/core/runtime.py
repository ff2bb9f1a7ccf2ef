"""Shared parallel runtime: one persistent worker pool plus shared memory.

Every parallel stage (``evaluate_many`` chunks, library-build chunks,
portfolio islands, chunked model predicts) runs through the one
process-wide :class:`ParallelRuntime`:

* **one persistent worker pool** reused across pipeline stages — the
  pool-startup cost is paid once per process, not once per call;
* **shared-memory publishing** — stage context (engines, libraries,
  models, stores) is pickled *once* per stage with every large numpy
  array (operand LUTs, stacked image batches, golden SSIM statistics)
  hoisted into a ``multiprocessing.shared_memory`` segment.  Workers
  attach zero-copy read-only views; nothing bulk ever crosses the task
  pipe.  Segments are tracked and unlinked on :meth:`close` and at
  interpreter exit (crash or ``KeyboardInterrupt`` included).  Where
  creating a segment fails (no usable ``/dev/shm``), contexts ride
  inline with each task for the rest of the process;
* **one serial rule** — with ``effective = min(workers, usable_cores(),
  len(tasks))``, a batch runs in-process when ``effective <= 1`` or
  when it is submitted from inside a worker; otherwise every task goes
  to the pool.

The pool starts with ``fork`` where the platform has it, else with the
platform default; ``ParallelRuntime(start_method=...)`` lets tests run
the ``spawn`` path that non-fork platforms take.  Context travels the
same shared-memory route under every start method.

Task functions must be module-level callables of the form
``fn(context, task) -> result`` with deterministic, task-independent
behaviour; under that contract results are **bit-identical for any
worker count and start method** (serial and pooled execution run the
same function on the same values).

The one environment knob is ``REPRO_WORKERS``, the default worker
count.
"""

from __future__ import annotations

import atexit
import io
import os
import pickle
import threading
from collections import OrderedDict
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.telemetry import (
    absorb_worker_delta,
    collect_worker_delta,
    get_metrics,
)
from repro.telemetry.tracing import current_tracer, worker_tracer

#: Environment knob: default worker-process count (shared convention).
WORKERS_ENV = "REPRO_WORKERS"

#: Arrays at least this large are hoisted into shared memory when a
#: context is published; smaller ones ride along in the pickle.
MIN_SHARED_ARRAY_BYTES = 1 << 14


# ---------------------------------------------------------------------------
# Worker-count validation (the one shared copy; re-exported by
# repro.core.engine for backward compatibility).
# ---------------------------------------------------------------------------

def validate_workers(value, source: str = "workers") -> Optional[int]:
    """Normalise a worker-count setting to ``None`` (serial) or ``>= 2``.

    Accepts ``None``, integers and integer-valued strings; 0 and 1 mean
    in-process evaluation.  Non-integer or negative values raise a
    :class:`~repro.errors.ValidationError` (a ``ValueError`` subclass)
    naming ``source`` (the knob the value came from) — silently falling
    back to serial evaluation would hide the misconfiguration for the
    entire (expensive) run.
    """
    from repro.errors import ValidationError

    if value is None:
        return None
    if isinstance(value, bool) or isinstance(value, float):
        raise ValidationError(
            f"{source} must be an integer worker count, got {value!r}"
        )
    try:
        count = int(str(value).strip())
    except ValueError:
        raise ValidationError(
            f"{source} must be an integer worker count, got {value!r}"
        ) from None
    if count < 0:
        raise ValidationError(
            f"{source} must be >= 0 (0 or 1 run in-process), "
            f"got {count}"
        )
    return count if count > 1 else None


def default_workers() -> Optional[int]:
    """Worker count from ``REPRO_WORKERS`` (values <= 1 mean in-process)."""
    raw = os.environ.get(WORKERS_ENV, "").strip()
    if not raw:
        return None
    return validate_workers(raw, source=WORKERS_ENV)


def usable_cores() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-linux
        return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# Shared-memory array publishing.
# ---------------------------------------------------------------------------

#: Worker-side cache of attached segments: name -> (SharedMemory, array).
#: The SharedMemory object must stay referenced while views exist.
_ATTACHED: Dict[str, Tuple[object, np.ndarray]] = {}


def _rebuild_shared_array(
    name: str, shape: Tuple[int, ...], dtype: str
) -> np.ndarray:
    """Unpickle hook: attach a published array as a read-only view."""
    cached = _ATTACHED.get(name)
    if cached is not None:
        return cached[1]
    from multiprocessing import shared_memory

    shm = shared_memory.SharedMemory(name=name)
    view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf)
    view.flags.writeable = False
    _ATTACHED[name] = (shm, view)
    return view


class _ShmPickler(pickle.Pickler):
    """Pickler that hoists large numpy arrays into shared memory."""

    def __init__(self, file, runtime: "ParallelRuntime", segments: List[str]):
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._runtime = runtime
        self._segments = segments

    def reducer_override(self, obj):
        if (
            type(obj) is np.ndarray
            and obj.dtype != object
            and obj.nbytes >= MIN_SHARED_ARRAY_BYTES
        ):
            name = self._runtime._create_segment_for(obj)
            if name is not None:
                self._segments.append(name)
                return (
                    _rebuild_shared_array,
                    (name, obj.shape, obj.dtype.str),
                )
        return NotImplemented


class _ContextRef:
    """Picklable pointer to a published stage context.

    ``shm_name`` names the segment holding the pickled context bytes;
    when shared memory is unavailable the bytes ride inline in ``blob``
    instead.  Workers cache the unpickled context by ``token``.
    """

    __slots__ = ("token", "shm_name", "size", "blob")

    def __init__(self, token, shm_name=None, size=0, blob=None):
        self.token = token
        self.shm_name = shm_name
        self.size = size
        self.blob = blob

    def __reduce__(self):
        return (
            _ContextRef,
            (self.token, self.shm_name, self.size, self.blob),
        )


#: Worker-side cache of resolved contexts, newest last.
_CONTEXTS: "OrderedDict[int, object]" = OrderedDict()

#: Worker-side context cache size (stage contexts are few per run).
_MAX_WORKER_CONTEXTS = 4

#: True inside a runtime worker process (set by the pool initializer).
_IN_WORKER = False


def _worker_init() -> None:
    global _IN_WORKER
    _IN_WORKER = True


def _resolve_context(ref: Optional[_ContextRef]):
    if ref is None:
        return None
    cached = _CONTEXTS.get(ref.token)
    if cached is not None or ref.token in _CONTEXTS:
        _CONTEXTS.move_to_end(ref.token)
        return cached
    if ref.blob is not None:
        payload = ref.blob
    else:
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(name=ref.shm_name)
        try:
            payload = bytes(shm.buf[: ref.size])
        finally:
            shm.close()
    context = pickle.loads(payload)
    _CONTEXTS[ref.token] = context
    while len(_CONTEXTS) > _MAX_WORKER_CONTEXTS:
        _CONTEXTS.popitem(last=False)
    return context


def _call_task(payload):
    """Worker-side task wrapper.

    Returns ``(result, telemetry_delta)``: the runtime strips the
    piggybacked delta before yielding, so callers observe results that
    are bit-identical to the serial path.  ``trace_ctx`` (trace id,
    parent span id, span name) is ``None`` unless a tracer is active
    in the parent.
    """
    fn, ref, task, trace_ctx = payload
    context = _resolve_context(ref)
    if trace_ctx is None:
        result = fn(context, task)
    else:
        tracer = worker_tracer(trace_ctx[0])
        with tracer.span(
            trace_ctx[2], cat="worker", parent=trace_ctx[1]
        ):
            result = fn(context, task)
    return result, collect_worker_delta()


# ---------------------------------------------------------------------------
# The runtime.
# ---------------------------------------------------------------------------

class ParallelRuntime:
    """Process-wide parallel execution service (see module docstring)."""

    def __init__(
        self,
        start_method: Optional[str] = None,
        max_contexts: int = 8,
    ):
        import multiprocessing as mp

        if start_method is None and "fork" in mp.get_all_start_methods():
            start_method = "fork"
        self._mp_context = mp.get_context(start_method)
        self._owner_pid = os.getpid()
        self._lock = threading.RLock()
        self._executor = None
        self._executor_size = 0
        self._segments: Dict[str, object] = {}  # name -> SharedMemory
        self._segment_seq = 0
        self._ctx_cache: "OrderedDict[tuple, tuple]" = OrderedDict()
        self._ctx_segments: Dict[int, List[str]] = {}
        self._ctx_token = 0
        self._max_contexts = max_contexts
        self._shm_ok = True
        self.stats: Dict[str, int] = {
            "serial_batches": 0,
            "parallel_batches": 0,
            "contexts_published": 0,
            "context_cache_hits": 0,
            "segments_created": 0,
        }

    @property
    def start_method(self) -> str:
        return self._mp_context.get_start_method()

    def tracked_segments(self) -> List[str]:
        """Names of live shared-memory segments this runtime owns."""
        return sorted(self._segments)

    # -- shared-memory segments ---------------------------------------------

    def _segment_name(self) -> str:
        self._segment_seq += 1
        return f"repro-{self._owner_pid}-{self._segment_seq}"

    def _create_segment(self, size: int):
        """A fresh tracked segment, or ``None`` if shm is unavailable."""
        if not self._shm_ok:
            return None
        from multiprocessing import shared_memory

        for _ in range(16):
            name = self._segment_name()
            try:
                shm = shared_memory.SharedMemory(
                    create=True, size=max(1, size), name=name
                )
            except FileExistsError:  # pragma: no cover - pid reuse race
                continue
            except OSError:
                # No usable /dev/shm (or segment limit hit): degrade to
                # inline context payloads for the rest of the process.
                self._shm_ok = False
                return None
            self._segments[shm.name] = shm
            self.stats["segments_created"] += 1
            metrics = get_metrics()
            metrics.inc("runtime.segments_created")
            metrics.inc("runtime.shm_bytes", max(1, size))
            return shm
        self._shm_ok = False  # pragma: no cover - pathological
        return None  # pragma: no cover

    def _create_segment_for(self, arr: np.ndarray) -> Optional[str]:
        shm = self._create_segment(arr.nbytes)
        if shm is None:
            return None
        view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
        view[...] = arr
        return shm.name

    def _unlink_segment(self, name: str) -> None:
        shm = self._segments.pop(name, None)
        if shm is None:
            return
        try:
            shm.close()
            shm.unlink()
        except (OSError, FileNotFoundError):  # pragma: no cover
            pass

    # -- context publishing --------------------------------------------------

    @staticmethod
    def _context_key(context) -> tuple:
        if isinstance(context, tuple):
            return tuple(id(item) for item in context)
        return (id(context),)

    def publish(self, context) -> Optional[_ContextRef]:
        """Publish a stage context for the workers (cached by identity).

        The context is pickled once with every large array hoisted into
        shared memory; repeat calls with the *same objects* reuse the
        published payload.  Returns ``None`` for a ``None`` context.
        """
        if context is None:
            return None
        with self._lock:
            key = self._context_key(context)
            cached = self._ctx_cache.get(key)
            if cached is not None:
                self._ctx_cache.move_to_end(key)
                self.stats["context_cache_hits"] += 1
                get_metrics().inc("runtime.context_cache_hits")
                return cached[0]

            self._ctx_token += 1
            token = self._ctx_token
            segments: List[str] = []
            buffer = io.BytesIO()
            _ShmPickler(buffer, self, segments).dump(context)
            payload = buffer.getvalue()

            shm = self._create_segment(len(payload))
            if shm is not None:
                shm.buf[: len(payload)] = payload
                segments.append(shm.name)
                ref = _ContextRef(
                    token, shm_name=shm.name, size=len(payload)
                )
            else:
                ref = _ContextRef(token, blob=payload)

            self._ctx_cache[key] = (ref, context)
            self._ctx_segments[token] = segments
            self.stats["contexts_published"] += 1
            get_metrics().inc("runtime.contexts_published")
            while len(self._ctx_cache) > self._max_contexts:
                _, (old_ref, _) = self._ctx_cache.popitem(last=False)
                for name in self._ctx_segments.pop(old_ref.token, []):
                    self._unlink_segment(name)
            return ref

    # -- pool lifecycle ------------------------------------------------------

    def _get_executor(self, workers: int):
        from concurrent.futures import ProcessPoolExecutor

        if self._executor is not None and self._executor_size != workers:
            self._shutdown_executor()
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=workers,
                mp_context=self._mp_context,
                initializer=_worker_init,
            )
            self._executor_size = workers
            get_metrics().inc("runtime.pool_starts")
        else:
            get_metrics().inc("runtime.pool_reuse")
        return self._executor

    def _shutdown_executor(self, wait: bool = True) -> None:
        if self._executor is not None:
            try:
                self._executor.shutdown(wait=wait, cancel_futures=True)
            except Exception:  # pragma: no cover - teardown best effort
                pass
            self._executor = None
            self._executor_size = 0

    def close(self) -> None:
        """Shut the pool down and unlink every tracked shm segment.

        Safe to call repeatedly; a no-op in processes that merely
        inherited this runtime object (forked workers must never unlink
        the parent's segments).
        """
        if os.getpid() != self._owner_pid:
            return
        with self._lock:
            self._shutdown_executor()
            for name in list(self._segments):
                self._unlink_segment(name)
            self._ctx_cache.clear()
            self._ctx_segments.clear()

    # -- execution -----------------------------------------------------------

    def imap(
        self,
        fn: Callable,
        tasks: Iterable,
        context=None,
        workers: Optional[int] = None,
        label: str = "",
    ) -> Iterator:
        """Apply ``fn(context, task)`` to every task, yielding in order.

        ``fn`` must be a module-level function; results stream back in
        task order.  The batch runs in-process when at most one worker
        would be busy (see the module docstring), otherwise every task
        goes to the persistent pool — the results are identical either
        way.
        """
        tasks = list(tasks)
        if workers is None:
            workers = default_workers()
        else:
            workers = validate_workers(workers)
        if not tasks:
            return
        label = label or getattr(fn, "__name__", "batch")
        effective = 1 if _IN_WORKER else min(
            workers or 0, usable_cores(), len(tasks)
        )
        mode = "parallel" if effective > 1 else "serial"
        self.stats[f"{mode}_batches"] += 1
        get_metrics().inc(f"runtime.{mode}_batches")

        tracer = current_tracer()
        if tracer is None:
            yield from self._run_batch(fn, tasks, context, effective, None)
            return
        with tracer.span(
            f"runtime.{label}", cat="runtime",
            args={"n_tasks": len(tasks)},
        ) as batch_span:
            trace_ctx = (
                tracer.trace_id, batch_span.id, f"task:{label}"
            )
            yield from self._run_batch(
                fn, tasks, context, effective, trace_ctx
            )

    def map(
        self,
        fn: Callable,
        tasks: Iterable,
        context=None,
        workers: Optional[int] = None,
        label: str = "",
    ) -> List:
        """:meth:`imap`, collected into a list."""
        return list(
            self.imap(fn, tasks, context=context, workers=workers,
                      label=label)
        )

    def _run_batch(self, fn, tasks, context, workers, trace_ctx) -> Iterator:
        if workers <= 1:
            for task in tasks:
                yield fn(context, task)
            return
        from concurrent.futures.process import BrokenProcessPool

        ref = self.publish(context)
        executor = self._get_executor(workers)
        payloads = [(fn, ref, task, trace_ctx) for task in tasks]
        try:
            for result, delta in executor.map(_call_task, payloads):
                if delta is not None:
                    absorb_worker_delta(delta)
                yield result
        except (BrokenProcessPool, KeyboardInterrupt):
            # A dead worker (or an interrupt) poisons the pool; discard
            # it so the next batch starts from a clean one.  Tracked
            # segments stay owned by this runtime and are unlinked on
            # close()/exit.
            self._shutdown_executor(wait=False)
            raise


# ---------------------------------------------------------------------------
# Process-wide singleton.
# ---------------------------------------------------------------------------

_RUNTIME: Optional[ParallelRuntime] = None
_RUNTIME_LOCK = threading.Lock()


def get_runtime() -> ParallelRuntime:
    """The process-wide :class:`ParallelRuntime` (created on first use)."""
    global _RUNTIME
    with _RUNTIME_LOCK:
        if _RUNTIME is None or _RUNTIME._owner_pid != os.getpid():
            _RUNTIME = ParallelRuntime()
            atexit.register(_RUNTIME.close)
        return _RUNTIME


def reset_runtime() -> None:
    """Close and forget the singleton (test isolation helper)."""
    global _RUNTIME
    with _RUNTIME_LOCK:
        if _RUNTIME is not None:
            _RUNTIME.close()
            atexit.unregister(_RUNTIME.close)
            _RUNTIME = None
