"""Stdlib-only asyncio HTTP server — the approximation-as-a-service door.

``repro serve`` binds this server in front of the coordinator.  The
surface is a small versioned JSON API:

====== ============================= =====================================
Method Path                          Meaning
====== ============================= =====================================
GET    ``/v1/health``                liveness (no auth)
GET    ``/v1/workloads``             the registered workload catalog
POST   ``/v1/jobs``                  submit a job; returns 202 + job doc
GET    ``/v1/jobs``                  this key's jobs, newest first
GET    ``/v1/jobs/<id>``             poll one job (``?wait=SECONDS``
                                     long-polls until it finishes)
GET    ``/v1/jobs/<id>/events``      server-sent-events status stream
GET    ``/v1/account``               the caller's account + budget meter
GET    ``/v1/stats``                 coordinator + cache statistics
GET    ``/v1/metrics``               telemetry scrape (JSON; add
                                     ``?format=prometheus`` for text
                                     exposition)
GET    ``/v1/ledger``                ``serve-job`` run-ledger manifests
====== ============================= =====================================

Authentication: when API keys are configured every endpoint except
``/v1/health`` requires ``Authorization: Bearer <secret>`` (or
``X-Api-Key``); unknown or missing credentials get 401.  Clients may
only read their own jobs (404 otherwise — the id space leaks nothing).

The implementation is deliberately bare ``asyncio.start_server``
HTTP/1.1: one request per connection, bounded request sizes, JSON in
and out with the CLI's ``version`` field convention.  No third-party
dependency gets between the paper stack and its front door.
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, unquote, urlsplit

from repro.errors import BudgetExceededError, ValidationError
from repro.serve.auth import ApiKeyRegistry
from repro.serve.coordinator import Coordinator
from repro.serve.jobs import JobRequest
from repro.telemetry import get_metrics, render_prometheus

#: Environment knob: default TCP port of ``repro serve``.
SERVE_PORT_ENV = "REPRO_SERVE_PORT"

#: Fallback port when neither ``--port`` nor the env knob is set.
DEFAULT_PORT = 8035

#: Version field of every JSON document this API emits.
API_VERSION = 1

#: Upper bounds on request framing (defense against accidental floods).
MAX_REQUEST_LINE = 8 * 1024
MAX_HEADER_BYTES = 32 * 1024
MAX_BODY_BYTES = 1024 * 1024

#: Chunk size for reading request bodies.
_CHUNK = 64 * 1024

_STATUS_TEXT = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    401: "Unauthorized",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
}


def default_port() -> int:
    """Resolve the serve port: ``REPRO_SERVE_PORT`` (validated), else 8035.

    Blank or non-numeric values raise a
    :class:`~repro.errors.ValidationError` naming the knob — the
    numeric-env-knob contract shared with ``REPRO_SCALE``.
    """
    raw = os.environ.get(SERVE_PORT_ENV)
    if raw is None:
        return DEFAULT_PORT
    from repro.utils.validation import check_env_int

    return check_env_int(raw, source=SERVE_PORT_ENV, minimum=0,
                         maximum=65535)


class _HttpError(Exception):
    """An error with a client-facing status code."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


async def _read_body(reader, headers: Dict[str, str],
                     limit: int) -> bytes:
    """Read a Content-Length framed body in chunks, bounded by ``limit``."""
    length = headers.get("content-length")
    if length is None:
        return b""
    try:
        n = int(length)
    except ValueError:
        raise _HttpError(400, "bad Content-Length") from None
    if n < 0:
        raise _HttpError(400, "bad Content-Length")
    if n > limit:
        # Drain the oversize body (bounded by what the sender actually
        # wrote) so the client reads a clean 413 instead of a
        # connection reset mid-upload.
        remaining = n
        while remaining > 0:
            chunk = await reader.read(min(_CHUNK, remaining))
            if not chunk:
                break
            remaining -= len(chunk)
        raise _HttpError(413, "request body too large")
    body = bytearray()
    while len(body) < n:
        chunk = await reader.read(min(_CHUNK, n - len(body)))
        if not chunk:
            raise _HttpError(400, "truncated request body")
        body.extend(chunk)
    return bytes(body)


class ServeApp:
    """Routes + request plumbing around one coordinator."""

    def __init__(
        self,
        coordinator: Optional[Coordinator] = None,
        keys: Optional[ApiKeyRegistry] = None,
    ):
        self.coordinator = (
            coordinator if coordinator is not None else Coordinator()
        )
        self.keys = keys if keys is not None else ApiKeyRegistry()

    # -- request framing -----------------------------------------------------

    @staticmethod
    async def _read_request(
        reader: asyncio.StreamReader,
    ) -> Tuple[str, str, Dict[str, str]]:
        """Parse the request line + headers; the body stays unread.

        The one route with a body, ``POST /v1/jobs``, reads it with
        :func:`_read_body` under the :data:`MAX_BODY_BYTES` cap.
        """
        line = await reader.readline()
        if not line:
            raise ConnectionResetError("empty request")
        if len(line) > MAX_REQUEST_LINE:
            raise _HttpError(413, "request line too long")
        try:
            method, target, _version = (
                line.decode("latin-1").strip().split(" ", 2)
            )
        except ValueError:
            raise _HttpError(400, "malformed request line") from None
        headers: Dict[str, str] = {}
        total = 0
        while True:
            raw = await reader.readline()
            total += len(raw)
            if total > MAX_HEADER_BYTES:
                raise _HttpError(413, "headers too large")
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        return method.upper(), target, headers

    @staticmethod
    def _respond(
        writer: asyncio.StreamWriter,
        status: int,
        doc: Dict,
        content_type: str = "application/json",
    ) -> None:
        payload = json.dumps(
            {"version": API_VERSION, **doc}, sort_keys=True
        ).encode("utf-8") + b"\n"
        head = (
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'OK')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + payload)

    @staticmethod
    def _respond_raw(
        writer: asyncio.StreamWriter,
        status: int,
        payload: bytes,
        content_type: str,
    ) -> None:
        """Non-JSON response body (Prometheus text exposition)."""
        head = (
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'OK')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + payload)

    # -- auth ----------------------------------------------------------------

    def _account_for(self, headers: Dict[str, str]):
        secret = None
        authorization = headers.get("authorization", "")
        if authorization.lower().startswith("bearer "):
            secret = authorization[7:].strip()
        if secret is None:
            secret = headers.get("x-api-key")
        account = self.keys.authenticate(secret)
        if account is None:
            raise _HttpError(401, "missing or unknown API key")
        return account

    # -- connection handler --------------------------------------------------

    async def handle(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            try:
                method, target, headers = await self._read_request(
                    reader
                )
            except ConnectionResetError:
                return
            metrics = get_metrics()
            metrics.inc("serve.http_requests")
            try:
                await self._route(
                    method, target, headers, reader, writer
                )
            except _HttpError as exc:
                metrics.inc(f"serve.http_{exc.status}")
                self._respond(
                    writer, exc.status, {"error": str(exc)}
                )
            except BudgetExceededError as exc:
                metrics.inc("serve.http_429")
                self._respond(writer, 429, {"error": str(exc)})
            except ValidationError as exc:
                metrics.inc("serve.http_400")
                self._respond(writer, 400, {"error": str(exc)})
            except Exception as exc:  # noqa: BLE001 - keep serving
                self._respond(
                    writer, 500,
                    {"error": f"{type(exc).__name__}: {exc}"},
                )
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _route(
        self,
        method: str,
        target: str,
        headers: Dict[str, str],
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        url = urlsplit(target)
        path = unquote(url.path).rstrip("/") or "/"
        query = {
            name: values[-1]
            for name, values in parse_qs(url.query).items()
        }

        if path == "/v1/health":
            if method != "GET":
                raise _HttpError(405, "health is GET-only")
            self._respond(writer, 200, {
                "status": "ok",
                "auth": self.keys.enabled,
                "jobs": len(self.coordinator.board),
            })
            return

        account = self._account_for(headers)

        if path == "/v1/workloads" and method == "GET":
            self._respond(writer, 200, self._workloads_doc())
        elif path == "/v1/jobs" and method == "POST":
            body = await _read_body(reader, headers, MAX_BODY_BYTES)
            await self._submit(account, body, writer)
        elif path == "/v1/jobs" and method == "GET":
            jobs = self.coordinator.board.jobs_for(account.key_id)
            self._respond(writer, 200, {
                "jobs": [job.doc(include_result=False) for job in jobs],
            })
        elif path == "/v1/account" and method == "GET":
            self._respond(writer, 200, {"account": account.doc()})
        elif path == "/v1/stats" and method == "GET":
            self._respond(writer, 200, {
                "stats": dict(self.coordinator.stats),
                "inflight": len(self.coordinator._inflight),
                "jobs": len(self.coordinator.board),
            })
        elif path == "/v1/metrics" and method == "GET":
            self._metrics_endpoint(query, writer)
        elif path == "/v1/ledger" and method == "GET":
            self._respond(writer, 200, self._ledger_doc())
        elif path.startswith("/v1/jobs/"):
            await self._job_endpoint(
                method, path, query, account, writer
            )
        else:
            raise _HttpError(404, f"no route for {method} {path}")

    # -- endpoint bodies -----------------------------------------------------

    @staticmethod
    def _workloads_doc() -> Dict:
        from repro.workloads import WORKLOADS

        return {
            "workloads": [
                {
                    "name": workload.name,
                    "description": workload.description,
                    "tags": list(workload.tags),
                }
                for workload in WORKLOADS
            ]
        }

    def _metrics_endpoint(self, query: Dict[str, str], writer) -> None:
        """Live telemetry scrape: JSON snapshot or Prometheus text."""
        fmt = query.get("format", "json").strip().lower()
        snapshot = get_metrics().snapshot()
        if fmt == "prometheus":
            text = render_prometheus(snapshot)
            self._respond_raw(
                writer, 200, text.encode("utf-8"),
                "text/plain; version=0.0.4; charset=utf-8",
            )
        elif fmt == "json":
            self._respond(writer, 200, {"metrics": snapshot})
        else:
            raise _HttpError(
                400, "format must be 'json' or 'prometheus'"
            )

    def _ledger_doc(self) -> Dict:
        if self.coordinator.store is None:
            raise _HttpError(404, "no experiment store attached")
        from repro.store import RunLedger

        ledger = RunLedger(self.coordinator.store)
        return {"runs": ledger.runs(kind="serve-job")}

    async def _submit(self, account, body: bytes, writer) -> None:
        try:
            payload = json.loads(body.decode("utf-8") or "null")
        except (UnicodeDecodeError, json.JSONDecodeError):
            raise _HttpError(400, "request body must be JSON") from None
        request = JobRequest.from_payload(payload)
        job = await self.coordinator.submit(account, request)
        self._respond(
            writer, 202, {"job": job.doc(include_result=False)}
        )

    async def _job_endpoint(
        self, method: str, path: str, query, account, writer
    ) -> None:
        if method != "GET":
            raise _HttpError(405, "job endpoints are GET-only")
        parts = path.split("/")  # '', 'v1', 'jobs', <id>[, 'events']
        job = self.coordinator.board.get(parts[3])
        if job is None or job.key_id != account.key_id:
            raise _HttpError(404, f"no job {parts[3]!r}")
        if len(parts) == 5 and parts[4] == "events":
            await self._stream(job, writer)
            return
        if len(parts) != 4:
            raise _HttpError(404, f"no route for {path}")
        if "wait" in query:
            from repro.utils.validation import check_env_float

            timeout = check_env_float(
                query["wait"], source="wait query parameter",
                minimum=0.0,
            )
            await self.coordinator.board.wait_for_terminal(
                job, timeout=min(timeout, 600.0)
            )
        self._respond(writer, 200, {"job": job.doc()})

    async def _stream(self, job, writer: asyncio.StreamWriter) -> None:
        """Server-sent events: one ``data:`` frame per status change."""
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-cache\r\n"
            b"Connection: close\r\n\r\n"
        )
        last = None
        while True:
            doc = job.doc(include_result=job.terminal)
            frame = json.dumps(
                {"version": API_VERSION, "job": doc}, sort_keys=True
            )
            if frame != last:
                writer.write(
                    b"data: " + frame.encode("utf-8") + b"\n\n"
                )
                await writer.drain()
                last = frame
            if job.terminal:
                return
            await self.coordinator.board.wait_for_terminal(
                job, timeout=5.0
            )


async def start_server(
    app: ServeApp, host: str = "127.0.0.1", port: int = 0
) -> asyncio.AbstractServer:
    """Bind ``app`` on (host, port); port 0 picks a free one."""
    return await asyncio.start_server(app.handle, host=host, port=port)


def bound_port(server: asyncio.AbstractServer) -> int:
    return server.sockets[0].getsockname()[1]


async def serve_forever(
    app: ServeApp, host: str, port: int, ready=None
) -> None:
    """Run until cancelled; ``ready(actual_port)`` fires once bound."""
    server = await start_server(app, host=host, port=port)
    if ready is not None:
        ready(bound_port(server))
    try:
        async with server:
            await server.serve_forever()
    finally:
        app.coordinator.close()


class ServerThread:
    """A server on a background thread — tests, benchmarks, smoke runs.

    ``start()`` returns once the socket is bound; ``base_url`` then
    points at it.  ``stop()`` shuts the listener, the coordinator's
    worker threads, and the loop down in order.
    """

    def __init__(
        self,
        app: Optional[ServeApp] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.app = app if app is not None else ServeApp()
        self.host = host
        self.port = port
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self, timeout: float = 10.0) -> "ServerThread":
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("serve thread failed to start in time")
        if self._startup_error is not None:
            raise RuntimeError(
                f"serve thread failed to bind: {self._startup_error}"
            )
        return self

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        try:
            self._server = self._loop.run_until_complete(
                start_server(self.app, host=self.host, port=self.port)
            )
            self.port = bound_port(self._server)
        except BaseException as exc:  # pragma: no cover - bind failure
            self._startup_error = exc
            self._ready.set()
            return
        self._ready.set()
        try:
            self._loop.run_forever()
        finally:
            self._server.close()
            self._loop.run_until_complete(
                self._server.wait_closed()
            )
            self._loop.close()

    def stop(self) -> None:
        if self._loop is None:
            return
        self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        self.app.coordinator.close()
