"""Threaded HTTP front end for the job scheduler (legacy transport).

A :class:`ThreadingHTTPServer` — one thread per connection — exposes
the v1 API implemented once in :mod:`repro.service.wire`; the asyncio
front end (:mod:`repro.service.asyncserver`) serves the *same*
:class:`~repro.service.wire.ServiceAPI`, so routes, status codes and
the error envelope are identical across both transports:

========  ============================  ===================================
method    path                          meaning
========  ============================  ===================================
POST      ``/v1/jobs``                  submit ``{"kind","params","priority"}``
GET       ``/v1/jobs``                  list jobs (state filter, cursor)
GET       ``/v1/jobs/{id}``             job state + per-cell progress
GET       ``/v1/jobs/{id}/result``      result payload once ``done``
GET       ``/v1/jobs/{id}/events``      live SSE/JSONL progress stream
DELETE    ``/v1/jobs/{id}``             detach one waiter / cancel
GET       ``/v1/cache/stats``           run-store counters
GET       ``/v1/scenarios``             the scenario catalog (plugins incl.)
GET       ``/v1/metrics``               Prometheus text exposition
GET       ``/healthz``                  liveness + job counts
========  ============================  ===================================

Streaming on this transport costs one thread per open stream (the
pump blocks on the job's event log); that is fine for a handful of
watchers and is exactly the limitation the asyncio front end removes.
Streams are served ``Connection: close`` because their length is
unknown up front and this handler does not chunk.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Optional, Tuple

from repro.service.scheduler import Scheduler
from repro.service.wire import (
    MAX_BODY_BYTES,
    Response,
    ServiceAPI,
    StreamHandle,
    error_payload,
    stream_frames,
)
from repro.store.runcache import RunCache

__all__ = ["ReproServiceServer", "build_server", "serve"]

_MAX_BODY_BYTES = MAX_BODY_BYTES  # back-compat alias


class ReproServiceServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that owns a scheduler and its cache."""

    daemon_threads = True

    def __init__(self, address: Tuple[str, int], scheduler: Scheduler):
        super().__init__(address, _Handler)
        self.scheduler = scheduler
        self.api = ServiceAPI(scheduler)
        self.started_ts = self.api.started_ts

    def shutdown(self) -> None:  # stop HTTP first, then the scheduler
        super().shutdown()
        self.scheduler.shutdown()


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-service/2.0"
    protocol_version = "HTTP/1.1"

    # The default handler logs every request to stderr; the service is
    # driven by tests and benches, so stay quiet.
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass

    @property
    def api(self) -> ServiceAPI:
        return self.server.api  # type: ignore[attr-defined]

    # -- plumbing ---------------------------------------------------------

    def _read_body(self) -> Optional[bytes]:
        """The request body, or None after answering 400 and closing.

        Bodies are framed by Content-Length only.  A chunked body read
        as empty would leave its chunks in the stream to be parsed as
        the next request, so any request carrying Transfer-Encoding is
        refused, as the asyncio transport does.
        """
        if "Transfer-Encoding" in self.headers:
            return self._refuse("Transfer-Encoding is not supported")
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if length < 0 or length > MAX_BODY_BYTES:
            return self._refuse("invalid or oversized Content-Length")
        return self.rfile.read(length) if length else b""

    def _refuse(self, message: str) -> None:
        """Answer one 400 envelope and close: the body was not read."""
        self._write_response(Response(
            400,
            json.dumps(error_payload("bad_request", message)).encode("utf-8"),
            headers=(("Connection", "close"),),
        ))

    def _write_response(self, response: Response) -> None:
        self.send_response(response.status)
        self.send_header("Content-Type", response.content_type)
        self.send_header("Content-Length", str(len(response.body)))
        for name, value in response.headers:
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(response.body)

    def _write_stream(self, handle: StreamHandle) -> None:
        """Pump one SSE/JSONL stream; blocks this thread until close.

        No Content-Length is knowable, so the stream is served with
        ``Connection: close`` and the socket ends the body.
        """
        self.send_response(200)
        self.send_header("Content-Type", handle.content_type)
        self.send_header("Cache-Control", "no-cache")
        self.send_header("Connection", "close")
        self.end_headers()
        self.close_connection = True
        try:
            for frame in stream_frames(handle, heartbeat=10.0):
                self.wfile.write(frame)
                self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError, OSError):
            pass  # client went away; the pump's finally decs the gauge

    def _handle(self, method: str) -> None:
        body = self._read_body()
        if body is None:
            return
        outcome = self.api.dispatch(method, self.path, self.headers, body)
        if isinstance(outcome, StreamHandle):
            self._write_stream(outcome)
        else:
            self._write_response(outcome)

    # -- verbs ------------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 (stdlib naming)
        self._handle("POST")

    def do_GET(self) -> None:  # noqa: N802
        self._handle("GET")

    def do_DELETE(self) -> None:  # noqa: N802
        self._handle("DELETE")


def build_server(
    host: str = "127.0.0.1",
    port: int = 0,
    cache_dir: str = ".repro-cache",
    workers: int = 1,
    queue_depth: int = 64,
    max_retries: int = 2,
    retry_backoff_s: float = 0.25,
    cache: Optional[RunCache] = None,
) -> ReproServiceServer:
    """Wire cache + scheduler + HTTP server; ``port=0`` picks a free one."""
    scheduler = Scheduler(
        cache if cache is not None else RunCache(cache_dir),
        queue_depth=queue_depth,
        workers=workers,
        max_retries=max_retries,
        retry_backoff_s=retry_backoff_s,
    )
    return ReproServiceServer((host, port), scheduler)


def serve(server: ReproServiceServer) -> threading.Thread:
    """Run ``server`` on a daemon thread and return the thread."""
    thread = threading.Thread(
        target=server.serve_forever, name="repro-http", daemon=True
    )
    thread.start()
    return thread
