"""Asyncio HTTP front end: thousands of connections, zero idle threads.

The legacy :mod:`repro.service.server` spends one OS thread per
connection — fine for a dozen clients, hopeless for a thousand open
SSE streams.  This module serves the *same*
:class:`~repro.service.wire.ServiceAPI` from a single event loop:

* **Transport** — hand-rolled HTTP/1.1 over ``asyncio.start_server``:
  request line + headers via ``readuntil``, body via ``readexactly``,
  persistent connections by default (``Connection: close`` honoured).
* **Dispatch** — endpoint logic still touches the scheduler's lock and
  can momentarily block, so every :meth:`ServiceAPI.dispatch` runs on
  a small thread pool (``run_in_executor``); the loop itself never
  waits on the scheduler.
* **Streaming** — SSE/JSONL job streams are written with chunked
  transfer encoding, so the connection survives the stream and can be
  reused.  Each open stream parks an ``asyncio.Event`` on the job's
  :class:`~repro.service.events.JobEventLog`; the scheduler's appends
  wake it via ``loop.call_soon_threadsafe``.  Cost per idle stream:
  one Event and one socket — no thread — which is what lets one
  process hold thousands of live watchers.
* **Workers** — unchanged.  Jobs still execute on the scheduler's
  process pool behind the same coalescing / backpressure / retry
  semantics; the front end only changes how bytes get in and out.

The public surface mirrors the legacy module so callers can swap
transports: :func:`build_async_server` ↔ ``build_server``,
:func:`serve_async` ↔ ``serve``, and the server object exposes
``server_port`` / ``shutdown()`` / ``server_close()``.
"""

from __future__ import annotations

import asyncio
import json
import threading
from concurrent.futures import ThreadPoolExecutor
from http.client import responses as _REASONS
from typing import Any, Dict, Optional, Tuple

from repro.obs import REGISTRY
from repro.service.scheduler import Scheduler
from repro.service.wire import (
    MAX_BODY_BYTES,
    Response,
    ServiceAPI,
    StreamHandle,
    encode_jsonl,
    encode_sse,
    error_payload,
    heartbeat_frame,
)
from repro.store.runcache import RunCache

__all__ = ["AsyncReproServiceServer", "build_async_server", "serve_async"]

_CONNECTIONS = REGISTRY.gauge(
    "service_async_connections_open",
    help="TCP connections currently held by the asyncio front end",
)
_CONNECTIONS_TOTAL = REGISTRY.counter(
    "service_async_connections_total",
    help="TCP connections accepted by the asyncio front end",
)
_REQUESTS = REGISTRY.counter(
    "service_async_requests_total",
    help="HTTP requests served by the asyncio front end",
)
_ASYNC_STREAMS = REGISTRY.gauge(
    "service_async_streams_open",
    help="SSE/JSONL streams currently held open by the asyncio front end",
)
STREAM_EVENTS = REGISTRY.counter(
    "service_stream_events_total",
    help="Job events written to SSE/JSONL streams",
)

#: Max bytes for the request line + header block.
_MAX_HEADER_BYTES = 32 * 1024

#: Idle keep-alive connections are dropped after this many seconds.
_KEEPALIVE_TIMEOUT_S = 120.0

#: Heartbeat cadence on open streams (keeps proxies and reads alive).
_HEARTBEAT_S = 10.0


class _BadRequest(Exception):
    """Unparseable request; answered 400 and the connection closed."""


def _status_line(status: int) -> bytes:
    reason = _REASONS.get(status, "Unknown")
    return f"HTTP/1.1 {status} {reason}\r\n".encode("ascii")


class AsyncReproServiceServer:
    """Single-event-loop HTTP server over one scheduler.

    The loop runs on a dedicated thread (started by :meth:`start` /
    :func:`serve_async`) so the calling thread — tests, the CLI — can
    keep driving the process, exactly like the threaded server.
    """

    def __init__(self, host: str, port: int, scheduler: Scheduler) -> None:
        self.host = host
        self.port = port
        self.scheduler = scheduler
        self.api = ServiceAPI(scheduler)
        self.server_port: int = port
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._stopped = threading.Event()
        # Dispatch touches the scheduler lock; keep it off the loop.
        self._executor = ThreadPoolExecutor(
            max_workers=8, thread_name_prefix="repro-dispatch"
        )

    # -- lifecycle --------------------------------------------------------

    def start(self) -> threading.Thread:
        """Run the event loop on a daemon thread; block until bound."""
        if self._thread is not None:
            return self._thread
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-async-http", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=10.0):
            raise RuntimeError("async server failed to start in 10s")
        return self._thread

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._serve())
        finally:
            try:
                loop.run_until_complete(loop.shutdown_asyncgens())
            finally:
                asyncio.set_event_loop(None)
                loop.close()
                self._stopped.set()

    async def _serve(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.host,
            port=self.port,
            limit=_MAX_HEADER_BYTES,
        )
        self.server_port = self._server.sockets[0].getsockname()[1]
        self._ready.set()
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            self._server.close()
            await self._server.wait_closed()
            # Drain cancelled connection tasks so none is still pending
            # when the loop closes (it would warn "Task was destroyed").
            me = asyncio.current_task()
            leftovers = [t for t in asyncio.all_tasks() if t is not me]
            for task in leftovers:
                task.cancel()
            if leftovers:
                await asyncio.gather(*leftovers, return_exceptions=True)

    def shutdown(self) -> None:
        """Stop accepting, drop the loop, then stop the scheduler."""
        loop = self._loop
        if loop is not None and not loop.is_closed():
            def _stop() -> None:
                if self._server is not None:
                    self._server.close()
                for task in asyncio.all_tasks():
                    task.cancel()
            loop.call_soon_threadsafe(_stop)
            self._stopped.wait(timeout=10.0)
        self._executor.shutdown(wait=False)
        self.scheduler.shutdown()

    def server_close(self) -> None:
        """Legacy-interface parity; resources go down in shutdown()."""
        if self._thread is not None:
            self._thread.join(timeout=5.0)

    # -- connection handling ----------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        _CONNECTIONS.inc()
        _CONNECTIONS_TOTAL.inc()
        try:
            while True:
                try:
                    request = await asyncio.wait_for(
                        self._read_request(reader),
                        timeout=_KEEPALIVE_TIMEOUT_S,
                    )
                except (asyncio.TimeoutError, asyncio.IncompleteReadError,
                        ConnectionResetError):
                    return
                except _BadRequest as exc:
                    await self._write_response(writer, Response(
                        400,
                        json.dumps(error_payload(
                            "bad_request", str(exc)
                        )).encode("utf-8"),
                    ), keep_alive=False)
                    return
                if request is None:  # clean EOF between requests
                    return
                method, target, headers, body = request
                _REQUESTS.inc()
                keep_alive = (
                    headers.get("connection", "").lower() != "close"
                )
                loop = asyncio.get_running_loop()
                outcome = await loop.run_in_executor(
                    self._executor, self.api.dispatch,
                    method, target, headers, body,
                )
                if isinstance(outcome, StreamHandle):
                    await self._write_stream(writer, outcome)
                else:
                    await self._write_response(writer, outcome,
                                               keep_alive=keep_alive)
                if not keep_alive:
                    return
        except (ConnectionResetError, BrokenPipeError, OSError,
                asyncio.CancelledError):
            pass
        finally:
            _CONNECTIONS.inc(-1.0)
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, asyncio.CancelledError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        """Parse one request; None on clean EOF before the first byte."""
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return None
            raise
        except asyncio.LimitOverrunError:
            raise _BadRequest(
                f"header block exceeds {_MAX_HEADER_BYTES} bytes"
            ) from None
        lines = head.decode("latin-1").split("\r\n")
        try:
            method, target, version = lines[0].split(" ", 2)
        except ValueError:
            raise _BadRequest(f"malformed request line {lines[0]!r}") \
                from None
        if not version.startswith("HTTP/1."):
            raise _BadRequest(f"unsupported protocol {version!r}")
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, sep, value = line.partition(":")
            if not sep:
                raise _BadRequest(f"malformed header line {line!r}")
            headers[name.strip().lower()] = value.strip()
        if "transfer-encoding" in headers:
            # Bodies are framed by Content-Length only.  Reading a
            # chunked body as empty would leave its chunks in the stream
            # to be parsed as the next request, so refuse it (and, per
            # RFC 9112, any request that sends both framings) and close.
            raise _BadRequest("Transfer-Encoding is not supported")
        body = b""
        raw_length = headers.get("content-length", "0")
        try:
            length = int(raw_length)
        except ValueError:
            raise _BadRequest(
                f"invalid Content-Length {raw_length!r}"
            ) from None
        if length < 0 or length > MAX_BODY_BYTES:
            raise _BadRequest("invalid or oversized Content-Length")
        if length:
            body = await reader.readexactly(length)
        return method.upper(), target, headers, body

    # -- writers ----------------------------------------------------------

    async def _write_response(
        self, writer: asyncio.StreamWriter, response: Response,
        keep_alive: bool = True,
    ) -> None:
        writer.write(_status_line(response.status))
        writer.write(
            f"Content-Type: {response.content_type}\r\n"
            f"Content-Length: {len(response.body)}\r\n".encode("ascii")
        )
        for name, value in response.headers:
            writer.write(f"{name}: {value}\r\n".encode("latin-1"))
        writer.write(
            b"Connection: keep-alive\r\n\r\n" if keep_alive
            else b"Connection: close\r\n\r\n"
        )
        writer.write(response.body)
        await writer.drain()

    @staticmethod
    def _chunk(writer: asyncio.StreamWriter, payload: bytes) -> None:
        writer.write(f"{len(payload):x}\r\n".encode("ascii"))
        writer.write(payload)
        writer.write(b"\r\n")

    async def _write_stream(
        self, writer: asyncio.StreamWriter, handle: StreamHandle
    ) -> None:
        """Pump one job's events as a chunked SSE/JSONL body.

        No thread blocks while the stream idles: the scheduler's
        appends set ``wakeup`` through ``call_soon_threadsafe``, and
        chunked encoding lets the connection outlive the stream.
        """
        writer.write(_status_line(200))
        writer.write(
            f"Content-Type: {handle.content_type}\r\n"
            "Cache-Control: no-cache\r\n"
            "Transfer-Encoding: chunked\r\n"
            "Connection: keep-alive\r\n\r\n".encode("ascii")
        )
        encode = encode_sse if handle.format == "sse" else encode_jsonl
        loop = asyncio.get_running_loop()
        wakeup = asyncio.Event()
        handle.log.register_async(loop, wakeup)
        _ASYNC_STREAMS.inc()
        after = handle.after
        try:
            while True:
                wakeup.clear()
                events, closed = handle.log.snapshot(after)
                for event in events:
                    after = event["seq"]
                    STREAM_EVENTS.inc()
                    self._chunk(writer, encode(event))
                if events:
                    await writer.drain()
                if closed:
                    self._chunk(writer, b"")  # terminating 0-chunk
                    await writer.drain()
                    return
                if not events:
                    try:
                        await asyncio.wait_for(wakeup.wait(),
                                               timeout=_HEARTBEAT_S)
                    except asyncio.TimeoutError:
                        self._chunk(writer,
                                    heartbeat_frame(handle.format))
                        await writer.drain()
        finally:
            handle.log.unregister_async(loop, wakeup)
            _ASYNC_STREAMS.inc(-1.0)


def build_async_server(
    host: str = "127.0.0.1",
    port: int = 0,
    cache_dir: str = ".repro-cache",
    workers: int = 1,
    queue_depth: int = 64,
    max_retries: int = 2,
    retry_backoff_s: float = 0.25,
    cache: Optional[RunCache] = None,
) -> AsyncReproServiceServer:
    """Wire cache + scheduler + asyncio server; ``port=0`` = pick free.

    Signature-compatible with :func:`repro.service.server.build_server`
    so callers switch transports by switching constructors.
    """
    scheduler = Scheduler(
        cache if cache is not None else RunCache(cache_dir),
        queue_depth=queue_depth,
        workers=workers,
        max_retries=max_retries,
        retry_backoff_s=retry_backoff_s,
    )
    return AsyncReproServiceServer(host, port, scheduler)


def serve_async(server: AsyncReproServiceServer) -> threading.Thread:
    """Start the loop thread and return it (parity with ``serve``)."""
    return server.start()
