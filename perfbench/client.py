"""Minimal asyncio HTTP/1.1 client for the v1 service: keep-alive, chunked.

One :class:`Connection` is one TCP connection reused for every request
a benchmark client makes, so connection set-up is not part of any
timed request.  Only what the benchmark needs is implemented:
``Content-Length`` bodies, chunked JSONL event streams and the
Prometheus text of ``/v1/metrics``.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Any, Dict, List, Optional, Tuple

_HOST = "127.0.0.1"


class HTTPError(Exception):
    """A non-2xx answer; carries the status and the decoded envelope."""

    def __init__(self, status: int, body: Any) -> None:
        super().__init__(f"HTTP {status}: {body!r}")
        self.status = status
        self.body = body


class Connection:
    """One keep-alive connection; every request records its round trip."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer
        #: ``(kind, seconds)`` per request; kind is "stream" or "plain".
        self.rtts: List[Tuple[str, float]] = []

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection(_HOST, port)
        return cls(reader, writer)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except OSError:
            pass

    async def _head(self) -> Tuple[int, Dict[str, str]]:
        head = await self.reader.readuntil(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        headers = {}
        for line in lines[1:]:
            name, sep, value = line.partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        return status, headers

    def _send(self, method: str, path: str, accept: str,
              body: bytes = b"") -> None:
        self.writer.write(
            f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Accept: {accept}\r\nContent-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n".encode("ascii") + body
        )

    async def request(self, method: str, path: str,
                      payload: Optional[Dict[str, Any]] = None,
                      accept: str = "application/json"
                      ) -> Tuple[int, bytes]:
        """Send one request and return ``(status, raw body)``."""
        body = b"" if payload is None else json.dumps(payload).encode()
        start = time.perf_counter()
        self._send(method, path, accept, body)
        await self.writer.drain()
        status, headers = await self._head()
        length = int(headers.get("content-length", "0"))
        raw = await self.reader.readexactly(length) if length else b""
        self.rtts.append(("plain", time.perf_counter() - start))
        return status, raw

    async def json(self, method: str, path: str,
                   payload: Optional[Dict[str, Any]] = None
                   ) -> Tuple[int, Any]:
        status, raw = await self.request(method, path, payload)
        return status, json.loads(raw) if raw else None

    async def events(self, job_id: str) -> List[Dict[str, Any]]:
        """Read ``/v1/jobs/{id}/events`` as JSONL until the stream ends."""
        start = time.perf_counter()
        self._send("GET", f"/v1/jobs/{job_id}/events?format=jsonl",
                   "application/x-ndjson")
        await self.writer.drain()
        status, headers = await self._head()
        if status != 200 or headers.get("transfer-encoding") != "chunked":
            length = int(headers.get("content-length", "0"))
            raw = await self.reader.readexactly(length) if length else b""
            raise HTTPError(status, raw.decode("utf-8", "replace"))
        events: List[Dict[str, Any]] = []
        buffer = b""
        while True:
            size = int((await self.reader.readuntil(b"\r\n")).strip(), 16)
            chunk = await self.reader.readexactly(size + 2)
            if size == 0:
                break
            buffer += chunk[:-2]
            while b"\n" in buffer:
                line, _, buffer = buffer.partition(b"\n")
                if line.strip():
                    events.append(json.loads(line))
        self.rtts.append(("stream", time.perf_counter() - start))
        return events


async def scrape(port: int) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """``/v1/metrics`` samples and ``/v1/cache/stats`` over one connection."""
    conn = await Connection.open(port)
    try:
        status, raw = await conn.request("GET", "/v1/metrics",
                                         accept="text/plain")
        if status != 200:
            raise HTTPError(status, raw)
        status, stats = await conn.json("GET", "/v1/cache/stats")
        if status != 200:
            raise HTTPError(status, stats)
    finally:
        await conn.close()
    return parse_prometheus(raw.decode("utf-8")), stats


def parse_prometheus(text: str) -> Dict[str, float]:
    """``{sample name with labels: value}`` from exposition text."""
    samples: Dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        samples[name] = float(value)
    return samples
