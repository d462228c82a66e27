"""The v1 API surface, independent of the HTTP transport.

The asyncio server (:mod:`repro.service.asyncserver`) is a thin
transport over the :class:`ServiceAPI` in this module: it parses bytes
off a socket, calls :meth:`ServiceAPI.dispatch`, and writes back either
a :class:`Response` (a complete JSON/text answer) or pumps a
:class:`StreamHandle` (a live SSE/JSONL event stream).  Every
endpoint's routes, status codes and error envelope live here once:

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

**Error envelope.**  Every non-2xx answer is::

    {"error": {"code": <machine code>, "message": <human text>,
               "detail": <object or null>}}

========  ====================  =====================================
status    code                  meaning
========  ====================  =====================================
400       ``bad_request``       malformed body, params or query
404       ``not_found``         no such endpoint
404       ``unknown_job``       job id not in the scheduler
405       ``method_not_allowed``  endpoint exists, verb does not
406       ``not_acceptable``    ``Accept`` excludes the content type
409       ``not_ready``         result requested before ``done``
409       ``job_failed``        result requested of a failed job
429       ``queue_full``        backpressure; ``Retry-After`` header
                                and ``detail.retry_after_s`` carry the
                                suggested delay
========  ====================  =====================================

**Content negotiation.**  JSON endpoints answer 406 when an ``Accept``
header explicitly excludes ``application/json``; the events endpoint
picks SSE (``text/event-stream``) or JSONL (``application/x-ndjson``)
from ``Accept``, overridable with ``?format=sse|jsonl``; ``/v1/metrics``
speaks ``text/plain`` (Prometheus exposition).
"""

from __future__ import annotations

import json
import time
import urllib.parse
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.errors import (
    ConfigurationError,
    QueueFullError,
    UnknownJobError,
)
from repro.obs import REGISTRY
from repro.service.events import JobEventLog
from repro.service.jobs import DONE, FAILED
from repro.service.scheduler import Scheduler

__all__ = [
    "RETRY_AFTER_S",
    "MAX_BODY_BYTES",
    "STREAM_CONTENT_TYPES",
    "Response",
    "StreamHandle",
    "ServiceAPI",
    "accept_allows",
    "encode_sse",
    "encode_jsonl",
    "error_payload",
    "heartbeat_frame",
]

#: Suggested client backoff when the queue rejects a submission.
RETRY_AFTER_S = 0.5

#: 1 MiB of JSON is plenty for any job spec.
MAX_BODY_BYTES = 1 << 20

#: Default page size for ``GET /v1/jobs`` (capped at 1000).
DEFAULT_PAGE_LIMIT = 100
MAX_PAGE_LIMIT = 1000

STREAM_CONTENT_TYPES = {
    "sse": "text/event-stream",
    "jsonl": "application/x-ndjson",
}



@dataclass
class Response:
    """A complete HTTP answer, transport-agnostic."""

    status: int
    body: bytes
    content_type: str = "application/json"
    headers: Tuple[Tuple[str, str], ...] = ()


@dataclass
class StreamHandle:
    """An accepted ``GET /v1/jobs/{id}/events`` awaiting its pump.

    The transport moves the frames (chunked writes on the asyncio
    server); the format, resume offset and underlying event log are
    fixed here.
    """

    job_id: str
    log: JobEventLog
    format: str  # "sse" | "jsonl"
    after: int = 0
    content_type: str = field(init=False)

    def __post_init__(self) -> None:
        self.content_type = STREAM_CONTENT_TYPES[self.format]


Outcome = Union[Response, StreamHandle]


# -- envelope -------------------------------------------------------------


def error_payload(code: str, message: str,
                  detail: Optional[Dict[str, Any]] = None
                  ) -> Dict[str, Any]:
    """The documented error envelope, identical on every endpoint."""
    return {"error": {"code": code, "message": message, "detail": detail}}


def _json_response(status: int, payload: Dict[str, Any],
                   headers: Tuple[Tuple[str, str], ...] = ()) -> Response:
    return Response(status, json.dumps(payload).encode("utf-8"),
                    headers=headers)


def _error(status: int, code: str, message: str,
           detail: Optional[Dict[str, Any]] = None,
           headers: Tuple[Tuple[str, str], ...] = ()) -> Response:
    return _json_response(status, error_payload(code, message, detail),
                          headers=headers)


# -- content negotiation --------------------------------------------------


def accept_allows(accept: Optional[str], offered: str) -> bool:
    """True when an ``Accept`` header admits the offered media type.

    A missing/empty header admits everything.  Parameters (``;q=...``)
    are ignored except ``q=0`` which explicitly refuses a type.
    """
    if not accept:
        return True
    offered_type, _, offered_sub = offered.partition("/")
    for clause in accept.split(","):
        media, _, params = clause.strip().partition(";")
        quality = 1.0
        for param in params.split(";"):
            key, _, value = param.strip().partition("=")
            if key.strip().lower() == "q":
                try:
                    quality = float(value.strip())
                except ValueError:
                    pass
        if quality <= 0:
            continue
        media = media.strip()
        if media == "*/*" or media == offered:
            return True
        mtype, _, msub = media.partition("/")
        if mtype == offered_type and msub == "*":
            return True
    return False


def _header(headers: Optional[Dict[str, str]], name: str
            ) -> Optional[str]:
    """Header lookup; the transport passes lower-case header names."""
    return None if headers is None else headers.get(name.lower())


# -- stream frames --------------------------------------------------------


def encode_sse(event: Dict[str, Any]) -> bytes:
    """One SSE frame: id/event/data lines, blank-line terminated."""
    return (
        f"id: {event['seq']}\n"
        f"event: {event['event']}\n"
        f"data: {json.dumps(event)}\n\n"
    ).encode("utf-8")


def encode_jsonl(event: Dict[str, Any]) -> bytes:
    return (json.dumps(event) + "\n").encode("utf-8")


def heartbeat_frame(fmt: str) -> bytes:
    """A no-op frame keeping an idle stream's transport alive."""
    return b": keep-alive\n\n" if fmt == "sse" else b"\n"


# -- query helpers --------------------------------------------------------


def _single(query: Dict[str, List[str]], name: str) -> Optional[str]:
    values = query.get(name)
    if not values:
        return None
    if len(values) > 1:
        raise ConfigurationError(f"duplicate query parameter {name!r}")
    return values[0]


def _int_param(query: Dict[str, List[str]], name: str,
               default: int) -> int:
    raw = _single(query, name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ConfigurationError(
            f"query parameter {name!r} must be an integer, got {raw!r}"
        ) from None


# -- the API --------------------------------------------------------------


def _refuse_constant(name: str) -> Any:
    """Reject ``NaN``/``Infinity``, which :func:`json.loads` would accept."""
    raise ValueError(f"{name} is not valid JSON")


class ServiceAPI:
    """Transport-agnostic v1 endpoint logic over one scheduler."""

    def __init__(self, scheduler: Scheduler) -> None:
        self.scheduler = scheduler
        self.started_ts = time.time()

    # -- dispatch ---------------------------------------------------------

    def dispatch(self, method: str, target: str, headers: Any = None,
                 body: bytes = b"") -> Outcome:
        """Route one request; never raises — errors become envelopes."""
        split = urllib.parse.urlsplit(target)
        parts = [p for p in split.path.split("/") if p]
        try:
            query = urllib.parse.parse_qs(split.query,
                                          keep_blank_values=True)
            return self._route(method, parts, query, headers, body)
        except UnknownJobError as exc:
            return _error(404, "unknown_job", str(exc),
                          detail={"job_id": exc.job_id})
        except QueueFullError as exc:
            return _error(
                429, "queue_full", str(exc),
                detail={"retry_after_s": RETRY_AFTER_S},
                headers=(("Retry-After", "1"),),
            )
        except ConfigurationError as exc:
            return _error(400, "bad_request", str(exc))

    def _route(self, method: str, parts: List[str],
               query: Dict[str, List[str]], headers: Any,
               body: bytes) -> Outcome:
        if parts == ["healthz"]:
            return self._method(method, {"GET": self._healthz}, headers)
        if parts[:1] != ["v1"]:
            return self._not_found(method, parts)
        rest = parts[1:]
        if rest == ["jobs"]:
            return self._method(method, {
                "POST": lambda h: self._submit(h, body),
                "GET": lambda h: self._list_jobs(query, h),
            }, headers)
        if rest[:1] == ["jobs"] and len(rest) == 2:
            job_id = rest[1]
            return self._method(method, {
                "GET": lambda h: self._job_status(job_id, h),
                "DELETE": lambda h: self._release(job_id, h),
            }, headers)
        if rest[:1] == ["jobs"] and len(rest) == 3:
            job_id = rest[1]
            if rest[2] == "result":
                return self._method(method, {
                    "GET": lambda h: self._job_result(job_id, h),
                }, headers)
            if rest[2] == "events":
                return self._method(method, {
                    "GET": lambda h: self._job_events(job_id, query, h),
                }, headers)
        if rest == ["cache", "stats"]:
            return self._method(method, {"GET": self._cache_stats},
                                headers)
        if rest == ["scenarios"]:
            return self._method(method, {"GET": self._scenarios},
                                headers)
        if rest == ["metrics"]:
            return self._method(method, {"GET": self._metrics}, headers)
        return self._not_found(method, parts)

    def _method(self, method: str, routes: Dict[str, Any],
                headers: Any) -> Outcome:
        handler = routes.get(method)
        if handler is None:
            return _error(
                405, "method_not_allowed",
                f"method {method} not allowed here",
                detail={"allowed": sorted(routes)},
                headers=(("Allow", ", ".join(sorted(routes))),),
            )
        return handler(headers)

    @staticmethod
    def _not_found(method: str, parts: List[str]) -> Response:
        return _error(404, "not_found",
                      f"no such endpoint: {method} /{'/'.join(parts)}")

    @staticmethod
    def _need_json(headers: Any) -> Optional[Response]:
        accept = _header(headers, "Accept")
        if not accept_allows(accept, "application/json"):
            return _error(
                406, "not_acceptable",
                f"this endpoint serves application/json, "
                f"not acceptable to {accept!r}",
            )
        return None

    # -- endpoints --------------------------------------------------------

    def _submit(self, headers: Any, body: bytes) -> Outcome:
        refused = self._need_json(headers)
        if refused is not None:
            return refused
        try:
            payload = json.loads(body.decode("utf-8") or "{}",
                                 parse_constant=_refuse_constant)
        except (ValueError, RecursionError):
            # ValueError covers undecodable bytes, malformed JSON and
            # the NaN/Infinity literals; RecursionError, nesting deeper
            # than the decoder's stack.
            return _error(400, "bad_request",
                          "request body is not valid JSON")
        if not isinstance(payload, dict):
            return _error(400, "bad_request",
                          "request body must be a JSON object")
        kind = payload.get("kind")
        params = payload.get("params", {})
        priority = payload.get("priority", 0)
        if not isinstance(kind, str):
            return _error(400, "bad_request",
                          "missing or non-string 'kind'")
        if not isinstance(priority, int) or isinstance(priority, bool):
            return _error(400, "bad_request",
                          "'priority' must be an integer")
        job, created = self.scheduler.submit(kind, params,
                                             priority=priority)
        return _json_response(
            201 if created else 200,
            {"job": self.scheduler.describe(job.id), "created": created},
            headers=(("Location", f"/v1/jobs/{job.id}"),),
        )

    def _list_jobs(self, query: Dict[str, List[str]],
                   headers: Any) -> Outcome:
        refused = self._need_json(headers)
        if refused is not None:
            return refused
        state = _single(query, "state")
        cursor = _single(query, "cursor")
        limit = _int_param(query, "limit", DEFAULT_PAGE_LIMIT)
        if limit > MAX_PAGE_LIMIT:
            raise ConfigurationError(
                f"limit must be <= {MAX_PAGE_LIMIT}, got {limit}"
            )
        jobs, next_cursor = self.scheduler.list_jobs(
            state=state, cursor=cursor, limit=limit
        )
        return _json_response(200, {
            "jobs": jobs,
            "count": len(jobs),
            "next_cursor": next_cursor,
        })

    def _job_status(self, job_id: str, headers: Any) -> Outcome:
        refused = self._need_json(headers)
        if refused is not None:
            return refused
        return _json_response(
            200, {"job": self.scheduler.describe(job_id)}
        )

    def _job_result(self, job_id: str, headers: Any) -> Outcome:
        refused = self._need_json(headers)
        if refused is not None:
            return refused
        snapshot = self.scheduler.describe(job_id)
        if snapshot["state"] == DONE:
            return _json_response(200, {
                "job_id": job_id,
                "result": self.scheduler.result(job_id),
            })
        if snapshot["state"] == FAILED:
            return _error(
                409, "job_failed",
                f"job {job_id} failed: {snapshot['error']}",
                detail={"state": FAILED, "error": snapshot["error"]},
            )
        return _error(
            409, "not_ready",
            f"job {job_id} is {snapshot['state']}, not done",
            detail={"state": snapshot["state"]},
        )

    def _job_events(self, job_id: str, query: Dict[str, List[str]],
                    headers: Any) -> Outcome:
        log = self.scheduler.get(job_id).events  # 404 if unknown
        fmt = _single(query, "format")
        if fmt is None:
            accept = _header(headers, "Accept")
            if (accept_allows(accept, "application/x-ndjson")
                    and not accept_allows(accept, "text/event-stream")):
                fmt = "jsonl"
            elif not accept_allows(accept, "text/event-stream") and \
                    not accept_allows(accept, "application/x-ndjson"):
                return _error(
                    406, "not_acceptable",
                    f"event streams are text/event-stream or "
                    f"application/x-ndjson, not acceptable to "
                    f"{accept!r}",
                )
            else:
                fmt = "sse"
        if fmt not in STREAM_CONTENT_TYPES:
            raise ConfigurationError(
                f"format must be 'sse' or 'jsonl', got {fmt!r}"
            )
        after = _int_param(query, "after", 0)
        last_event_id = _header(headers, "Last-Event-ID")
        if last_event_id is not None and after == 0:
            try:
                after = int(last_event_id)
            except ValueError:
                raise ConfigurationError(
                    f"Last-Event-ID must be an integer, "
                    f"got {last_event_id!r}"
                ) from None
        if after < 0:
            raise ConfigurationError(
                f"after must be >= 0, got {after}"
            )
        return StreamHandle(job_id=job_id, log=log, format=fmt,
                            after=after)

    def _release(self, job_id: str, headers: Any) -> Outcome:
        refused = self._need_json(headers)
        if refused is not None:
            return refused
        job, detached = self.scheduler.release(job_id)
        return _json_response(200, {
            "job": self.scheduler.describe(job.id),
            "detached": detached,
        })

    def _healthz(self, headers: Any) -> Outcome:
        refused = self._need_json(headers)
        if refused is not None:
            return refused
        return _json_response(200, {
            "status": "ok",
            "uptime_s": round(time.time() - self.started_ts, 3),
            "jobs": self.scheduler.stats(),
        })

    def _cache_stats(self, headers: Any) -> Outcome:
        refused = self._need_json(headers)
        if refused is not None:
            return refused
        cache = self.scheduler.cache
        stats = cache.stats()
        payload = asdict(stats)
        payload["hit_ratio"] = round(stats.hit_ratio, 6)
        payload["session_hits"] = cache.session_hits
        payload["session_misses"] = cache.session_misses
        payload["session_waits"] = cache.session_waits
        payload["session_bytes_served"] = cache.session_bytes_served
        return _json_response(200, payload)

    def _scenarios(self, headers: Any) -> Outcome:
        refused = self._need_json(headers)
        if refused is not None:
            return refused
        from repro.registry import CATALOG

        return _json_response(200, CATALOG.describe())

    def _metrics(self, headers: Any) -> Outcome:
        accept = _header(headers, "Accept")
        if not accept_allows(accept, "text/plain"):
            return _error(
                406, "not_acceptable",
                f"/v1/metrics serves text/plain (Prometheus 0.0.4), "
                f"not acceptable to {accept!r}",
            )
        return Response(
            200,
            REGISTRY.render_prometheus().encode("utf-8"),
            content_type="text/plain; version=0.0.4; charset=utf-8",
        )
