"""Thin urllib client for the simulation service.

:class:`ServiceClient` wraps the v1 JSON API in plain method calls and
maps the server's error envelope ``{"error": {"code", "message",
"detail"}}`` to typed exceptions — :class:`~repro.errors.BackpressureError`
for 429, :class:`~repro.errors.JobNotFoundError` for 404,
:class:`~repro.errors.JobNotReadyError` / :class:`~repro.errors.JobFailedError`
for the two 409s, :class:`~repro.errors.BadRequestError` for 400 — all
subclasses of :class:`~repro.errors.ServiceError`, so existing
``except ServiceError as e: e.status`` code keeps working.

Progress is consumed by *streaming*, not polling: :meth:`watch_job`
iterates the server's JSONL event stream (``GET /v1/jobs/{id}/events``)
and yields each ``state`` / ``cell`` / ``retry`` / ``detach`` event as
it happens, reconnecting with ``after=<last seq>`` if the connection
drops.

The convenience wrappers :meth:`compare` and :meth:`sweep` submit,
stream to completion and rebuild the exact in-process result objects
(:class:`~repro.simulation.experiment.ComparisonResult`,
:class:`~repro.simulation.sweep.SweepResult`) from the payload —
bit-identical KPIs included, since JSON floats round-trip exactly.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.parse
import urllib.request
from typing import Any, Dict, Iterator, List, Optional, Sequence, Union

from repro.errors import (
    BackpressureError,
    BadRequestError,
    JobFailedError,
    JobNotFoundError,
    JobNotReadyError,
    ReproError,
    ServiceError,
)
from repro.service.specs import comparison_from_payload, sweep_from_payload
from repro.simulation.experiment import ComparisonResult
from repro.simulation.sweep import SweepResult

__all__ = ["ServiceClient"]

_TERMINAL = ("done", "failed", "cancelled")

#: envelope code -> exception type; anything else falls back by status.
_CODE_ERRORS = {
    "bad_request": BadRequestError,
    "not_found": JobNotFoundError,
    "unknown_job": JobNotFoundError,
    "not_ready": JobNotReadyError,
    "job_failed": JobFailedError,
    "queue_full": BackpressureError,
}
_STATUS_ERRORS = {
    400: BadRequestError,
    404: JobNotFoundError,
    429: BackpressureError,
}


def _raise_from_envelope(status: int, body: bytes,
                         fallback: str) -> "ServiceError":
    """Build the typed exception for one error response (not raised)."""
    code, message, detail = "error", fallback, None
    try:
        envelope = json.loads(body.decode("utf-8")).get("error")
        if isinstance(envelope, dict):
            code = envelope.get("code", code)
            message = envelope.get("message", message)
            detail = envelope.get("detail")
        elif isinstance(envelope, str):  # pre-v1 servers
            message = envelope
    except Exception:
        pass
    exc_type = _CODE_ERRORS.get(code, _STATUS_ERRORS.get(status,
                                                         ServiceError))
    return exc_type(status, message, code=code, detail=detail)


class ServiceClient:
    """HTTP client for one ``repro-sim serve`` endpoint."""

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # -- plumbing ---------------------------------------------------------

    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        data = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            data = json.dumps(payload).encode("ascii")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            self.base_url + path, data=data, headers=headers, method=method
        )
        try:
            with urllib.request.urlopen(
                request, timeout=self.timeout
            ) as response:
                return json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            raise _raise_from_envelope(
                exc.code, exc.read(), str(exc.reason)
            ) from None
        except urllib.error.URLError as exc:
            raise ServiceError(0, f"cannot reach {self.base_url}: "
                                  f"{exc.reason}") from None

    # -- raw API ----------------------------------------------------------

    def submit(
        self,
        kind: str,
        params: Optional[Dict[str, Any]] = None,
        priority: int = 0,
    ) -> Dict[str, Any]:
        """Submit a job; returns ``{"job": ..., "created": bool}``."""
        return self._request("POST", "/v1/jobs", {
            "kind": kind,
            "params": params or {},
            "priority": priority,
        })

    def job(self, job_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/v1/jobs/{job_id}")["job"]

    def jobs(
        self,
        state: Optional[str] = None,
        limit: int = 100,
        cursor: Optional[str] = None,
    ) -> Dict[str, Any]:
        """One page of ``GET /v1/jobs``: ``{"jobs", "count",
        "next_cursor"}``."""
        query = {"limit": str(limit)}
        if state is not None:
            query["state"] = state
        if cursor is not None:
            query["cursor"] = cursor
        return self._request(
            "GET", "/v1/jobs?" + urllib.parse.urlencode(query)
        )

    def iter_jobs(self, state: Optional[str] = None,
                  page_size: int = 100) -> Iterator[Dict[str, Any]]:
        """Every job snapshot, walking the cursor across pages."""
        cursor: Optional[str] = None
        while True:
            page = self.jobs(state=state, limit=page_size, cursor=cursor)
            for snapshot in page["jobs"]:
                yield snapshot
            cursor = page["next_cursor"]
            if cursor is None:
                return

    def result(self, job_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/v1/jobs/{job_id}/result")["result"]

    def cancel(self, job_id: str) -> Dict[str, Any]:
        """``DELETE``: detach this waiter (cancel when last); job view."""
        return self._request("DELETE", f"/v1/jobs/{job_id}")["job"]

    def release(self, job_id: str) -> Dict[str, Any]:
        """Like :meth:`cancel`, but returns the full ``{"job",
        "detached"}`` payload so callers can see whether the shared
        computation kept running for other waiters."""
        return self._request("DELETE", f"/v1/jobs/{job_id}")

    def cache_stats(self) -> Dict[str, Any]:
        return self._request("GET", "/v1/cache/stats")

    def scenarios(self) -> Dict[str, Any]:
        """The server's scenario catalog: registered scenarios and
        sweepable parameters, plugins included."""
        return self._request("GET", "/v1/scenarios")

    def metrics_text(self) -> str:
        """The server's ``/v1/metrics`` page (Prometheus text format)."""
        request = urllib.request.Request(
            self.base_url + "/v1/metrics",
            headers={"Accept": "text/plain"},
            method="GET",
        )
        try:
            with urllib.request.urlopen(
                request, timeout=self.timeout
            ) as response:
                return response.read().decode("utf-8")
        except urllib.error.HTTPError as exc:
            raise _raise_from_envelope(
                exc.code, exc.read(), str(exc.reason)
            ) from None
        except urllib.error.URLError as exc:
            raise ServiceError(0, f"cannot reach {self.base_url}: "
                                  f"{exc.reason}") from None

    def health(self) -> Dict[str, Any]:
        return self._request("GET", "/healthz")

    # -- streaming --------------------------------------------------------

    def watch_job(
        self,
        job_id: str,
        after: int = 0,
        reconnect: bool = True,
        timeout: Optional[float] = None,
    ) -> Iterator[Dict[str, Any]]:
        """Yield the job's events live until its log closes.

        Consumes the JSONL stream (``?format=jsonl``); each yielded
        dict carries contiguous ``seq`` numbers starting at
        ``after + 1``, so a consumer can assert exactly-once delivery.
        On a dropped connection the stream resumes from the last seen
        ``seq`` (when ``reconnect``).  The iterator ends when the
        server closes the stream *and* the job is terminal.
        """
        deadline = (time.monotonic() + timeout
                    if timeout is not None else None)
        while True:
            url = (f"{self.base_url}/v1/jobs/{job_id}/events"
                   f"?format=jsonl&after={after}")
            request = urllib.request.Request(
                url, headers={"Accept": "application/x-ndjson"},
                method="GET",
            )
            per_read = self.timeout
            if deadline is not None:
                per_read = min(per_read, max(0.05,
                                             deadline - time.monotonic()))
            try:
                with urllib.request.urlopen(
                    request, timeout=per_read
                ) as response:
                    for line in response:
                        text = line.strip()
                        if not text:  # heartbeat
                            continue
                        event = json.loads(text.decode("utf-8"))
                        after = event.get("seq", after)
                        yield event
            except urllib.error.HTTPError as exc:
                raise _raise_from_envelope(
                    exc.code, exc.read(), str(exc.reason)
                ) from None
            except (urllib.error.URLError, OSError,
                    json.JSONDecodeError):
                if not reconnect:
                    return
            # The server ends the stream when the log closes; confirm
            # the job is really terminal before stopping (a dropped
            # connection mid-job reconnects from the last seq).
            snapshot = self.job(job_id)
            if snapshot["state"] in _TERMINAL:
                return
            if not reconnect:
                return
            if deadline is not None and time.monotonic() >= deadline:
                raise ReproError(
                    f"job {job_id} still {snapshot['state']} after "
                    f"{timeout:g}s of streaming"
                )

    def _await(self, job_id: str, timeout: float = 60.0) -> Dict[str, Any]:
        """Stream events until terminal; raise on failure/timeout."""
        for event in self.watch_job(job_id, timeout=timeout):
            if (event.get("event") == "state"
                    and event.get("state") in _TERMINAL):
                if event["state"] == "failed":
                    raise JobFailedError(
                        409, f"job {job_id} failed: {event.get('error')}",
                        code="job_failed", detail=event,
                    )
                break
        return self.job(job_id)

    # -- conveniences -----------------------------------------------------

    def compare(
        self,
        a: Union[str, Dict[str, Any]] = "hackathon",
        b: Union[str, Dict[str, Any]] = "traditional",
        seeds: Union[int, Sequence[int]] = 3,
        timeout: float = 120.0,
    ) -> ComparisonResult:
        """Submit a compare job, stream to done, rebuild the result."""
        seeds_param = seeds if isinstance(seeds, int) else list(seeds)
        job = self.submit(
            "compare", {"a": a, "b": b, "seeds": seeds_param}
        )["job"]
        self._await(job["id"], timeout=timeout)
        return comparison_from_payload(self.result(job["id"]))

    def sweep(
        self,
        parameter: str = "cadence",
        values: Optional[Sequence[float]] = None,
        seeds: Union[int, Sequence[int]] = 2,
        timeout: float = 240.0,
    ) -> SweepResult:
        """Submit a sweep job, stream to done, rebuild the result."""
        params: Dict[str, Any] = {"parameter": parameter}
        if values is not None:
            params["values"] = list(values)
        params["seeds"] = seeds if isinstance(seeds, int) else list(seeds)
        job = self.submit("sweep", params)["job"]
        self._await(job["id"], timeout=timeout)
        return sweep_from_payload(self.result(job["id"]))
