"""Per-job event streams: the scheduler's progress firehose.

Polling ``GET /v1/jobs/{id}`` tells a client *that* progress happened;
this module tells it *when*.  Every job owns one append-only
:class:`JobEventLog` (its ``events`` attribute, made with the job) — a
sequence-numbered list of JSON-safe event dictionaries — fed by the
scheduler as the job moves through its lifecycle:

========  ==========================================================
event     payload (beyond ``seq``/``ts``/``job_id``)
========  ==========================================================
state     ``state`` (queued/running/done/failed/cancelled), plus
          ``error`` when failed and ``result_ready`` when terminal
cell      ``index`` into the plan's cell list, ``cached`` (served
          from the store vs computed), running ``done``/``total``
          counters and the ``attempt`` the cell resolved on
retry     ``attempt`` number and the worker-crash ``error`` that
          triggered it
detach    a coalesced waiter cancelled; ``waiters`` still attached
========  ==========================================================

Sequence numbers are per-job, contiguous and start at 1, so a
consumer can detect gaps, resume after a disconnect (``after=seq``,
or SSE ``Last-Event-ID``) and assert exactly-once delivery.  The log
closes when the terminal ``state`` event lands; late appends are
dropped (they would have no consumer, and a terminal job emits
nothing further by construction).

Consumers never block on a log.  The async front end's stream
writers read it with :meth:`JobEventLog.snapshot` and park on an
``asyncio.Event`` registered through
:meth:`JobEventLog.register_async`; appends, made on scheduler
threads, wake them with ``loop.call_soon_threadsafe`` — no thread per
stream, which is what lets one process hold thousands of open SSE
connections.  A plain ``threading.Lock`` guards the list.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.obs import REGISTRY

__all__ = ["EVENT_STATE", "EVENT_CELL", "EVENT_RETRY", "EVENT_DETACH",
           "JobEventLog"]

EVENT_STATE = "state"
EVENT_CELL = "cell"
EVENT_RETRY = "retry"
EVENT_DETACH = "detach"


def _emitted_counter(etype: str):
    return REGISTRY.counter(
        "service_events_emitted_total",
        help="Job lifecycle events appended to per-job event logs",
        type=etype,
    )


class JobEventLog:
    """Append-only, sequence-numbered event list for one job."""

    def __init__(self, job_id: str) -> None:
        self.job_id = job_id
        self._events: List[Dict[str, Any]] = []
        self._lock = threading.Lock()
        self._closed = False
        # Asyncio subscribers parked on this log: each append sets
        # their event on their own loop, thread-safely.
        self._async_waiters: Set[Tuple[Any, Any]] = set()

    # -- producer side ----------------------------------------------------

    def append(self, etype: str, close: bool = False,
               **data: Any) -> Optional[Dict[str, Any]]:
        """Append one event; returns it (or None if already closed)."""
        with self._lock:
            if self._closed:
                return None
            event: Dict[str, Any] = {
                "seq": len(self._events) + 1,
                "ts": round(time.time(), 6),
                "event": etype,
                "job_id": self.job_id,
            }
            event.update(data)
            self._events.append(event)
            if close:
                self._closed = True
            waiters = list(self._async_waiters)
        _emitted_counter(etype).inc()
        for loop, async_event in waiters:
            try:
                loop.call_soon_threadsafe(async_event.set)
            except RuntimeError:
                pass  # subscriber's loop already closed; it unregisters
        return event

    # -- consumer side ----------------------------------------------------

    def snapshot(self, after: int = 0) -> Tuple[List[Dict[str, Any]], bool]:
        """``(events with seq > after, closed)`` — non-blocking."""
        with self._lock:
            return self._events[after:], self._closed

    # -- asyncio bridge ---------------------------------------------------

    def register_async(self, loop: Any, async_event: Any) -> None:
        """Wake ``async_event`` (on ``loop``) at the next append."""
        with self._lock:
            self._async_waiters.add((loop, async_event))

    def unregister_async(self, loop: Any, async_event: Any) -> None:
        with self._lock:
            self._async_waiters.discard((loop, async_event))

