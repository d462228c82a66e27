"""Job model for the simulation service.

A :class:`Job` is one unit of queued work — a ``compare``, ``sweep`` or
``replicate`` request — moving through the state machine::

    queued ──► running ──► done
       │          │  └───► failed     (after retries are exhausted)
       └──────────┴──────► cancelled

Transitions are validated: an illegal move (say ``done → running``)
raises :class:`~repro.errors.JobStateError`, so scheduler bugs surface
as exceptions instead of silently corrupted state.  Progress is tracked
per cell — one cell is one ``(scenario, seed)`` simulator run — and
distinguishes cells served from the run store from cells computed
fresh, which is what makes coalescing and crash-resume visible to
clients polling ``GET /v1/jobs/{id}``.

A job is the single record the scheduler keeps of one submission: it
owns its :class:`~repro.service.events.JobEventLog` from creation, and
a queued job carries its :class:`~repro.service.specs.JobPlan` until it
ends.  Neither is part of :meth:`Job.to_dict`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.errors import JobStateError
from repro.service.events import JobEventLog

if TYPE_CHECKING:
    from repro.service.specs import JobPlan

__all__ = [
    "JOB_KINDS",
    "QUEUED",
    "RUNNING",
    "DONE",
    "FAILED",
    "CANCELLED",
    "TERMINAL_STATES",
    "JobProgress",
    "Job",
]

JOB_KINDS = ("compare", "sweep", "replicate")

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

TERMINAL_STATES = frozenset({DONE, FAILED, CANCELLED})

#: state -> states it may legally move to
_TRANSITIONS = {
    QUEUED: frozenset({RUNNING, CANCELLED}),
    RUNNING: frozenset({DONE, FAILED, CANCELLED}),
    DONE: frozenset(),
    FAILED: frozenset(),
    CANCELLED: frozenset(),
}


@dataclass
class JobProgress:
    """Per-cell completion counters for one job."""

    cells_total: int = 0
    cells_done: int = 0
    cells_cached: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "cells_total": self.cells_total,
            "cells_done": self.cells_done,
            "cells_cached": self.cells_cached,
        }


@dataclass
class Job:
    """One submitted unit of work and everything known about it."""

    id: str
    kind: str
    params: Dict[str, Any]
    key: str  # coalescing key: hash over the resolved cell set
    priority: int = 0
    state: str = QUEUED
    progress: JobProgress = field(default_factory=JobProgress)
    attempts: int = 0  # retries consumed so far (0 = first try pending)
    coalesced: int = 0  # duplicate submissions folded into this job
    waiters: int = 1  # clients attached (1 + coalesced - detached)
    error: Optional[str] = None
    result: Optional[Dict[str, Any]] = None
    created_ts: float = field(default_factory=time.time)
    started_ts: Optional[float] = None
    finished_ts: Optional[float] = None
    cancel_event: threading.Event = field(default_factory=threading.Event)
    #: The plan a dispatcher runs; set while queued or running only.
    plan: Optional["JobPlan"] = field(default=None, repr=False,
                                      compare=False)
    events: JobEventLog = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.events = JobEventLog(self.id)

    # -- state machine ----------------------------------------------------

    def _move(self, target: str) -> None:
        if target not in _TRANSITIONS[self.state]:
            raise JobStateError(
                f"job {self.id}: illegal transition "
                f"{self.state!r} -> {target!r}"
            )
        self.state = target

    def mark_running(self) -> None:
        self._move(RUNNING)
        if self.started_ts is None:
            self.started_ts = time.time()

    def mark_done(self, result: Dict[str, Any]) -> None:
        self._move(DONE)
        self.result = result
        self.finished_ts = time.time()

    def mark_failed(self, error: str) -> None:
        self._move(FAILED)
        self.error = error
        self.finished_ts = time.time()

    def mark_cancelled(self) -> None:
        self._move(CANCELLED)
        self.cancel_event.set()
        self.finished_ts = time.time()

    # -- views ------------------------------------------------------------

    @property
    def is_terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe public view (the result rides its own endpoint)."""
        return {
            "id": self.id,
            "kind": self.kind,
            "params": self.params,
            "state": self.state,
            "priority": self.priority,
            "progress": self.progress.to_dict(),
            "attempts": self.attempts,
            "coalesced": self.coalesced,
            "waiters": self.waiters,
            "error": self.error,
            "result_ready": self.state == DONE,
            "created_ts": self.created_ts,
            "started_ts": self.started_ts,
            "finished_ts": self.finished_ts,
        }
