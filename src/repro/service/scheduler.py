"""Bounded priority scheduler with coalescing, backpressure and retry.

One :class:`Scheduler` owns the job table, a bounded priority queue and
``workers`` dispatcher threads that drain it, so up to ``workers`` jobs
run at once.  A job whose cells are all in the store never queues:
:meth:`Scheduler.submit` serves it on the submitting thread, with the
same events and result a dispatcher would produce, so it never waits
behind a cold one.  ``workers=1`` keeps one dispatcher and computes in
the server process, running queued jobs in strict priority order.
With ``workers >= 2`` every job's missing cells go to one
:class:`~repro.simulation.cells.WorkerPool` of ``workers`` processes that
lives as long as the scheduler: it starts on the first cell that needs
it and :meth:`Scheduler.shutdown` stops it.  Four behaviours make it a
serving component rather than a work loop:

* **Request coalescing** — a submission whose resolved cell set matches
  an in-flight (queued *or* running) job returns that job instead of
  queueing a duplicate, so N identical clients share one computation.
  Cells already in the :class:`~repro.store.RunCache` are likewise
  never recomputed, which is the second, finer-grained dedup layer.
* **Backpressure** — when ``queue_depth`` jobs are already waiting,
  :meth:`submit` of a job that must queue raises
  :class:`~repro.errors.QueueFullError`; the HTTP layer maps that to
  ``429 Too Many Requests``.
* **Retry with exponential backoff** — a worker-process death
  (:class:`~repro.errors.WorkerCrashError`) requeues the job after
  ``retry_backoff_s * 2**attempt``; cells persisted before the crash
  are hits on the next attempt, so retries only recompute the tail.
  A death breaks the shared pool for everyone: every job with cells in
  flight at that moment retries and is charged one attempt, and the
  pool is replaced once.
* **Cancellation** — queued jobs cancel immediately; running jobs are
  cancelled cooperatively between cells.  A cancelled job withdraws
  only its own queued cells from the shared pool; its cells already
  running finish and their results are dropped.  A coalesced job counts its
  attached *waiters*: :meth:`release` (what ``DELETE /v1/jobs/{id}``
  calls) detaches one waiter and only cancels the shared computation
  when the last one lets go, so one client's cancel never kills
  another client's result.

Everything mutating a job or the queue happens under one lock, so the
HTTP front end can poll and cancel while the dispatchers execute.

The job table holds one record per job, the :class:`~repro.service.jobs.Job`
itself.  A queued job carries its plan until it ends, and every job
ends through :meth:`Scheduler._finish_locked`, which makes the
transition, frees the coalescing key and the plan, counts the job and
appends its closing ``state`` event.

Progress is also *pushed*, not just polled: every job owns a
sequence-numbered :class:`~repro.service.events.JobEventLog`
(``job.events``), fed with ``state`` / ``cell`` / ``retry`` /
``detach`` events as execution proceeds.  The HTTP layers stream these
as SSE/JSONL so clients stop polling.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import (
    ConfigurationError,
    QueueFullError,
    RunCancelled,
    UnknownJobError,
)
from repro.errors import WorkerCrashError
from repro.obs import REGISTRY
from repro.service.events import (
    EVENT_CELL,
    EVENT_DETACH,
    EVENT_RETRY,
    EVENT_STATE,
)
from repro.service.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    Job,
    JobProgress,
)
from repro.service.specs import build_plan
from repro.service.workers import execute_plan
from repro.simulation.cells import WorkerPool, effective_workers
from repro.store.runcache import RunCache

__all__ = ["Scheduler"]

_SUBMITTED = REGISTRY.counter(
    "service_jobs_submitted_total",
    help="Jobs accepted, queued or served from the store at submit "
         "(coalesced submissions excluded)",
)
_COALESCED = REGISTRY.counter(
    "service_jobs_coalesced_total",
    help="Submissions folded onto an already in-flight job",
)
_RETRIES = REGISTRY.counter(
    "scheduler_retries_total",
    help="Job re-executions after a worker-process crash",
)
_QUEUE_DEPTH = REGISTRY.gauge(
    "service_queue_depth",
    help="Jobs currently waiting in the priority queue",
)
_DETACHES = REGISTRY.counter(
    "service_waiter_detaches_total",
    help="Cancellations that detached one coalesced waiter without "
         "cancelling the shared job",
)
_LATENCY = REGISTRY.histogram(
    "service_job_latency_seconds",
    help="Submit-to-terminal latency per job",
)


def _count_cell(job: Job, index: int, cached: bool) -> Dict[str, Any]:
    """Count one resolved cell on ``job``; return its ``cell`` event."""
    progress = job.progress
    progress.cells_done += 1
    if cached:
        progress.cells_cached += 1
    return {"index": index, "cached": cached, "done": progress.cells_done,
            "cached_count": progress.cells_cached,
            "total": progress.cells_total, "attempt": job.attempts}


class Scheduler:
    """Priority job queue in front of one shared :class:`RunCache`."""

    def __init__(
        self,
        cache: RunCache,
        queue_depth: int = 64,
        workers: int = 1,
        max_retries: int = 2,
        retry_backoff_s: float = 0.25,
    ) -> None:
        if queue_depth < 1:
            raise ConfigurationError(
                f"queue_depth must be >= 1, got {queue_depth}"
            )
        # Clamp to the core count: oversubscribing a small machine makes
        # fan-out slower than serial (see BENCH_perf.json), and a serve
        # process configured for a bigger box degrades gracefully here.
        # Never clamp a pooled request (>= 2) below 2, though — a pool is
        # what isolates the server from crashing runners, and retry-on-
        # worker-death only works while the dispatchers themselves
        # survive.  ``workers`` is also the number of dispatchers.
        self.workers = max(min(workers, 2), effective_workers(workers))
        if max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {max_retries}"
            )
        self.cache = cache
        self.queue_depth = queue_depth
        self._pool = WorkerPool(self.workers) if self.workers > 1 else None
        self.max_retries = max_retries
        self.retry_backoff_s = retry_backoff_s
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._heap: List[Tuple[int, int, str]] = []  # (-priority, seq, id)
        self._jobs: Dict[str, Job] = {}
        self._by_key: Dict[str, str] = {}  # coalescing key -> in-flight id
        self._queued_count = 0  # jobs in QUEUED state (mirrors the gauge)
        self._ids = itertools.count()
        self._ticket = itertools.count()  # FIFO tie-break within priority
        self._stopping = False
        self._dispatchers = [
            threading.Thread(target=self._dispatch_loop,
                             name=f"repro-dispatcher-{n}", daemon=True)
            for n in range(self.workers)
        ]
        for thread in self._dispatchers:
            thread.start()

    # -- public API -------------------------------------------------------

    def submit(
        self, kind: str, params: Dict[str, Any], priority: int = 0
    ) -> Tuple[Job, bool]:
        """Queue a job, or serve it from the store; return ``(job, created)``.

        A plan whose every cell the store serves is run to ``done``
        right here and never queues.  ``created`` is False when the
        submission coalesced onto an already in-flight job with the
        same resolved cell set.  Raises :class:`QueueFullError` when a
        job must queue and the queue is at depth, and
        :class:`ConfigurationError` when the parameters are malformed.
        """
        plan = build_plan(kind, params)  # validates before taking the lock
        with self._lock:
            existing = self._coalesce_locked(plan.key)
            if existing is not None:
                return existing, False
        # A plan the store holds in full is answered here, on the
        # submitting thread: it never queues or wakes a dispatcher.
        # The attempt computes nothing; on any absent or corrupt cell
        # it returns None having counted no hit, and the job queues.
        served: List[int] = []
        payload = execute_plan(
            plan, self.cache,
            on_progress=lambda index, _: served.append(index),
            stored_only=True,
        )
        with self._lock:
            if payload is None:
                existing = self._coalesce_locked(plan.key)
                if existing is not None:
                    return existing, False
                if self._queued_count >= self.queue_depth:
                    raise QueueFullError(
                        f"queue full ({self._queued_count} job(s) "
                        f"waiting, depth {self.queue_depth})"
                    )
            job = Job(
                id=f"j{next(self._ids):06d}",
                kind=plan.kind,
                params=params,
                key=plan.key,
                priority=int(priority),
                progress=JobProgress(len(plan.scenarios)),
            )
            self._jobs[job.id] = job
            _SUBMITTED.inc()
            job.events.append(EVENT_STATE, state=QUEUED, kind=job.kind)
            if payload is not None:
                # What a dispatcher would emit: running, one cached
                # cell event per cell, then done.
                job.mark_running()
                job.events.append(EVENT_STATE, state=RUNNING)
                for index in served:
                    job.events.append(EVENT_CELL,
                                      **_count_cell(job, index, True))
                self._finish_locked(job, DONE, result=payload)
                return job, True
            job.plan = plan
            self._by_key[plan.key] = job.id
            self._push(job)
            self._queued_count += 1
            _QUEUE_DEPTH.set(self._queued_count)
            self._wakeup.notify_all()
            return job, True

    def _coalesce_locked(self, key: str) -> Optional[Job]:
        """Attach one more waiter to the in-flight job with ``key``."""
        existing_id = self._by_key.get(key)
        if existing_id is None:
            return None
        existing = self._jobs[existing_id]
        if existing.is_terminal:
            return None
        existing.coalesced += 1
        existing.waiters += 1
        _COALESCED.inc()
        return existing

    def _lookup_locked(self, job_id: str) -> Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise UnknownJobError(job_id)
        return job

    def get(self, job_id: str) -> Job:
        with self._lock:
            return self._lookup_locked(job_id)

    def describe(self, job_id: str) -> Dict[str, Any]:
        """JSON-safe snapshot of one job, taken under the lock."""
        with self._lock:
            return self._lookup_locked(job_id).to_dict()

    def result(self, job_id: str) -> Optional[Dict[str, Any]]:
        """The result payload, or None while the job is not done."""
        with self._lock:
            return self._lookup_locked(job_id).result

    def cancel(self, job_id: str) -> Job:
        """Force-cancel a job; terminal jobs are left untouched.

        A queued job flips to ``cancelled`` immediately; a running job
        gets its cancel event set and transitions when the executor
        notices (between cells).  This cancels the underlying
        computation regardless of how many waiters coalesced onto it —
        see :meth:`release` for the per-waiter semantics the HTTP
        ``DELETE`` endpoint uses.
        """
        with self._lock:
            job = self._lookup_locked(job_id)
            self._cancel_locked(job)
            return job

    def _cancel_locked(self, job: Job) -> None:
        if job.state == QUEUED:
            self._queued_count -= 1
            _QUEUE_DEPTH.set(self._queued_count)
            self._finish_locked(job, CANCELLED)
        elif job.state == RUNNING:
            job.cancel_event.set()

    def release(self, job_id: str) -> Tuple[Job, bool]:
        """Detach one waiter; cancel only when the last one lets go.

        Returns ``(job, detached)``: ``detached`` is True when other
        waiters remain attached and the shared computation keeps
        running — the regression the coalescing layer needs so one
        client's ``DELETE`` cannot kill another client's result.
        On the last waiter (or a terminal job) this degenerates to
        :meth:`cancel`.
        """
        with self._lock:
            job = self._lookup_locked(job_id)
            if not job.is_terminal and job.waiters > 1:
                job.waiters -= 1
                _DETACHES.inc()
                job.events.append(EVENT_DETACH, waiters=job.waiters)
                return job, True
            self._cancel_locked(job)
            return job, False

    def wait(self, job_id: str, timeout: float = 30.0) -> Job:
        """Poll until ``job_id`` is terminal (or the timeout passes)."""
        end = time.monotonic() + timeout
        while True:
            job = self.get(job_id)
            if job.is_terminal or time.monotonic() >= end:
                return job
            time.sleep(0.005)

    def list_jobs(
        self,
        state: Optional[str] = None,
        cursor: Optional[str] = None,
        limit: int = 100,
    ) -> Tuple[List[Dict[str, Any]], Optional[str]]:
        """Page through job snapshots in id (= submission) order.

        ``state`` filters to one lifecycle state; ``cursor`` is the
        opaque id returned by the previous page (exclusive); ``limit``
        caps the page size.  Returns ``(snapshots, next_cursor)`` with
        ``next_cursor=None`` on the final page.
        """
        if state is not None and state not in (QUEUED, RUNNING, DONE,
                                               FAILED, CANCELLED):
            raise ConfigurationError(
                f"unknown state filter {state!r}; known: queued, "
                f"running, done, failed, cancelled"
            )
        if limit < 1:
            raise ConfigurationError(f"limit must be >= 1, got {limit}")
        with self._lock:
            # Job ids are zero-padded and monotonically assigned, so
            # lexicographic order is submission order and the id
            # itself works as a stable pagination cursor.
            matching = sorted(
                (job for job in self._jobs.values()
                 if state is None or job.state == state),
                key=lambda job: job.id,
            )
            if cursor is not None:
                matching = [job for job in matching if job.id > cursor]
            page = matching[:limit]
            next_cursor = page[-1].id if len(matching) > limit else None
            return [job.to_dict() for job in page], next_cursor

    def stats(self) -> Dict[str, int]:
        """Job counts by state plus queue headroom."""
        with self._lock:
            counts = {s: 0 for s in (QUEUED, RUNNING, DONE, FAILED,
                                     CANCELLED)}
            for job in self._jobs.values():
                counts[job.state] += 1
            counts["queue_depth"] = self.queue_depth
            counts["coalesced"] = sum(
                j.coalesced for j in self._jobs.values()
            )
            return counts

    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop the dispatchers and the pool; queued jobs stay queued.

        Running jobs get ``timeout`` seconds to finish.  After that the
        ones still running are cancelled, the pool's queued cells are
        cancelled and any worker still busy is killed, so no worker
        process outlives this call.
        """
        deadline = time.monotonic() + timeout
        with self._lock:
            self._stopping = True
            self._wakeup.notify_all()
        for thread in self._dispatchers:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
        with self._lock:
            for job in self._jobs.values():
                if job.state == RUNNING:
                    job.cancel_event.set()
        if self._pool is not None:
            self._pool.shutdown(max(0.0, deadline - time.monotonic()))

    # -- queue internals --------------------------------------------------

    def _push(self, job: Job) -> None:
        heapq.heappush(
            self._heap, (-job.priority, next(self._ticket), job.id)
        )

    def _forget_key(self, job: Job) -> None:
        if self._by_key.get(job.key) == job.id:
            del self._by_key[job.key]

    def _finish_locked(self, job: Job, state: str,
                       result: Optional[Dict[str, Any]] = None,
                       error: Optional[str] = None) -> None:
        """End ``job`` in ``state``: the only way a job becomes terminal.

        Makes the transition, frees the coalescing key and the plan,
        counts the job and its latency, and closes its event log.
        """
        if state == DONE:
            job.mark_done(result)
        elif state == FAILED:
            job.mark_failed(error)
        else:
            job.mark_cancelled()
        job.plan = None
        self._forget_key(job)
        REGISTRY.counter(
            "service_jobs_completed_total",
            help="Jobs that reached a terminal state",
            state=job.state,
        ).inc()
        _LATENCY.observe(job.finished_ts - job.created_ts)
        job.events.append(
            EVENT_STATE, close=True, state=job.state,
            error=job.error, result_ready=job.state == DONE,
        )

    def _next_job(self) -> Optional[Job]:
        """Pop the highest-priority queued job; None when stopping."""
        with self._lock:
            while True:
                while self._heap and not self._stopping:
                    _, _, job_id = heapq.heappop(self._heap)
                    job = self._jobs[job_id]
                    if job.state == QUEUED:
                        job.mark_running()
                        self._queued_count -= 1
                        _QUEUE_DEPTH.set(self._queued_count)
                        job.events.append(EVENT_STATE, state=RUNNING)
                        return job
                    # cancelled while queued: already terminal, skip
                if self._stopping:
                    return None
                self._wakeup.wait()

    # -- execution --------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            job = self._next_job()
            if job is None:
                return
            self._execute(job)

    def _execute(self, job: Job) -> None:
        plan = job.plan

        def on_progress(index: int, from_cache: bool) -> None:
            with self._lock:
                cell = _count_cell(job, index, from_cache)
            job.events.append(EVENT_CELL, **cell)

        result = error = None
        while True:
            with self._lock:
                job.progress = JobProgress(len(plan.scenarios))
            try:
                result = execute_plan(
                    plan,
                    self.cache,
                    cancel_event=job.cancel_event,
                    on_progress=on_progress,
                    pool=self._pool,
                )
            except RunCancelled:
                state = CANCELLED
            except WorkerCrashError as exc:
                with self._lock:
                    if job.cancel_event.is_set():
                        state = CANCELLED
                    elif job.attempts >= self.max_retries:
                        state = FAILED
                        error = (f"worker crashed {job.attempts + 1} "
                                 f"time(s); giving up: {exc}")
                    else:
                        state = None  # stays RUNNING; retried inline
                        job.attempts += 1
                        _RETRIES.inc()
                if state is None:
                    job.events.append(EVENT_RETRY, attempt=job.attempts,
                                      error=str(exc))
                    delay = self.retry_backoff_s * (2 ** (job.attempts - 1))
                    # Cancel-aware backoff: a cancel during the wait
                    # aborts the retry instead of sleeping through it.
                    if not job.cancel_event.wait(delay):
                        continue
                    state = CANCELLED
            except Exception as exc:  # config/runtime error: not retryable
                state, error = FAILED, f"{type(exc).__name__}: {exc}"
            else:
                state = DONE
            break
        with self._lock:
            if state == DONE and job.cancel_event.is_set():
                state = CANCELLED
            self._finish_locked(job, state, result=result, error=error)
