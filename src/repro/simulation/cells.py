"""One seeded cell's computation, and the one path that runs many.

:func:`compute_cells` runs pending cells in this process or on a
:class:`WorkerPool`, handing each result to a callback as it lands.
The library experiments, the run store and (through the store) the
service all compute cells through it, so a worker death, a cancel or a
lambda ``runner_factory`` behaves the same whoever asked.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    CancelledError,
    Future,
    ProcessPoolExecutor,
    wait,
)
from contextlib import nullcontext
from typing import (
    Any,
    Callable,
    ContextManager,
    Dict,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.errors import ConfigurationError, RunCancelled, WorkerCrashError
from repro.obs import REGISTRY
from repro.simulation.runner import LongitudinalRunner, ProjectHistory
from repro.simulation.scenario import Scenario
from repro.simulation.template import template_runner

__all__ = [
    "WorkerPool",
    "call_pool",
    "compute_cells",
    "effective_workers",
    "extract_metrics",
]

T = TypeVar("T")
RunnerFactory = Callable[[Scenario], LongitudinalRunner]

_POOL_REPLACEMENTS = REGISTRY.counter(
    "store_pool_replacements_total",
    help="Worker pools dropped after one of their processes died",
)

#: How often a pooled computation wakes to poll its cancel hook.
_CANCEL_POLL_S = 0.05
#: How long stopping a pool waits to reap killed workers.
_REAP_GRACE_S = 1.0


def extract_metrics(history: ProjectHistory) -> Dict[str, float]:
    """Flatten a run history into the KPI dictionary the benches use."""
    return dict(history.totals)


def _run_history(
    scenario: Scenario,
    runner_factory: Optional[RunnerFactory],
) -> ProjectHistory:
    """Execute one seeded scenario — the unit of work a pool ships out.

    Module-level so it pickles by reference into worker processes.  Each
    run builds its own :class:`~repro.rng.RngHub` from the scenario seed,
    so results are independent of which process (or order) runs it.
    Without a ``runner_factory`` the runner comes from the world-template
    cache (:func:`~repro.simulation.template.template_runner`), the one
    place default runners are set up.
    """
    if runner_factory is None:
        return template_runner(scenario).run()
    return runner_factory(scenario).run()


def _run_metrics(
    scenario: Scenario,
    runner_factory: Optional[RunnerFactory],
) -> Dict[str, float]:
    """One seeded scenario's KPI dictionary — what a pool ships back.

    A history pickles to hundreds of KiB; its KPI dictionary to about
    half a KiB, so pool workers return this instead of the history.
    """
    return extract_metrics(_run_history(scenario, runner_factory))


def _picklable(payload: object) -> bool:
    """True when ``payload`` can cross a process boundary.

    A custom ``runner_factory`` may be a lambda or closure, which cannot;
    callers fall back to the serial path rather than failing
    mid-experiment.
    """
    try:
        pickle.dumps(payload)
    except Exception:
        return False
    return True


def effective_workers(workers: int) -> int:
    """Validate a worker request and clamp it to the core count.

    Oversubscribing a small machine makes fan-out *slower* than serial
    (BENCH_perf.json: ``workers=4`` ~1.4x slower at ``cpu_count: 1``),
    so a request beyond ``os.cpu_count()`` is capped there — which on a
    single-core runner degrades to the serial path.
    """
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    return min(workers, os.cpu_count() or 1)


def _stop(executor: ProcessPoolExecutor, timeout: float) -> None:
    """Cancel ``executor``'s queued work and reap its workers, killing
    any still alive after ``timeout`` seconds.

    The executor forgets its processes and manager thread on shutdown,
    so take them first.  Both attributes are private; checked on CPython
    3.9-3.13.  Without them idle workers still stop, busy ones cannot
    be killed.
    """
    deadline = time.monotonic() + timeout
    processes = list((getattr(executor, "_processes", None)
                      or {}).values())
    manager = getattr(executor, "_executor_manager_thread", None)
    executor.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        process.join(max(0.0, deadline - time.monotonic()))
    for process in processes:
        if process.is_alive():
            process.kill()
    for process in processes:
        process.join(_REAP_GRACE_S)
    if manager is not None:
        manager.join(max(0.0, deadline - time.monotonic()) + _REAP_GRACE_S)


class WorkerPool:
    """A process pool created on first use and replaced after a crash.

    When a worker process dies the executor is broken for every caller
    with cells in it, and each of them raises
    :class:`~repro.errors.WorkerCrashError`.  :meth:`discard` drops the
    broken executor only while it is still the current one, so callers
    that saw the same crash replace it once, and reaps its workers; the
    next :meth:`executor` call starts a fresh one.  Used as a context
    manager, the pool shuts down on exit.
    """

    def __init__(self, max_workers: int) -> None:
        self.max_workers = max_workers
        self._executor: Optional[ProcessPoolExecutor] = None
        self._closed = False
        self._lock = threading.Lock()

    def executor(self) -> ProcessPoolExecutor:
        """The current executor, started if there is none yet."""
        with self._lock:
            if self._closed:
                raise WorkerCrashError("worker pool is shut down")
            if self._executor is None:
                # The platform's default start method (fork on Linux).
                # KPIs no longer depend on the string-hash seed that
                # forked workers share and spawned ones draw afresh
                # (tests/test_integration_determinism.py), so bit-
                # equality with in-process cells does not rest on it.
                self._executor = ProcessPoolExecutor(
                    max_workers=self.max_workers
                )
            return self._executor

    def discard(self, broken: ProcessPoolExecutor) -> None:
        """Drop and reap ``broken`` if it is still the current executor."""
        with self._lock:
            if self._executor is not broken:
                return
            self._executor = None
        _POOL_REPLACEMENTS.inc()
        _stop(broken, 0.0)

    def shutdown(self, timeout: float = 5.0) -> None:
        """Cancel queued cells, stop the workers and reap them.

        Idle workers exit at once; a worker still busy after
        ``timeout`` seconds is killed.  The call returns within
        ``timeout`` plus a short grace period for reaping killed
        workers.  No worker process outlives it, and later
        :meth:`executor` calls raise.
        """
        with self._lock:
            self._closed = True
            executor, self._executor = self._executor, None
        if executor is not None:
            _stop(executor, timeout)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()


def call_pool(
    workers: int, cells: int, pool: Optional[WorkerPool] = None
) -> ContextManager[Optional[WorkerPool]]:
    """The pool one call computes its cells on, as a context manager.

    ``pool`` when the caller owns one (the service scheduler's);
    otherwise, for ``workers > 1``, a :class:`WorkerPool` of at most
    ``cells`` processes for this call alone, shut down on exit so
    scripts never leak processes; otherwise None (in-process).  The
    processes start on the first cell that needs them.
    """
    if pool is not None or workers <= 1:
        return nullcontext(pool)
    return WorkerPool(min(workers, cells))


def compute_cells(
    pending: Sequence[Tuple[int, Scenario]],
    runner_factory: Optional[RunnerFactory],
    on_result: Callable[[int, T], None],
    pool: Optional[WorkerPool] = None,
    cancelled: Optional[Callable[[], bool]] = None,
    cell: Callable[[Scenario, Optional[RunnerFactory]], T] = _run_metrics,
) -> None:
    """Run each ``(index, scenario)`` cell through ``cell``
    (:func:`_run_metrics` or :func:`_run_history`) and call
    ``on_result(index, result)`` as each lands.

    Cells run on ``pool`` when there is one and they can be pickled,
    else in this process; each result is the same either way.
    ``cancelled`` is polled between cells (every ``_CANCEL_POLL_S`` on a
    pool) and raises :class:`~repro.errors.RunCancelled`.  The pool may
    be shared: however a pooled call ends, it cancels only its own
    queued cells; cells already running finish and are dropped.  A
    worker death raises :class:`~repro.errors.WorkerCrashError` after
    every result that landed before it has been handed on.
    """
    if cancelled is None:
        cancelled = lambda: False  # noqa: E731
    if pool is None or not _picklable(
        ([scenario for _, scenario in pending], runner_factory)
    ):
        for i, scenario in pending:
            if cancelled():
                raise RunCancelled("cancelled mid-computation")
            on_result(i, cell(scenario, runner_factory))
        return
    if cancelled():
        raise RunCancelled("cancelled before computing cells")
    executor = pool.executor()
    futures: Dict[Future, int] = {}
    try:
        for i, scenario in pending:
            futures[executor.submit(cell, scenario, runner_factory)] = i
        waiting = set(futures)
        while waiting:
            done, waiting = wait(waiting, timeout=_CANCEL_POLL_S,
                                 return_when=FIRST_COMPLETED)
            failure: Optional[Exception] = None
            for future in done:
                try:
                    result = future.result()
                except Exception as exc:  # hand on the others first
                    failure = failure or exc
                    continue
                on_result(futures[future], result)
            if failure is not None:
                raise failure
            if cancelled():
                raise RunCancelled("cancelled mid-computation")
    except (BrokenExecutor, BrokenPipeError, EOFError) as exc:
        pool.discard(executor)
        raise WorkerCrashError(f"worker process died: {exc!r}") from exc
    except CancelledError as exc:  # the pool is shutting down
        raise WorkerCrashError("worker pool shut down") from exc
    finally:
        for future in futures:
            future.cancel()
