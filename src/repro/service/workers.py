"""The one executor behind every front end.

:func:`execute_plan` resolves a :class:`~repro.service.specs.JobPlan`
for :mod:`repro.api` (and so the CLI) and for the scheduler, whose unit
of attempt it is.  With a :class:`~repro.store.RunCache` it computes
only the cells absent from the store; with ``cache=None``, every cell.
Both run on the same grid and compute path
(:func:`~repro.simulation.cells.compute_cells`) and give the same
payload bytes.  Up to ``workers`` attempts run at once, one per
dispatcher thread; with ``workers >= 2`` they all send their missing
cells to the scheduler's one long-lived :class:`~repro.simulation.cells.WorkerPool`,
whose processes return each cell's KPI dictionary rather than its
history.  Every finished ``(value, seed)`` cell is persisted the moment
it lands — via the cache's per-cell streaming — so a worker-process
crash loses at most the cells still in flight, of every job using the
pool.  The retrying caller resubmits the same plan; cells that reached
disk before the crash come back as hits and are never recomputed.

Cancellation and progress both flow through the cache's hooks:
``cancel_event`` is polled between cells, and ``on_progress`` fires
once per resolved cell.  The executor knows nothing of jobs: the
scheduler's callback bumps the job's counters and appends its ``cell``
event.
"""

from __future__ import annotations

import json
import threading
from typing import Any, Callable, Dict, Optional

from repro.service.specs import JobPlan
from repro.simulation.cells import WorkerPool
from repro.simulation.experiment import _run_many
from repro.store.fingerprint import canonical_json
from repro.store.runcache import RunCache

__all__ = ["execute_plan"]


def execute_plan(
    plan: JobPlan,
    cache: Optional[RunCache],
    cancel_event: Optional[threading.Event] = None,
    on_progress: Optional[Callable[[int, bool], None]] = None,
    pool: Optional[WorkerPool] = None,
    workers: int = 1,
    stored_only: bool = False,
) -> Optional[Dict[str, Any]]:
    """Run one attempt of ``plan`` and return its JSON result payload.

    ``on_progress(index, from_cache)`` fires once per resolved cell,
    in completion order — the scheduler forwards it to the job's event
    log, which is what the SSE/JSONL endpoints stream.  Missing cells
    run on ``pool``, the scheduler's shared pool, or else on a pool of
    ``workers`` processes opened for this call.  With ``cache=None``
    (no disk store) every cell is computed and only ``workers``
    applies.  ``stored_only`` (the scheduler's inline attempt) computes
    nothing: it returns None, having fired no ``on_progress`` and
    counted no hit, unless the store serves every cell.

    Raises
    ------
    WorkerCrashError
        A worker process died; some cells may already be stored.  The
        caller decides whether to retry.
    RunCancelled
        ``cancel_event`` was set between cells.
    """
    if cache is None:
        # Each cell as a store serves it: the payload bytes (key order
        # included) equal a cached run's.
        cells = _run_many(plan.scenarios, None, workers)
        return plan.assemble([json.loads(canonical_json(m)) for m in cells])
    metrics = cache.fetch_metrics(
        plan.scenarios,
        workers=workers,
        on_cell=on_progress,
        should_cancel=None if cancel_event is None else cancel_event.is_set,
        pool=pool,
        stored_only=stored_only,
    )
    return None if metrics is None else plan.assemble(metrics)

