"""Fault injection for the serving stack: the chaos half of the
load/chaos harness.

Three failure modes, each targeting a resilience mechanism the
scheduler/store stack claims to have — inject the fault, then *assert
the claim*:

========================  ============================================
fault                     mechanism under test
========================  ============================================
:func:`flaky_factory`     a worker process calls ``os._exit`` mid-
                          plan → :class:`~repro.errors.WorkerCrashError`
                          → the scheduler's retry-with-backoff path
                          (``scheduler_retries_total``), with cells
                          persisted before the crash reused as hits
:class:`WorkerKiller`     same, but from the *outside*: SIGKILL a live
                          pool worker found via ``/proc``, like an OOM
                          killer would
:func:`corrupt_blobs`     rewrite stored objects as valid gzip of the
                          *wrong* content → the blob store's hash
                          verification (``store_blob_verify_failures_
                          total``) must turn corruption into a miss,
                          never into a wrong result
========================  ============================================

Crash injection is *deterministic and bounded*: each planned crash is
an ``O_EXCL`` sentinel file in a shared directory, claimed atomically
by exactly one worker process, so a chaos run kills exactly
``max_crashes`` attempts no matter how many workers race — and a
``max_retries`` budget above that bound guarantees the job still
completes.  Everything here is module-level and picklable (factories
travel into pool workers via ``functools.partial``).
"""

from __future__ import annotations

import functools
import gzip
import os
import signal
import threading
import time
from pathlib import Path
from typing import Callable, List, Optional

from repro.obs import REGISTRY

__all__ = [
    "FakeKpiRunner",
    "fast_factory",
    "flaky_factory",
    "make_flaky_factory",
    "claim_crash_token",
    "corrupt_blobs",
    "WorkerKiller",
    "pool_worker_pids",
]

_KILLS = REGISTRY.counter(
    "chaos_worker_kills_total",
    help="Pool worker processes SIGKILLed by the chaos harness",
)
_CORRUPTED = REGISTRY.counter(
    "chaos_blobs_corrupted_total",
    help="Stored blobs overwritten with wrong-content gzip by chaos",
)


# -- crash-on-schedule runner factory -------------------------------------


class _FakeHistory:
    """Just enough history for ``extract_metrics``-free fake runs."""

    def __init__(self, totals):
        self.totals = totals


class FakeKpiRunner:
    """Deterministic instant runner: KPI == seed (bit-stable)."""

    def __init__(self, scenario, delay: float = 0.0):
        self.scenario = scenario
        self.delay = delay

    def run(self):
        if self.delay:
            time.sleep(self.delay)
        return _FakeHistory({"kpi": float(self.scenario.seed)})


def fast_factory(scenario, delay: float = 0.0):
    """Picklable factory for :class:`FakeKpiRunner` (load-test runner)."""
    return FakeKpiRunner(scenario, delay)


def claim_crash_token(crash_dir: str, max_crashes: int) -> bool:
    """Atomically claim one of ``max_crashes`` crash slots.

    Returns True for exactly ``max_crashes`` calls across *all*
    processes sharing ``crash_dir`` — ``O_CREAT|O_EXCL`` makes the
    filesystem the arbiter, so racing pool workers cannot double-claim
    a slot and the total crash count is exact.
    """
    for slot in range(max_crashes):
        path = os.path.join(crash_dir, f"crash-{slot:03d}")
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            continue
        os.close(fd)
        return True
    return False


def flaky_factory(crash_dir: str, max_crashes: int, scenario,
                  delay: float = 0.0):
    """Runner factory that kills its worker for the first
    ``max_crashes`` cells, then behaves like :func:`fast_factory`.

    Bind the chaos knobs with ``functools.partial`` (module-level, so
    the partial pickles into pool workers)::

        factory = make_flaky_factory(tmp / "chaos", max_crashes=2)
        cache = RunCache(tmp / "store", runner_factory=factory)

    ``os._exit(13)`` skips every ``finally:`` — the pool sees a dead
    worker, exactly like a segfault or the OOM killer.
    """
    if claim_crash_token(crash_dir, max_crashes):
        os._exit(13)
    return FakeKpiRunner(scenario, delay)


def make_flaky_factory(crash_dir, max_crashes: int,
                       delay: float = 0.0) -> Callable:
    """A picklable, pre-bound :func:`flaky_factory`."""
    os.makedirs(str(crash_dir), exist_ok=True)
    return functools.partial(flaky_factory, str(crash_dir), max_crashes,
                             delay=delay)


# -- blob corruption ------------------------------------------------------


def corrupt_blobs(store_root, limit: Optional[int] = None) -> int:
    """Overwrite stored objects with valid gzip of the *wrong* bytes.

    The overwritten object still decompresses cleanly, so only the
    store's content-hash verification can catch it — which is the
    point: a read must count a ``store_blob_verify_failures_total``
    and come back a miss (recompute), never return the forged payload.
    Truncating the file instead would be caught by the gzip layer and
    prove nothing about verification.

    Returns the number of objects corrupted.
    """
    objects_dir = Path(store_root) / "objects"
    forged = gzip.compress(b'{"chaos": "forged payload"}', mtime=0)
    corrupted = 0
    if not objects_dir.is_dir():
        return 0
    for shard in sorted(objects_dir.iterdir()):
        if not shard.is_dir():
            continue
        for obj in sorted(shard.iterdir()):
            if obj.name.startswith(".tmp-"):
                continue
            obj.write_bytes(forged)
            corrupted += 1
            _CORRUPTED.inc()
            if limit is not None and corrupted >= limit:
                return corrupted
    return corrupted


# -- external worker killer -----------------------------------------------


def pool_worker_pids() -> List[int]:
    """PIDs of this process's pool workers, via ``/proc``.

    Children of the current process minus multiprocessing's
    bookkeeping processes (resource tracker), which must survive.
    ``/proc`` attributes a child to the *thread* that forked it, and
    pool workers are spawned from whichever of the scheduler's
    dispatcher threads first needed the pool — so every
    ``/proc/{pid}/task/*/children`` file must be scanned, not just the
    main thread's.
    """
    pid = os.getpid()
    candidates: List[int] = []
    try:
        task_ids = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return []
    for tid in task_ids:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as handle:
                candidates.extend(
                    int(c) for c in handle.read().split())
        except (OSError, ValueError):
            continue
    workers = []
    for child in candidates:
        try:
            with open(f"/proc/{child}/cmdline", "rb") as handle:
                cmdline = handle.read().replace(b"\0", b" ")
        except OSError:
            continue
        if b"resource_tracker" in cmdline or \
                b"semaphore_tracker" in cmdline:
            continue
        workers.append(child)
    return workers


class WorkerKiller:
    """Background thread SIGKILLing live pool workers on a cadence.

    The in-process fault injector (:func:`flaky_factory`) needs the
    runner's cooperation; this one does not — it finds worker children
    through ``/proc`` and kills them from outside, which is the
    closest stdlib-only approximation of an OOM kill.  Bounded by
    ``max_kills`` so a chaos run ends.
    """

    def __init__(self, interval_s: float = 0.2,
                 max_kills: int = 1) -> None:
        self.interval_s = interval_s
        self.max_kills = max_kills
        self.kills = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "WorkerKiller":
        self._thread = threading.Thread(
            target=self._run, name="chaos-worker-killer", daemon=True
        )
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.is_set() and self.kills < self.max_kills:
            victims = pool_worker_pids()
            if victims:
                try:
                    os.kill(victims[-1], signal.SIGKILL)
                    self.kills += 1
                    _KILLS.inc()
                except (ProcessLookupError, PermissionError):
                    pass
            self._stop.wait(self.interval_s)

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)

    def __enter__(self) -> "WorkerKiller":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
