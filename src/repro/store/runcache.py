"""Memoized replication backed by the content-addressed run store.

Every run of the longitudinal simulator is fully determined by
``(scenario, seed)``, so its KPI dictionary is a pure function of the
scenario fingerprint and the seed.  :class:`RunCache` exploits that:
it serves previously computed KPI dictionaries from disk and computes
only the missing ``(fingerprint, seed)`` cells.  Cached results are
**bit-identical** to fresh ones — JSON floats round-trip exactly, and
the stored value is exactly what
:func:`~repro.simulation.experiment.extract_metrics` returns.

Misses run in-process or on a :class:`WorkerPool`, whose workers send
back each cell's KPI dictionary (about half a KiB pickled), never its
history (hundreds of KiB).  There is one compute path for both callers:
the service scheduler hands in the one pool it keeps for as long as it
serves, shared by every job it runs at once, while a library call with
``workers > 1`` opens a pool for that call alone and shuts it down
before returning, so scripts never leak processes.  Either way the
processes start on the first cell that needs them.

Because the cache is keyed per cell, interrupted work resumes for free:
re-invoking a killed or extended sweep recomputes only the cells that
never made it to disk.

The cache is also safe to share across threads: a per-cell
**single-flight** map guarantees that two threads racing on the same
missing ``(fingerprint, seed)`` cell compute it exactly once — the
loser waits until the winner's result lands in the store and then
reads it back, observing bit-identical KPIs.  A thread waits only after
computing and releasing its own claims, and its cancel hook still
works while it waits, so threads needing the same cells in different
orders never wait on each other.  This is what lets the
serving layer (:mod:`repro.service`) point many request threads at one
cache.
"""

from __future__ import annotations

import os
import shutil
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    CancelledError,
    Future,
    ProcessPoolExecutor,
    wait,
)

from repro.errors import ConfigurationError, RunCancelled, WorkerCrashError
from repro.obs import REGISTRY, span
from repro.simulation.experiment import (
    ComparisonResult,
    _picklable,
    _run_metrics,
    comparison_from_metrics,
    effective_workers,
)
from repro.simulation.runner import LongitudinalRunner
from repro.simulation.scenario import Scenario
from repro.simulation.sweep import SweepResult, sweep_from_metrics
from repro.store.blobstore import BlobStore
from repro.store.fingerprint import scenario_fingerprint, scenario_summary
from repro.store.index import RunIndex

__all__ = ["CacheStats", "RunCache", "WorkerPool"]

DEFAULT_CACHE_DIR = ".repro-cache"

_HITS = REGISTRY.counter(
    "cache_hits_total",
    help="Cells served from the run store instead of recomputed",
)
_MISSES = REGISTRY.counter(
    "cache_misses_total",
    help="Cells computed fresh and stored",
)
_WAITS = REGISTRY.counter(
    "cache_singleflight_waits_total",
    help="Cells served after waiting on another thread's computation",
)
_BYTES_SERVED = REGISTRY.counter(
    "cache_bytes_served_total",
    help="Compressed bytes read from the store to serve cached cells",
)
_POOL_REPLACEMENTS = REGISTRY.counter(
    "store_pool_replacements_total",
    help="Worker pools dropped after one of their processes died",
)

#: How often a pooled computation wakes to poll its cancel hook.
_CANCEL_POLL_S = 0.05
#: How long :meth:`WorkerPool.shutdown` waits to reap killed workers.
_REAP_GRACE_S = 1.0


class WorkerPool:
    """A process pool created on first use and replaced after a crash.

    When a worker process dies the executor is broken for every caller
    with cells in it, and each of them raises
    :class:`~repro.errors.WorkerCrashError`.  :meth:`discard` drops the
    broken executor only while it is still the current one, so callers
    that saw the same crash replace it once; the next :meth:`executor`
    call starts a fresh one.  Used as a context manager, the pool shuts
    down on exit.
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
                # The platform's default start method (fork on Linux):
                # forked workers share this process's string-hash seed,
                # which some KPIs depend on in the last bit, so pooled
                # cells stay bit-equal to in-process ones; spawned
                # workers would each draw their own.
                self._executor = ProcessPoolExecutor(
                    max_workers=self.max_workers
                )
            return self._executor

    def discard(self, broken: ProcessPoolExecutor) -> None:
        """Drop ``broken`` if it is still the current executor."""
        with self._lock:
            if self._executor is not broken:
                return
            self._executor = None
        _POOL_REPLACEMENTS.inc()
        broken.shutdown(wait=False, cancel_futures=True)

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
        if executor is None:
            return
        deadline = time.monotonic() + timeout
        # The executor forgets its processes and manager thread on
        # shutdown, so take them first.  Both attributes are private;
        # checked on CPython 3.9-3.13.  Without them the executor's own
        # shutdown still stops idle workers, but cannot kill busy ones.
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
            manager.join(max(0.0, deadline - time.monotonic())
                         + _REAP_GRACE_S)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()


@dataclass(frozen=True)
class CacheStats:
    """One snapshot of the store, for ``repro-sim cache stats``."""

    fingerprints: int
    runs: int
    hits_recorded: int
    objects: int
    total_bytes: int
    misses_recorded: int = 0

    @property
    def hit_ratio(self) -> float:
        """Lifetime hits / (hits + misses); 0.0 before any traffic."""
        total = self.hits_recorded + self.misses_recorded
        return self.hits_recorded / total if total else 0.0


class RunCache:
    """Disk-backed ``(scenario, seed) → KPI dictionary`` memo table.

    Wraps the three experiment entry points — :meth:`replicate`,
    :meth:`compare_scenarios` and :meth:`run_sweep` — behind the store.
    ``workers`` only ever applies to the cells actually computed.
    """

    def __init__(
        self,
        root: os.PathLike = DEFAULT_CACHE_DIR,
        runner_factory: Optional[
            Callable[[Scenario], LongitudinalRunner]
        ] = None,
    ) -> None:
        self.root = os.fspath(root)
        self.blobs = BlobStore(self.root)
        self.index = RunIndex(os.path.join(self.root, "index.jsonl"))
        self.runner_factory = runner_factory
        #: Cells served from disk / computed since this instance opened.
        self.session_hits = 0
        self.session_misses = 0
        #: Hits that waited on another thread's in-flight computation.
        self.session_waits = 0
        #: Compressed bytes read back from disk to serve cells.
        self.session_bytes_served = 0
        self._session_lock = threading.Lock()
        # Single-flight map: cells currently being computed by some
        # thread of this process.  Claimants insert an Event; every
        # other thread wanting the same cell waits on it and then
        # re-reads the store instead of recomputing.
        self._inflight: Dict[Tuple[str, int], threading.Event] = {}
        self._inflight_lock = threading.Lock()

    # -- core -------------------------------------------------------------

    def _load_cell(
        self, fingerprint: str, seed: int
    ) -> Optional[Dict[str, float]]:
        blob = self.index.lookup(fingerprint, seed)
        if blob is None:
            return None
        payload, nbytes = self.blobs.load(blob)
        if payload is not None:
            self._count(bytes_served=nbytes)
        return payload

    def _count(
        self,
        hits: int = 0,
        misses: int = 0,
        waits: int = 0,
        bytes_served: int = 0,
    ) -> None:
        with self._session_lock:
            self.session_hits += hits
            self.session_misses += misses
            self.session_waits += waits
            self.session_bytes_served += bytes_served
        if hits:
            _HITS.inc(hits)
        if misses:
            _MISSES.inc(misses)
        if waits:
            _WAITS.inc(waits)
        if bytes_served:
            _BYTES_SERVED.inc(bytes_served)

    def fetch_metrics(
        self,
        scenarios: Sequence[Scenario],
        workers: int = 1,
        on_cell: Optional[Callable[[int, bool], None]] = None,
        should_cancel: Optional[Callable[[], bool]] = None,
        pool: Optional[WorkerPool] = None,
    ) -> List[Dict[str, float]]:
        """KPI dictionaries for already-seeded scenarios, in input order.

        Hits load from the blob store; misses (including entries whose
        blob turns out corrupt) are computed, stored and returned.
        ``on_cell(i, from_cache)`` fires once per cell as it resolves,
        which is how the serving layer streams per-cell progress.
        ``should_cancel`` is polled between cells; when it turns true
        the call raises :class:`~repro.errors.RunCancelled` — every
        cell already stored stays stored, so a later retry resumes.
        ``pool`` computes the missing cells on a caller-owned
        :class:`WorkerPool` (the scheduler's); without one,
        ``workers > 1`` opens a pool for this call only.
        """
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        # ``workers`` is taken at face value here: the library wrappers
        # below clamp to the core count.
        with span("store.fetch", cells=len(scenarios), workers=workers):
            fingerprints = [scenario_fingerprint(s) for s in scenarios]
            metrics: List[Optional[Dict[str, float]]] = (
                [None] * len(scenarios)
            )
            missing: List[int] = []
            hit_pairs = []
            for i, (scenario, fingerprint) in enumerate(
                zip(scenarios, fingerprints)
            ):
                payload = self._load_cell(fingerprint, scenario.seed)
                if payload is None:
                    missing.append(i)
                else:
                    metrics[i] = payload
                    hit_pairs.append((fingerprint, scenario.seed))
                    if on_cell is not None:
                        on_cell(i, True)
            if hit_pairs:
                self.index.record_hits(hit_pairs)
                self._count(hits=len(hit_pairs))
            if missing and pool is None and workers > 1:
                with WorkerPool(min(workers, len(missing))) as own:
                    self._resolve_missing(scenarios, fingerprints, metrics,
                                          missing, own, on_cell,
                                          should_cancel)
            elif missing:
                self._resolve_missing(scenarios, fingerprints, metrics,
                                      missing, pool, on_cell,
                                      should_cancel)
        return metrics  # type: ignore[return-value]

    def _resolve_missing(
        self,
        scenarios: Sequence[Scenario],
        fingerprints: List[str],
        metrics: List[Optional[Dict[str, float]]],
        missing: List[int],
        pool: Optional[WorkerPool],
        on_cell: Optional[Callable[[int, bool], None]],
        should_cancel: Optional[Callable[[], bool]],
    ) -> None:
        """Claim the free missing cells, compute them, then await the rest.

        For every cell this call either becomes the single flight that
        computes it, or waits for the thread that already is and then
        serves the freshly stored result as a hit.  It never waits while
        holding a claim: it claims every free cell at once, computes and
        releases them, and only then waits on the cells other flights
        hold, polling ``should_cancel``.  So two calls wanting the same
        cells in opposite orders cannot wait on each other.  A cell
        whose other flight failed is claimed again on the next round.
        """
        remaining = missing
        while remaining:
            claims: Dict[Tuple[str, int], List[int]] = {}
            held: Dict[Tuple[str, int], Tuple[threading.Event, List[int]]] = {}
            with self._inflight_lock:
                for i in remaining:
                    key = (fingerprints[i], scenarios[i].seed)
                    if key in claims:  # duplicate cell inside this batch
                        claims[key].append(i)
                    elif key in held:
                        held[key][1].append(i)
                    elif key in self._inflight:
                        held[key] = (self._inflight[key], [i])
                    else:
                        self._inflight[key] = threading.Event()
                        claims[key] = [i]
            try:
                if claims:
                    self._compute_claimed(scenarios, fingerprints, metrics,
                                          claims, pool, on_cell,
                                          should_cancel)
            finally:
                with self._inflight_lock:
                    for key in claims:
                        self._inflight.pop(key).set()
            remaining = self._await_held(held, metrics, on_cell,
                                         should_cancel)

    def _await_held(
        self,
        held: Dict[Tuple[str, int], Tuple[threading.Event, List[int]]],
        metrics: List[Optional[Dict[str, float]]],
        on_cell: Optional[Callable[[int, bool], None]],
        should_cancel: Optional[Callable[[], bool]],
    ) -> List[int]:
        """Serve cells other flights computed; return those they failed."""
        failed: List[int] = []
        waited_pairs = []
        try:
            for key, (event, indices) in held.items():
                while not event.wait(_CANCEL_POLL_S):
                    if should_cancel is not None and should_cancel():
                        raise RunCancelled("cancelled waiting for a cell")
                payload = self._load_cell(*key)
                if payload is None:
                    failed.extend(indices)
                    continue
                for i in indices:
                    metrics[i] = payload
                    if on_cell is not None:
                        on_cell(i, True)
                waited_pairs.append(key)
        finally:
            if waited_pairs:
                self.index.record_hits(waited_pairs)
                self._count(hits=len(waited_pairs),
                            waits=len(waited_pairs))
        return failed

    def _compute_claimed(
        self,
        scenarios: Sequence[Scenario],
        fingerprints: List[str],
        metrics: List[Optional[Dict[str, float]]],
        claims: Dict[Tuple[str, int], List[int]],
        pool: Optional[WorkerPool],
        on_cell: Optional[Callable[[int, bool], None]],
        should_cancel: Optional[Callable[[], bool]],
    ) -> None:
        """Run the claimed cells, persisting each as soon as it lands.

        Per-cell persistence is what makes interrupted work resumable: a
        sweep killed mid-grid keeps every cell that finished, whether
        the runs were serial or pooled.  Cells run on ``pool`` when
        there is one and they can be pickled; a worker-process death
        surfaces as :class:`~repro.errors.WorkerCrashError` so callers
        (the service scheduler) can retry; cells stored before the
        crash are never recomputed.
        """

        def cancelled() -> bool:
            return should_cancel is not None and should_cancel()

        # Double-check after claiming: another thread may have finished
        # (and released) a cell between our initial lookup and the
        # claim, in which case it is already on disk — serve it as a
        # hit instead of recomputing.  Keys stay in ``claims`` so the
        # caller's finally still releases their events.
        landed_pairs = []
        to_compute = []
        for key, indices in claims.items():
            payload = self._load_cell(*key)
            if payload is None:
                to_compute.append(key)
                continue
            for j in indices:
                metrics[j] = payload
                if on_cell is not None:
                    on_cell(j, True)
            landed_pairs.append(key)
        if landed_pairs:
            self.index.record_hits(landed_pairs)
            self._count(hits=len(landed_pairs))
        if not to_compute:
            return

        def store(i: int, computed: Dict[str, float]) -> None:
            blob = self.blobs.put(computed)
            self.index.record_store(
                fingerprints[i],
                scenarios[i].seed,
                blob,
                scenario_summary(scenarios[i]),
            )
            # Serve the disk round-trip, not the in-memory dict, so a
            # cold call returns exactly what every warm call will.
            payload = self.blobs.get(blob, computed)
            key = (fingerprints[i], scenarios[i].seed)
            for j in claims[key]:
                metrics[j] = payload
                if on_cell is not None:
                    on_cell(j, j != i)
            self._count(misses=1)

        pending = [(claims[key][0], scenarios[claims[key][0]])
                   for key in to_compute]
        if cancelled():
            raise RunCancelled("cancelled before computing cells")
        if pool is not None and _picklable(
            ([s for _, s in pending], self.runner_factory)
        ):
            self._compute_pooled(pool, pending, store, cancelled)
        else:
            self._compute_serial(pending, store, cancelled)

    def _compute_pooled(
        self,
        pool: WorkerPool,
        pending: List[Tuple[int, Scenario]],
        store: Callable[[int, Dict[str, float]], None],
        cancelled: Callable[[], bool],
    ) -> None:
        """Ship pending cells to ``pool``, storing each as it lands.

        The pool may be shared with other jobs.  However this call ends
        — done, cancelled or crashed — it cancels only its own cells
        still queued; cells already running finish in their workers and
        their results are dropped.
        """
        executor = pool.executor()
        futures: Dict[Future, int] = {}
        try:
            for i, scenario in pending:
                future = executor.submit(
                    _run_metrics, scenario, self.runner_factory
                )
                futures[future] = i
            waiting = set(futures)
            while waiting:
                done, waiting = wait(waiting, timeout=_CANCEL_POLL_S,
                                     return_when=FIRST_COMPLETED)
                failure: Optional[Exception] = None
                for future in done:
                    try:
                        computed = future.result()
                    except Exception as exc:  # store the others first
                        failure = failure or exc
                        continue
                    store(futures[future], computed)
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

    def _compute_serial(
        self,
        pending: List[Tuple[int, Scenario]],
        store: Callable[[int, Dict[str, float]], None],
        cancelled: Callable[[], bool],
    ) -> None:
        """Compute pending cells in-process, polling cancel between cells."""
        for i, scenario in pending:
            if cancelled():
                raise RunCancelled("cancelled mid-computation")
            store(i, _run_metrics(scenario, self.runner_factory))

    # -- experiment API ---------------------------------------------------

    def replicate(
        self,
        scenario: Scenario,
        seeds: Sequence[int],
        workers: int = 1,
    ) -> List[Dict[str, float]]:
        """KPI dictionaries of ``scenario`` under each seed, memoized."""
        if not seeds:
            raise ConfigurationError("need at least one seed")
        seeded = [scenario.with_seed(int(seed)) for seed in seeds]
        return self.fetch_metrics(seeded, workers=effective_workers(workers))

    def compare_scenarios(
        self,
        a: Scenario,
        b: Scenario,
        seeds: Sequence[int] = (),
        workers: int = 1,
    ) -> ComparisonResult:
        """Memoized :func:`~repro.simulation.experiment.compare_scenarios`."""
        if not seeds:
            raise ConfigurationError("need at least one seed")
        seeded = [a.with_seed(int(s)) for s in seeds] + [
            b.with_seed(int(s)) for s in seeds
        ]
        metrics = self.fetch_metrics(seeded,
                                     workers=effective_workers(workers))
        return comparison_from_metrics(
            a.name,
            b.name,
            seeds,
            metrics[: len(seeds)],
            metrics[len(seeds):],
        )

    def run_sweep(
        self,
        parameter: str,
        values: Sequence[object],
        factory: Callable[[object, int], Scenario],
        seeds: Sequence[int] = (),
        label_fn: Optional[Callable[[object], str]] = None,
        workers: int = 1,
    ) -> SweepResult:
        """Memoized :func:`~repro.simulation.sweep.run_sweep`.

        Resume comes for free: a sweep interrupted mid-grid, or extended
        with new parameter values or seeds, recomputes only the
        ``(value, seed)`` cells absent from the store.
        """
        if not values:
            raise ConfigurationError(
                "sweep needs at least one parameter value"
            )
        if not seeds:
            raise ConfigurationError("sweep needs at least one seed")
        scenarios = [
            factory(value, int(seed))
            for value in values
            for seed in seeds
        ]
        metrics = self.fetch_metrics(scenarios,
                                     workers=effective_workers(workers))
        per_point = len(seeds)
        chunks = [
            metrics[i * per_point : (i + 1) * per_point]
            for i in range(len(values))
        ]
        return sweep_from_metrics(
            parameter, values, chunks, label_fn=label_fn
        )

    # -- maintenance ------------------------------------------------------

    def stats(self) -> CacheStats:
        index_stats = self.index.stats()
        blob_stats = self.blobs.stats()
        return CacheStats(
            fingerprints=index_stats.fingerprints,
            runs=index_stats.runs,
            hits_recorded=index_stats.hits,
            objects=blob_stats.objects,
            total_bytes=blob_stats.total_bytes,
            misses_recorded=index_stats.misses,
        )

    def gc(self) -> Dict[str, int]:
        """Drop unreferenced blobs and index rows whose blob vanished.

        Returns ``{"blobs_removed": ..., "runs_dropped": ...}``.
        """
        referenced = self.index.referenced_blobs()
        blobs_removed = self.blobs.gc(keep=referenced)
        dead = {key for key in referenced if not self.blobs.has(key)}
        runs_dropped = self.index.drop_blobs(dead) if dead else 0
        self.index.compact()
        return {"blobs_removed": blobs_removed, "runs_dropped": runs_dropped}

    def clear(self) -> None:
        """Delete every object and the manifest."""
        self.index.clear()
        shutil.rmtree(self.blobs.objects_dir, ignore_errors=True)
        self.blobs.objects_dir.mkdir(parents=True, exist_ok=True)
