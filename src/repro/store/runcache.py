"""Memoized replication backed by the content-addressed run store.

Every run of the longitudinal simulator is fully determined by
``(scenario, seed)``, so its KPI dictionary is a pure function of the
scenario fingerprint and the seed.  :class:`RunCache` exploits that:
it serves previously computed KPI dictionaries from disk and computes
only the missing ``(fingerprint, seed)`` cells.  Cached results are
**bit-identical** to fresh ones — JSON floats round-trip exactly, and
the stored value is exactly what
:func:`~repro.simulation.experiment.extract_metrics` returns.

Cells are laid out on the library's grid, and misses run on its one
compute path (:func:`~repro.simulation.cells.compute_cells`):
in-process or on a :class:`~repro.simulation.cells.WorkerPool`, whose
workers send back each cell's KPI dictionary (about half a KiB
pickled), never its history (hundreds of KiB).  The service scheduler
hands in the one pool it keeps for as long as it serves, shared by
every job it runs at once, while a call with ``workers > 1`` opens a
pool for that call alone and shuts it down before returning, so
scripts never leak processes.  Either way the processes start on the
first cell that needs them.

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
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import RunCancelled
from repro.obs import REGISTRY, span
from repro.simulation.cells import (
    _CANCEL_POLL_S,
    RunnerFactory,
    WorkerPool,
    call_pool,
    compute_cells,
    effective_workers,
)
from repro.simulation.scenario import Scenario
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

    :meth:`fetch_metrics` resolves any grid's cells against the store;
    replicates, comparisons and sweeps reach it through one executor,
    :func:`~repro.service.workers.execute_plan` (``repro.api`` with
    ``cache=True``, the CLI's ``--cache``, the service).  ``workers``
    only ever applies to the cells actually computed.
    """

    def __init__(
        self,
        root: os.PathLike = DEFAULT_CACHE_DIR,
        runner_factory: Optional[RunnerFactory] = None,
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
    ) -> Tuple[Optional[Dict[str, float]], int]:
        """``(payload, compressed bytes)``; ``(None, 0)`` if not served."""
        blob = self.index.lookup(fingerprint, seed)
        if blob is None:
            return None, 0
        return self.blobs.load(blob)

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
        stored_only: bool = False,
    ) -> Optional[List[Dict[str, float]]]:
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

        ``stored_only`` never computes: unless the store serves every
        cell, it returns None before ``on_cell`` fires or any hit is
        counted.
        """
        workers = effective_workers(workers)
        with span("store.fetch", cells=len(scenarios), workers=workers):
            keys = [(scenario_fingerprint(s), s.seed) for s in scenarios]
            metrics: List[Optional[Dict[str, float]]] = (
                [None] * len(scenarios)
            )
            absent = self._serve_stored(
                [(key, [i]) for i, key in enumerate(keys)], metrics,
                on_cell, all_or_none=stored_only,
            )
            if absent is None:
                return None
            missing = [indices[0] for _, indices in absent]
            if missing:
                with call_pool(workers, len(missing), pool) as use:
                    self._resolve_missing(scenarios, keys, metrics,
                                          missing, use, on_cell,
                                          should_cancel)
        return metrics  # type: ignore[return-value]

    def _serve_stored(
        self,
        cells: List[Tuple[Tuple[str, int], List[int]]],
        metrics: List[Optional[Dict[str, float]]],
        on_cell: Optional[Callable[[int, bool], None]],
        all_or_none: bool = False,
    ) -> Optional[List[Tuple[Tuple[str, int], List[int]]]]:
        """Serve each ``(key, indices)`` cell on disk as a hit.

        Returns the cells that are not (absent, or their blob corrupt);
        with ``all_or_none``, None at the first such cell, having
        served nothing.
        """
        absent = []
        loaded = []
        for key, indices in cells:
            payload, nbytes = self._load_cell(*key)
            if payload is None:
                if all_or_none:
                    return None
                absent.append((key, indices))
            else:
                loaded.append((key, indices, payload, nbytes))
        for _, indices, payload, _ in loaded:
            for i in indices:
                metrics[i] = payload
                if on_cell is not None:
                    on_cell(i, True)
        if loaded:
            self.index.record_hits([key for key, _, _, _ in loaded])
            self._count(hits=len(loaded),
                        bytes_served=sum(n for _, _, _, n in loaded))
        return absent

    def _resolve_missing(
        self,
        scenarios: Sequence[Scenario],
        keys: List[Tuple[str, int]],
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

        Each computed cell is stored the moment it lands, so work cut
        short by a cancel or a worker death
        (:class:`~repro.errors.WorkerCrashError`, which the scheduler
        retries) resumes: cells stored before it are never recomputed.
        """
        remaining = missing
        while remaining:
            claims: Dict[Tuple[str, int], List[int]] = {}
            held: Dict[Tuple[str, int], Tuple[threading.Event, List[int]]] = {}
            with self._inflight_lock:
                for i in remaining:
                    key = keys[i]
                    if key in claims:  # duplicate cell inside this batch
                        claims[key].append(i)
                    elif key in held:
                        held[key][1].append(i)
                    elif key in self._inflight:
                        held[key] = (self._inflight[key], [i])
                    else:
                        self._inflight[key] = threading.Event()
                        claims[key] = [i]

            def store(i: int, computed: Dict[str, float]) -> None:
                blob = self.blobs.put(computed)
                self.index.record_store(*keys[i], blob,
                                        scenario_summary(scenarios[i]))
                # Serve the disk round-trip, not the in-memory dict, so a
                # cold call returns exactly what every warm call will.
                payload = self.blobs.get(blob, computed)
                for j in claims[keys[i]]:
                    metrics[j] = payload
                    if on_cell is not None:
                        on_cell(j, j != i)
                self._count(misses=1)

            try:
                # Double-check after claiming: another thread may have
                # finished (and released) a cell since our first lookup,
                # so serve what is on disk now as hits.
                pending = [(indices[0], scenarios[indices[0]])
                           for _, indices in self._serve_stored(
                               list(claims.items()), metrics, on_cell)]
                if pending:
                    compute_cells(pending, self.runner_factory, store,
                                  pool=pool, cancelled=should_cancel)
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
                payload, nbytes = self._load_cell(*key)
                if payload is None:
                    failed.extend(indices)
                    continue
                self._count(bytes_served=nbytes)
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
