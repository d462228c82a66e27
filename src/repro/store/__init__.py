"""Content-addressed run store: fingerprints, blobs, manifest, memo.

Every simulator run is deterministic given ``(scenario, seed)``, so its
KPI dictionary can be stored once and served forever.  This package
turns that into infrastructure:

* :mod:`repro.store.fingerprint` — canonical scenario hashing.
* :mod:`repro.store.blobstore` — sharded, atomic, gzip'd object store.
* :mod:`repro.store.index` — JSONL manifest with hit accounting.
* :mod:`repro.store.runcache` — :class:`RunCache`, which serves a
  grid's cells from disk and computes only the missing ones, so
  interrupted or extended sweeps resume.

Quick use — memoize through the facade, then inspect the store::

    from repro import api
    from repro.store import RunCache

    result = api.compare("hackathon", "traditional", seeds=20,
                         cache=True, cache_dir=".repro-cache")
    RunCache(".repro-cache").stats()   # fingerprints, runs, hits, bytes
"""

from repro.store.blobstore import BlobStats, BlobStore
from repro.store.fingerprint import (
    canonical_json,
    config_fingerprint,
    scenario_fingerprint,
    scenario_payload,
    scenario_summary,
)
from repro.store.index import IndexEntry, IndexStats, RunIndex
from repro.store.runcache import DEFAULT_CACHE_DIR, CacheStats, RunCache

__all__ = [
    "BlobStats",
    "BlobStore",
    "CacheStats",
    "DEFAULT_CACHE_DIR",
    "IndexEntry",
    "IndexStats",
    "RunCache",
    "RunIndex",
    "canonical_json",
    "config_fingerprint",
    "scenario_fingerprint",
    "scenario_payload",
    "scenario_summary",
]
