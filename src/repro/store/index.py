"""JSON-lines manifest mapping fingerprints to cached runs.

The index is the store's directory: one entry per scenario fingerprint
recording a human-readable summary, the seeds cached so far (seed →
blob key), creation / last-use timestamps, and a hit counter.  On disk
it is an append-only JSONL journal — every ``store`` and ``hit`` is one
line, so concurrent appenders interleave whole records and a crashed
writer costs at most its last line.  :meth:`RunIndex.compact` rewrites
the journal as one ``entry`` snapshot per fingerprint.  Hits would grow
the journal without bound, so an append that takes it past
:data:`COMPACT_SLACK_LINES` plus :data:`COMPACT_LINES_PER_RUN` lines
per cached run compacts it under the lock, first re-reading it if
another process has appended to it.

Unreadable journal lines are skipped on load, mirroring the blob
store's stance: corruption downgrades to a cache miss, never an error.

All public methods are guarded by one :class:`threading.Lock`, so the
serving layer's request threads can record stores and hits against a
shared index without interleaving JSONL appends or corrupting the
in-memory maps.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Set

__all__ = ["IndexEntry", "IndexStats", "RunIndex"]

#: Journal lines allowed beyond :data:`COMPACT_LINES_PER_RUN` per cached
#: run before an append compacts the journal.
COMPACT_SLACK_LINES = 256
COMPACT_LINES_PER_RUN = 2


@dataclass
class IndexEntry:
    """All cached runs of one scenario fingerprint."""

    fingerprint: str
    scenario: Dict[str, Any] = field(default_factory=dict)
    seeds: Dict[int, str] = field(default_factory=dict)  # seed -> blob key
    created: float = 0.0
    last_used: float = 0.0
    hits: int = 0
    #: Cells computed fresh (every ``store`` journal event is one miss).
    misses: int = 0


@dataclass(frozen=True)
class IndexStats:
    """Aggregate counters over the whole manifest."""

    fingerprints: int
    runs: int
    hits: int
    misses: int = 0


class RunIndex:
    """In-memory view over an append-only JSONL manifest."""

    def __init__(self, path: os.PathLike) -> None:
        self.path = Path(path)
        self._entries: Dict[str, IndexEntry] = {}
        # The journal's lines and bytes as this index last knew them: a
        # size it does not expect means another process appended.
        self._lines = 0
        self._size = 0
        self._lock = threading.Lock()
        self._load()

    # -- journal ----------------------------------------------------------

    def _load(self) -> None:
        """(Re)build the in-memory view from the journal on disk."""
        self._entries.clear()
        self._lines = self._size = 0
        if not self.path.exists():
            return
        with self.path.open("rb") as fh:
            for raw in fh:
                self._size += len(raw)
                line = raw.decode("ascii", errors="replace").strip()
                if not line:
                    continue
                self._lines += 1
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn or corrupt line: skip, don't fail
                if isinstance(record, dict):
                    self._apply(record)

    def _apply(self, record: Dict[str, Any]) -> None:
        kind = record.get("event")
        fingerprint = record.get("fingerprint")
        if not isinstance(fingerprint, str):
            return
        if kind == "store":
            entry = self._entries.setdefault(
                fingerprint, IndexEntry(fingerprint=fingerprint)
            )
            entry.scenario = record.get("scenario", entry.scenario)
            entry.seeds[int(record["seed"])] = record["blob"]
            entry.misses += 1  # a stored cell was computed fresh
            ts = float(record.get("ts", 0.0))
            entry.created = entry.created or ts
            entry.last_used = max(entry.last_used, ts)
        elif kind == "hit":
            entry = self._entries.get(fingerprint)
            if entry is not None:
                entry.hits += 1
                entry.last_used = max(
                    entry.last_used, float(record.get("ts", 0.0))
                )
        elif kind == "entry":  # compacted snapshot
            self._entries[fingerprint] = IndexEntry(
                fingerprint=fingerprint,
                scenario=record.get("scenario", {}),
                seeds={
                    int(s): b for s, b in record.get("seeds", {}).items()
                },
                created=float(record.get("created", 0.0)),
                last_used=float(record.get("last_used", 0.0)),
                hits=int(record.get("hits", 0)),
                misses=int(record.get("misses", 0)),
            )

    def _append(self, records: List[Dict[str, Any]]) -> None:
        if not records:
            return
        lines = "".join(
            json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n"
            for r in records
        )
        with self.path.open("a", encoding="ascii") as fh:
            fh.write(lines)
        self._lines += len(records)
        self._size += len(lines)
        if self._lines > COMPACT_SLACK_LINES + COMPACT_LINES_PER_RUN * sum(
            len(e.seeds) for e in self._entries.values()
        ):
            try:
                others_wrote = self.path.stat().st_size != self._size
            except FileNotFoundError:
                others_wrote = True
            if others_wrote:
                self._load()  # so their records survive the rewrite
            self._write_snapshot()

    # -- recording --------------------------------------------------------

    def record_store(
        self,
        fingerprint: str,
        seed: int,
        blob: str,
        scenario: Dict[str, Any],
    ) -> None:
        record = {
            "event": "store",
            "fingerprint": fingerprint,
            "seed": int(seed),
            "blob": blob,
            "scenario": scenario,
            "ts": time.time(),
        }
        with self._lock:
            self._apply(record)
            self._append([record])

    def record_hits(self, pairs: List[tuple]) -> None:
        """Record ``(fingerprint, seed)`` hits in one journal write."""
        now = time.time()
        records = [
            {"event": "hit", "fingerprint": fp, "seed": int(seed), "ts": now}
            for fp, seed in pairs
        ]
        with self._lock:
            for record in records:
                self._apply(record)
            self._append(records)

    # -- queries ----------------------------------------------------------

    def lookup(self, fingerprint: str, seed: int) -> Optional[str]:
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is None:
                return None
            return entry.seeds.get(int(seed))

    def entries(self) -> List[IndexEntry]:
        with self._lock:
            return self._entries_snapshot()

    def _entries_snapshot(self) -> List[IndexEntry]:
        return sorted(self._entries.values(), key=lambda e: e.fingerprint)

    def referenced_blobs(self) -> Set[str]:
        with self._lock:
            return {
                blob
                for entry in self._entries.values()
                for blob in entry.seeds.values()
            }

    def stats(self) -> IndexStats:
        with self._lock:
            return IndexStats(
                fingerprints=len(self._entries),
                runs=sum(len(e.seeds) for e in self._entries.values()),
                hits=sum(e.hits for e in self._entries.values()),
                misses=sum(e.misses for e in self._entries.values()),
            )

    # -- maintenance ------------------------------------------------------

    def drop_blobs(self, dead: Set[str]) -> int:
        """Forget seeds whose blob is in ``dead``; return runs dropped."""
        dropped = 0
        with self._lock:
            for fingerprint in list(self._entries):
                entry = self._entries[fingerprint]
                for seed in [s for s, b in entry.seeds.items() if b in dead]:
                    del entry.seeds[seed]
                    dropped += 1
                if not entry.seeds:
                    del self._entries[fingerprint]
        return dropped

    def compact(self) -> None:
        """Rewrite the journal as one snapshot line per fingerprint."""
        with self._lock:
            self._write_snapshot()

    def _write_snapshot(self) -> None:
        """Replace the journal with the in-memory entries (lock held)."""
        lines = "".join(
            json.dumps({
                "event": "entry",
                "fingerprint": e.fingerprint,
                "scenario": e.scenario,
                "seeds": {str(s): b for s, b in sorted(e.seeds.items())},
                "created": e.created,
                "last_used": e.last_used,
                "hits": e.hits,
                "misses": e.misses,
            }, sort_keys=True, separators=(",", ":")) + "\n"
            for e in self._entries_snapshot()
        )
        # One temporary name per process: two processes compacting the
        # same store must not write into each other's file.
        tmp = self.path.with_name(f"{self.path.name}.{os.getpid()}.tmp")
        tmp.write_text(lines, encoding="ascii")
        os.replace(tmp, self.path)
        self._lines, self._size = len(self._entries), len(lines)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._lines = self._size = 0
            self.path.unlink(missing_ok=True)
