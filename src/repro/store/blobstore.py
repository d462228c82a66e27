"""Content-addressed on-disk blob store.

Payloads (JSON-serializable objects) are stored gzip-compressed under
``objects/ab/cdef…`` where ``abcdef…`` is the SHA-256 of the canonical
JSON encoding — identical payloads share one object regardless of who
writes them or how often.  Writes go through a temp file in the target
directory followed by :func:`os.replace`, so concurrent writers racing
on the same key are safe (last rename wins, all renames carry identical
bytes) and a crashed writer never leaves a half-written object behind.

Reads verify the content hash, so a corrupted or truncated object is
indistinguishable from an absent one — callers just recompute.  Every
read still reads the file, but a store remembers the last
:data:`_MEMO_ENTRIES` flat payloads it verified together with their
compressed bytes: when the bytes read equal the remembered ones, the
read skips gunzip, hashing and JSON decoding.  Bytes that differ take
the full path, so a forged object is still caught.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
import tempfile
import threading
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, Tuple

from repro.errors import ConfigurationError
from repro.obs import REGISTRY
from repro.store.fingerprint import canonical_json

__all__ = ["BlobStats", "BlobStore"]

_TMP_PREFIX = ".tmp-"

#: Verified payloads one store remembers (about 2 KiB each for a KPI
#: dictionary); the oldest is dropped first.
_MEMO_ENTRIES = 1024

_SCALARS = (str, int, float, bool, type(None))

_READS = REGISTRY.counter(
    "store_blob_reads_total",
    help="Blob payloads read back from the object store",
)
_READ_BYTES = REGISTRY.counter(
    "store_blob_read_bytes_total",
    help="Compressed bytes read from the object store",
)
_WRITES = REGISTRY.counter(
    "store_blob_writes_total",
    help="Blob objects written to the object store",
)
_WRITE_BYTES = REGISTRY.counter(
    "store_blob_write_bytes_total",
    help="Compressed bytes written to the object store",
)
_VERIFY_FAILURES = REGISTRY.counter(
    "store_blob_verify_failures_total",
    help="Blob reads whose content failed hash verification",
)
_EVICTIONS = REGISTRY.counter(
    "store_blob_evictions_total",
    help="Blob objects deleted by garbage collection",
)


@dataclass(frozen=True)
class BlobStats:
    """Object count and on-disk footprint of one store."""

    objects: int
    total_bytes: int


class BlobStore:
    """Sharded, content-addressed object store rooted at ``root``."""

    def __init__(self, root: os.PathLike) -> None:
        self.root = Path(root)
        self.objects_dir = self.root / "objects"
        self.objects_dir.mkdir(parents=True, exist_ok=True)
        # key -> (compressed bytes, payload) of verified flat mappings.
        self._memo: Dict[str, Tuple[bytes, Dict[str, Any]]] = {}
        self._memo_lock = threading.Lock()

    # -- addressing -------------------------------------------------------

    def _path(self, key: str) -> Path:
        if len(key) < 3 or not all(c in "0123456789abcdef" for c in key):
            raise ConfigurationError(f"malformed blob key {key!r}")
        return self.objects_dir / key[:2] / key[2:]

    # -- primitives -------------------------------------------------------

    def put(self, payload: Any) -> str:
        """Store ``payload`` and return its content key (idempotent)."""
        data = canonical_json(payload).encode("ascii")
        key = hashlib.sha256(data).hexdigest()
        path = self._path(key)
        if path.exists():
            return key
        path.parent.mkdir(parents=True, exist_ok=True)
        # mtime=0 keeps the compressed bytes deterministic, so two
        # concurrent writers rename byte-identical files over each other.
        blob = gzip.compress(data, mtime=0)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=_TMP_PREFIX)
        try:
            os.write(fd, blob)
        finally:
            os.close(fd)
        os.replace(tmp, path)
        _WRITES.inc()
        _WRITE_BYTES.inc(len(blob))
        return key

    def get(self, key: str, default: Any = None) -> Any:
        """Load a payload; ``default`` when absent, corrupt or truncated."""
        return self.load(key, default)[0]

    def load(self, key: str, default: Any = None) -> tuple:
        """``(payload, compressed_bytes)``; ``(default, 0)`` on any miss.

        The byte count is the on-disk (compressed) size actually read,
        which is what the cache reports as "bytes served".
        """
        path = self._path(key)
        try:
            raw = path.read_bytes()
        except OSError:
            return default, 0
        known = self._memo.get(key)
        if known is not None and known[0] == raw:
            _READS.inc()
            _READ_BYTES.inc(len(raw))
            return dict(known[1]), len(raw)
        try:
            data = gzip.decompress(raw)
        except (OSError, EOFError, zlib.error):
            return default, 0
        _READS.inc()
        _READ_BYTES.inc(len(raw))
        if hashlib.sha256(data).hexdigest() != key:
            _VERIFY_FAILURES.inc()
            return default, 0
        try:
            payload = json.loads(data.decode("ascii"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return default, 0
        if isinstance(payload, dict) and all(
            isinstance(value, _SCALARS) for value in payload.values()
        ):
            self._remember(key, raw, dict(payload))
        return payload, len(raw)

    def _remember(self, key: str, raw: bytes,
                  payload: Dict[str, Any]) -> None:
        with self._memo_lock:
            self._memo.pop(key, None)
            if len(self._memo) >= _MEMO_ENTRIES:
                del self._memo[next(iter(self._memo))]
            self._memo[key] = (raw, payload)

    def has(self, key: str) -> bool:
        return self._path(key).exists()

    def delete(self, key: str) -> bool:
        try:
            self._path(key).unlink()
            return True
        except OSError:
            return False

    def keys(self) -> Iterator[str]:
        for shard in sorted(self.objects_dir.iterdir()):
            if not shard.is_dir():
                continue
            for obj in sorted(shard.iterdir()):
                if not obj.name.startswith(_TMP_PREFIX):
                    yield shard.name + obj.name

    # -- maintenance ------------------------------------------------------

    def gc(self, keep: Iterable[str]) -> int:
        """Delete every object not in ``keep``; return how many died.

        Leftover temp files from crashed writers are swept as well.
        """
        live = set(keep)
        removed = 0
        for shard in list(self.objects_dir.iterdir()):
            if not shard.is_dir():
                continue
            for obj in list(shard.iterdir()):
                if obj.name.startswith(_TMP_PREFIX):
                    obj.unlink(missing_ok=True)
                    continue
                if shard.name + obj.name not in live:
                    obj.unlink(missing_ok=True)
                    removed += 1
            if not any(shard.iterdir()):
                shard.rmdir()
        _EVICTIONS.inc(removed)
        return removed

    def stats(self) -> BlobStats:
        objects = 0
        total = 0
        for key in self.keys():
            objects += 1
            total += self._path(key).stat().st_size
        return BlobStats(objects=objects, total_bytes=total)
