"""Per-layer accounting from outside the program.

Nothing here edits ``src/``.  :class:`Probes` wraps public callables of
each layer for the length of one traced phase and restores them after:

* ``ServiceAPI.dispatch`` of the running server (``service.wire``);
* ``build_plan`` and ``execute_plan`` as the scheduler module calls
  them (``service.specs`` and ``service.workers``);
* ``fetch_metrics`` of the server's ``RunCache``, ``load``/``get``/
  ``put`` of its ``BlobStore`` and ``lookup``/``record_hits``/
  ``record_store`` of its ``RunIndex`` (``store``).

Engine phases come from the ``sim.*`` spans the engine already records
through ``repro.obs.TRACER``; counters come from deltas of the
Prometheus samples the service exposes at ``/v1/metrics``.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Tuple

#: Engine span name -> per-layer metric suffix (self time per run).
SIM_PHASES = {
    "sim.setup": "setup_ms",
    "sim.plenary.exchange": "exchange_ms",
    "sim.plenary.metrics": "metrics_ms",
    "sim.plenary.survey": "survey_ms",
    "sim.trajectory": "trajectory_ms",
    "sim.inter_event": "aging_ms",
}


class Meter:
    """Calls through one wrapped callable and the seconds they took."""

    __slots__ = ("calls", "seconds")

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0

    def ms_per_call(self) -> float:
        return self.seconds * 1000.0 / self.calls if self.calls else 0.0


class Probes:
    """Timing wrappers around the service stack's layer entry points."""

    def __init__(self) -> None:
        self.meters: Dict[str, Meter] = defaultdict(Meter)
        self.result_bytes = 0
        self.results = 0
        self._lock = threading.Lock()
        self._undo: List[Callable[[], None]] = []
        # One flag per meter and thread: a wrapped call made from inside
        # another call of the same meter (``get`` delegating to ``load``)
        # is counted once, by the outer call.
        self._active: Dict[str, threading.local] = defaultdict(
            threading.local
        )

    def _record(self, name: str, seconds: float) -> None:
        with self._lock:
            meter = self.meters[name]
            meter.calls += 1
            meter.seconds += seconds

    def _patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else None
        setattr(owner, attr, wrapper)
        if own:
            self._undo.append(lambda: setattr(owner, attr, original))
        else:
            self._undo.append(lambda: delattr(owner, attr))

    def _time(self, owner: Any, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        record = self._record
        active = self._active[name]

        def timed(*args: Any, **kwargs: Any) -> Any:
            if getattr(active, "on", False):
                return original(*args, **kwargs)
            active.on = True
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                active.on = False
                record(name, time.perf_counter() - start)

        self._patch(owner, attr, timed)

    def install(self, server: Any, scheduler_module: Any,
                stream_type: type) -> None:
        """Wrap the layers of one running server (call between phases)."""
        api = server.api
        dispatch = api.dispatch

        def timed_dispatch(method: str, target: str, *args: Any,
                           **kwargs: Any) -> Any:
            start = time.perf_counter()
            outcome = dispatch(method, target, *args, **kwargs)
            elapsed = time.perf_counter() - start
            streamed = isinstance(outcome, stream_type)
            self._record("wire.stream" if streamed else "wire.plain",
                         elapsed)
            if not streamed and target.endswith("/result") \
                    and outcome.status == 200:
                with self._lock:
                    self.results += 1
                    self.result_bytes += len(outcome.body)
            return outcome

        self._patch(api, "dispatch", timed_dispatch)
        self._time(scheduler_module, "build_plan", "specs.build_plan")
        self._time(scheduler_module, "execute_plan", "workers.execute")
        cache = server.scheduler.cache
        self._time(cache, "fetch_metrics", "store.fetch")
        for attr in ("load", "get"):
            self._time(cache.blobs, attr, "store.blob_get")
        self._time(cache.blobs, "put", "store.blob_put")
        for attr in ("lookup", "record_hits", "record_store"):
            self._time(cache.index, attr, "store.index")

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def meter(self, name: str) -> Meter:
        return self.meters.get(name, Meter())


def delta(before: Dict[str, float], after: Dict[str, float],
          family: str) -> float:
    """Change of every sample of ``family`` (all label sets summed)."""
    total = 0.0
    for name, value in after.items():
        if name == family or name.startswith(family + "{"):
            total += value - before.get(name, 0.0)
    return total


def labelled_deltas(before: Dict[str, float], after: Dict[str, float],
                    family: str) -> Dict[str, float]:
    """Per-label-set change of ``family``, zero changes dropped."""
    out = {}
    for name, value in after.items():
        if name.startswith(family + "{"):
            change = value - before.get(name, 0.0)
            if change:
                out[name[len(family):]] = change
    return out


def span_self_seconds(roots: Iterable[Any]) -> Dict[str, float]:
    """Self time by span name: duration minus what its children cover."""
    totals: Dict[str, float] = defaultdict(float)
    for root in roots:
        for span_obj, _ in root.walk():
            covered = sum(c.duration_s or 0.0 for c in span_obj.children)
            totals[span_obj.name] += max(
                0.0, (span_obj.duration_s or 0.0) - covered
            )
    return dict(totals)


def summarize(seconds: List[float]) -> Dict[str, Any]:
    """Median and the highest listed percentile with >= 10 samples above.

    Values are in milliseconds; ``tail_pct`` is None when there are too
    few samples for any listed percentile to have ten beyond it.
    """
    ordered = sorted(s * 1000.0 for s in seconds)
    n = len(ordered)
    out: Dict[str, Any] = {"n": n, "p50_ms": None, "tail_pct": None,
                           "tail_ms": None}
    if not n:
        return out
    mid = n // 2
    out["p50_ms"] = (ordered[mid] if n % 2
                     else (ordered[mid - 1] + ordered[mid]) / 2.0)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        rank = -(-n * pct // 100)  # nearest rank, 1-based
        if n - rank >= 10:
            out["tail_pct"] = pct
            out["tail_ms"] = ordered[int(rank) - 1]
            break
    return out


def ratio(part: float, base: float) -> Tuple[float, Dict[str, float]]:
    """``part / base`` (0 when the base is 0) together with its base."""
    return (part / base if base else 0.0), {"part": part, "base": base}
