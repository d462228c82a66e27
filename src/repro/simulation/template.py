"""Template-cloned world setup: build a world once, run it many times.

``LongitudinalRunner.__init__`` builds the full object graph — the
27-organisation consortium roster (seed-dependent staff draws), the
framework, the work plan, the RNG hub.  The world a setup produces is a
pure function of the scenario's setup-relevant fields (master seed,
horizon, burnout recovery, adversarial shares), so this module memoizes
the initialized runner per setup fingerprint and materializes runners
by cloning the pickled template (~2 ms, against ~9 ms to build, warm, on
a 2-vCPU container) instead of re-running the builder.  Every run
without a custom ``runner_factory`` gets its runner here
(:func:`repro.simulation.cells._run_history`).

Two properties make the clone safe:

* the pickle round-trip restores the RNG hub (and every consumed
  substream) bit-exactly, so a cloned runner replays the identical draw
  sequence a freshly built runner would — ``tests/test_oracles.py`` and
  ``tests/test_perf_equivalence.py`` pin KPI equality with freshly built
  reference runners on top of this path;
* every *run-time* scenario field (plenaries, team policy, follow-up
  switch, ...) is read from ``runner.scenario``, which
  :func:`template_runner` re-points at the exact scenario requested, so
  one template serves every scenario that shares its setup fields —
  notably both sides of a ``compare_scenarios`` call and every cell of
  a sweep over non-setup parameters.

The cache is process-local, LRU-bounded and thread-safe; the service
layer's process-pool workers each grow their own.
"""

from __future__ import annotations

import json
import pickle
import threading
from collections import OrderedDict
from dataclasses import asdict
from typing import Optional

from repro.cognition.knowledge import registered_domains
from repro.obs import REGISTRY, span
from repro.simulation.runner import LongitudinalRunner
from repro.simulation.scenario import Scenario

__all__ = [
    "clear_template_cache",
    "setup_fingerprint",
    "template_cache_size",
    "template_runner",
]

#: Scenario fields that do NOT influence ``LongitudinalRunner.__init__``:
#: they are consulted at run time through ``runner.scenario``.  Any field
#: not listed here (including ones added later) conservatively splits the
#: template space instead of risking a stale share.
_RUNTIME_ONLY_FIELDS = frozenset(
    {
        "name",
        "plenaries",
        "followup_enabled",
        "team_policy",
        "per_owner_challenges",
        "engagement_scale",
        "mixing_scale",
        "plugin",
        "spec_version",
        # horizon_months only matters through end_month, recorded below.
    }
)

_MAX_TEMPLATES = 256

_lock = threading.Lock()
_cache: "OrderedDict[str, bytes]" = OrderedDict()

# The names keep their historical ``batch_`` prefix: dashboards and
# perfbench read them.
_HITS = REGISTRY.counter(
    "batch_template_hits_total",
    help="Runner setups served by cloning a cached world template",
)
_MISSES = REGISTRY.counter(
    "batch_template_misses_total",
    help="Runner setups that built (and cached) a fresh world template",
)


def setup_fingerprint(scenario: Scenario) -> str:
    """Canonical key for "same initialized world".

    Two scenarios with equal fingerprints run ``LongitudinalRunner``
    setup to the identical object graph and RNG state; they may still
    differ in any run-time field.
    """
    payload = {
        k: v for k, v in asdict(scenario).items()
        if k not in _RUNTIME_ONLY_FIELDS and k != "horizon_months"
    }
    payload["end_month"] = scenario.end_month
    # Setup bakes registry-width float reductions into the template (the
    # initial knowledge snapshot sums each member's dense vector), and
    # NumPy's pairwise summation groups differently as the process-wide
    # domain registry grows.  A template built before a registry append
    # is therefore one ULP away from a fresh build, so the intern order
    # is part of "same initialized world".
    payload["domain_registry"] = list(registered_domains())
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def template_runner(scenario: Scenario) -> LongitudinalRunner:
    """An initialized runner for ``scenario``, cloned from cache if possible.

    On a miss the freshly built runner is returned directly (its pickle
    is what gets cached), so the cold path pays one ``pickle.dumps``
    over the plain builder; every later runner with the same setup
    fingerprint costs one ``pickle.loads``.
    """
    key = setup_fingerprint(scenario)
    with _lock:
        blob: Optional[bytes] = _cache.get(key)
        if blob is not None:
            _cache.move_to_end(key)
    if blob is None:
        _MISSES.inc()
        runner = LongitudinalRunner(scenario)
        blob = pickle.dumps(runner, protocol=pickle.HIGHEST_PROTOCOL)
        with _lock:
            _cache[key] = blob
            _cache.move_to_end(key)
            while len(_cache) > _MAX_TEMPLATES:
                _cache.popitem(last=False)
        return runner
    _HITS.inc()
    with span("sim.setup", scenario=scenario.name, seed=scenario.seed,
              template="clone"):
        runner = pickle.loads(blob)
        # The template may have been built for a sibling scenario that
        # shares the setup fields; run-time state reads go through these
        # two references, so re-point them at the scenario requested.
        runner.scenario = scenario
        runner._history.scenario = scenario
    return runner


def template_cache_size() -> int:
    with _lock:
        return len(_cache)


def clear_template_cache() -> None:
    with _lock:
        _cache.clear()
