"""Equivalence guards for the vectorized/parallel hot paths.

The perf work rebuilt :class:`KnowledgeVector` on a dense array, cached
the network's derived views, and fanned replication out over processes.
None of that is allowed to change a single observable number, so these
tests pin each rewrite against an independent reference:

* the array-backed vector against a straightforward dict-of-floats
  implementation of the same maths;
* ``replicate(workers=4)`` against the serial path, KPI dict for KPI
  dict;
* the ties/inter-org caches against explicit invalidation on every
  mutating network operation;
* multi-seed calls (fast kernels, cloned world templates) against the
  reference runner of ``tests/oracles.py``, one fresh world per seed,
  again KPI dict for KPI dict.
"""

import math
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cognition.knowledge import DEFAULT_DOMAINS, KnowledgeVector
from repro.network.graph import CollaborationNetwork
from repro.obs import REGISTRY
from repro.simulation.experiment import (
    compare_scenarios,
    effective_workers,
    extract_metrics,
    grid,
    replicate,
    replicate_metrics,
)
from repro.simulation.sweep import run_sweep
from repro.simulation.scenario import (
    baseline_timeline,
    interleaved_timeline,
    megamart_timeline,
)

from oracles import reference_kpis

# ---------------------------------------------------------------------------
# Reference implementation: the pre-vectorization dict semantics.
# ---------------------------------------------------------------------------


class DictVector:
    """Plain dict-of-floats mirror of the KnowledgeVector contract."""

    def __init__(self, levels):
        self.levels = {d: float(v) for d, v in dict(levels).items() if v != 0.0}

    def __getitem__(self, domain):
        return self.levels.get(domain, 0.0)

    def norm(self):
        return math.sqrt(sum(v * v for v in self.levels.values()))

    def total(self):
        return sum(self.levels.values())

    def cosine_similarity(self, other):
        na, nb = self.norm(), other.norm()
        if na == 0.0 or nb == 0.0:
            return 0.0
        dot = sum(v * other[d] for d, v in self.levels.items())
        return min(1.0, max(0.0, dot / (na * nb)))

    def absorb(self, other, rate):
        out = dict(self.levels)
        for domain in set(self.levels) | set(other.levels):
            mine, theirs = self[domain], other[domain]
            if theirs > mine:
                out[domain] = mine + rate * (theirs - mine)
        return DictVector(out)

    @staticmethod
    def pooled(vectors):
        out = {}
        for vec in vectors:
            for domain, level in vec.levels.items():
                if level > out.get(domain, 0.0):
                    out[domain] = level
        return DictVector(out)

    def coverage_of(self, required):
        req = list(required)
        if not req:
            return 0.0
        return sum(self[d] for d in req) / len(req)


domains = st.sampled_from(DEFAULT_DOMAINS)
levels = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
profiles = st.dictionaries(domains, levels, max_size=8)


class TestArrayMatchesDictReference:
    @given(profiles, profiles)
    def test_similarity(self, a, b):
        fast = KnowledgeVector(a).cosine_similarity(KnowledgeVector(b))
        slow = DictVector(a).cosine_similarity(DictVector(b))
        assert math.isclose(fast, slow, abs_tol=1e-12)

    @given(profiles)
    def test_norm_and_total(self, levels_map):
        fast = KnowledgeVector(levels_map)
        slow = DictVector(levels_map)
        assert math.isclose(fast.norm(), slow.norm(), abs_tol=1e-12)
        assert math.isclose(fast.total(), slow.total(), abs_tol=1e-12)

    @given(profiles, profiles, st.floats(min_value=0.0, max_value=1.0))
    def test_absorb(self, a, b, rate):
        fast = KnowledgeVector(a).absorb(KnowledgeVector(b), rate)
        slow = DictVector(a).absorb(DictVector(b), rate)
        for domain in DEFAULT_DOMAINS:
            assert math.isclose(fast[domain], slow[domain], abs_tol=1e-12)

    @given(st.lists(profiles, max_size=5))
    def test_pooled(self, maps):
        fast = KnowledgeVector.pooled(KnowledgeVector(m) for m in maps)
        slow = DictVector.pooled(DictVector(m) for m in maps)
        for domain in DEFAULT_DOMAINS:
            assert fast[domain] == slow[domain]

    @given(profiles, st.lists(domains, max_size=6))
    def test_coverage(self, levels_map, required):
        fast = KnowledgeVector(levels_map).coverage_of(required)
        slow = DictVector(levels_map).coverage_of(required)
        assert math.isclose(fast, slow, abs_tol=1e-12)

    @given(profiles)
    def test_dict_round_trip(self, levels_map):
        kv = KnowledgeVector(levels_map)
        nonzero = {d: v for d, v in levels_map.items() if v != 0.0}
        assert kv.as_dict() == nonzero


# ---------------------------------------------------------------------------
# Parallel replication: bit-identical to serial.
# ---------------------------------------------------------------------------


class TestParallelDeterminism:
    SEEDS = [11, 12, 13]

    def test_replicate_workers_match_serial(self):
        scenario = megamart_timeline(seed=0)
        serial = replicate(scenario, self.SEEDS, workers=1)
        parallel = replicate(scenario, self.SEEDS, workers=4)
        assert [extract_metrics(h) for h in serial] == [
            extract_metrics(h) for h in parallel
        ]

    def test_compare_scenarios_workers_match_serial(self):
        a = megamart_timeline(seed=0)
        b = megamart_timeline(seed=1)
        seeds = self.SEEDS[:2]
        serial = compare_scenarios(a, b, seeds, workers=1)
        parallel = compare_scenarios(a, b, seeds, workers=4)
        assert serial.metrics_a == parallel.metrics_a
        assert serial.metrics_b == parallel.metrics_b

    def test_lambda_factory_falls_back_to_serial(self):
        from repro.simulation.runner import LongitudinalRunner

        scenario = megamart_timeline(seed=0)
        factory = lambda sc: LongitudinalRunner(sc)  # noqa: E731
        histories = replicate(
            scenario, self.SEEDS[:1], runner_factory=factory, workers=4
        )
        baseline = replicate(scenario, self.SEEDS[:1], workers=1)
        assert extract_metrics(histories[0]) == extract_metrics(baseline[0])

    def test_workers_validation(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            replicate(megamart_timeline(seed=0), [1], workers=0)

    # On one core ``workers=2`` clamps to the serial path, where the
    # flaky runner would end this process instead of a pool worker.
    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs 2 cores")
    @pytest.mark.parametrize(
        "call", ["replicate_metrics", "compare_scenarios", "run_sweep"])
    def test_worker_death_in_pooled_call_raises_worker_crash(
        self, tmp_path, call
    ):
        """A pooled library call maps a worker death the way the run
        store does, and leaves no worker process behind."""
        from repro.errors import WorkerCrashError
        from repro.service.chaos import make_flaky_factory, pool_worker_pids

        factory = make_flaky_factory(tmp_path / "chaos", max_crashes=1)
        a, b = megamart_timeline(seed=0), baseline_timeline(seed=0)
        calls = {
            "replicate_metrics": lambda: replicate_metrics(
                a, [1, 2, 3, 4], runner_factory=factory, workers=2),
            "compare_scenarios": lambda: compare_scenarios(
                a, b, [1, 2], runner_factory=factory, workers=2),
            "run_sweep": lambda: run_sweep(
                "arm", [a, b], lambda arm, seed: arm.with_seed(seed),
                seeds=[1, 2], runner_factory=factory, workers=2),
        }
        with pytest.raises(WorkerCrashError):
            calls[call]()
        assert pool_worker_pids() == []


# ---------------------------------------------------------------------------
# Network view caches: invalidated by every mutation.
# ---------------------------------------------------------------------------


class TestTiesCacheInvalidation:
    def _network(self):
        net = CollaborationNetwork(tie_threshold=0.1)
        net.add_members([("a", "org1"), ("b", "org2"), ("c", "org3")])
        return net

    def test_strengthen_invalidates(self):
        net = self._network()
        assert net.ties() == []
        net.strengthen("a", "b", 0.5)
        assert net.ties() == [("a", "b", 0.5)]
        net.strengthen("a", "c", 0.2)
        assert [t[:2] for t in net.ties()] == [("a", "b"), ("a", "c")]
        assert [t[:2] for t in net.inter_org_ties()] == [("a", "b"), ("a", "c")]

    def test_weaken_all_invalidates(self):
        net = self._network()
        net.strengthen("a", "b", 0.5)
        net.strengthen("a", "c", 0.11)
        assert net.tie_count() == 2
        net.weaken_all(0.5)
        # a-c drops below threshold (0.055), a-b stays (0.25).
        assert net.ties() == [("a", "b", 0.25)]
        assert net.inter_org_ties() == [("a", "b", 0.25)]

    def test_sub_threshold_strengthen_still_invalidates(self):
        net = self._network()
        net.strengthen("a", "b", 0.06)
        assert net.ties() == []
        net.strengthen("a", "b", 0.06)
        assert net.ties() == [("a", "b", pytest.approx(0.12))]

    def test_repeated_queries_stable_between_mutations(self):
        net = self._network()
        net.strengthen("a", "b", 0.3)
        first = net.ties()
        assert net.ties() is first  # cache hit, not a rebuild
        net.strengthen("b", "c", 0.3)
        assert net.ties() is not first


# ---------------------------------------------------------------------------
# Multi-seed calls: bit-identical to the reference runner, seed by seed.
# ---------------------------------------------------------------------------


def _kpis(scenario, seeds, **kwargs):
    return [extract_metrics(h) for h in replicate(scenario, seeds, **kwargs)]


def _reference(scenario, seeds):
    return [reference_kpis(scenario.with_seed(s)) for s in seeds]


class TestBatchEquivalence:
    """A batch of seeds run in one call must reproduce, seed for seed,
    what the scalar reference runner (``tests/oracles.py``: reference
    kernels, a freshly built world per seed) produces.

    No tolerance anywhere: ``==`` on the raw KPI dictionaries.  Runs in
    one call clone world templates the earlier runs cached, so these
    tests also pin that a seed's KPIs do not depend on which other seeds
    share its call, or in what order.
    """

    @pytest.mark.parametrize(
        "factory", [megamart_timeline, baseline_timeline,
                    interleaved_timeline],
        ids=["hackathon", "traditional", "interleaved"],
    )
    @pytest.mark.parametrize("n", [1, 7])
    def test_batch_matches_scalar(self, factory, n):
        scenario = factory(seed=0)
        seeds = list(range(n))
        assert _kpis(scenario, seeds) == _reference(scenario, seeds)

    def test_batch_matches_scalar_100_seeds(self):
        scenario = megamart_timeline(seed=0)
        seeds = list(range(100))
        assert _kpis(scenario, seeds) == _reference(scenario, seeds)

    def test_compare_scenarios_batch_matches_scalar(self):
        a, b = megamart_timeline(seed=0), baseline_timeline(seed=0)
        result = compare_scenarios(a, b, [1, 2, 3])
        assert result.metrics_a == _reference(a, [1, 2, 3])
        assert result.metrics_b == _reference(b, [1, 2, 3])

    def test_lane_order_invariance(self):
        """A seed's KPIs depend only on its seed, not its position."""
        scenario = megamart_timeline(seed=0)
        ordered = _kpis(scenario, [3, 5, 8, 13])
        shuffled = _kpis(scenario, [13, 3, 8, 5])
        by_seed = dict(zip([13, 3, 8, 5], shuffled))
        assert [by_seed[s] for s in [3, 5, 8, 13]] == ordered

    def test_batch_size_invariance(self):
        """A seed's KPIs do not change with who shares the call."""
        scenario = megamart_timeline(seed=0)
        alone = _reference(scenario, [7])[0]
        in_small = _kpis(scenario, [6, 7])[1]
        in_large = _kpis(scenario, [5, 6, 7, 8, 9])[2]
        assert alone == in_small == in_large

    def test_duplicate_seeds_share_results(self):
        scenario = megamart_timeline(seed=0)
        twice = _kpis(scenario, [9, 9, 2])
        assert twice[0] == twice[1]
        assert twice[0] == _reference(scenario, [9])[0]

    def test_unknown_backend_rejected(self):
        """There is one engine: ``backend=`` is not an option at all."""
        with pytest.raises(TypeError, match="backend"):
            replicate(megamart_timeline(seed=0), [1, 2], backend="scalar")


class TestBatchFallbacks:
    def test_runner_factory_falls_back(self):
        """A custom ``runner_factory`` bypasses the world-template cache:
        every run is built by the factory, with unchanged KPIs."""
        from repro.simulation.runner import LongitudinalRunner

        scenario = megamart_timeline(seed=0)
        factory = lambda sc: LongitudinalRunner(sc)  # noqa: E731

        def template_lookups():
            snap = REGISTRY.snapshot()
            return (snap.get("batch_template_hits_total", 0.0)
                    + snap.get("batch_template_misses_total", 0.0))

        before = template_lookups()
        via_factory = _kpis(scenario, [1, 2], runner_factory=factory)
        assert template_lookups() == before
        assert via_factory == _reference(scenario, [1, 2])


def _cells(scenario, seeds):
    from repro.store.fingerprint import seeded

    return grid("replicate", (scenario,), seeds, seeded).cells


class TestRunCacheBatch:
    """The cache stores a batch of computed cells bit-identically."""

    def test_cold_batch_fill_matches_scalar_and_warm_reads(self, tmp_path):
        from repro.store.runcache import RunCache

        scenario = megamart_timeline(seed=0)
        seeds = [1, 2, 3]
        cache = RunCache(tmp_path / "store")
        cold = cache.fetch_metrics(_cells(scenario, seeds))
        assert cache.session_misses == 3
        assert cold == _reference(scenario, seeds)
        warm = RunCache(tmp_path / "store").fetch_metrics(
            _cells(scenario, seeds))
        assert warm == cold

    def test_partial_hits_batch_only_the_missing_cells(self, tmp_path):
        from repro.store.runcache import RunCache

        scenario = megamart_timeline(seed=0)
        cache = RunCache(tmp_path / "store")
        cache.fetch_metrics(_cells(scenario, [1, 2]))
        out = cache.fetch_metrics(_cells(scenario, [1, 2, 3, 4]))
        assert cache.session_hits == 2
        assert cache.session_misses == 4
        assert out == _reference(scenario, [1, 2, 3, 4])


class TestWorkersClamp:
    def test_effective_workers_caps_at_cpu_count(self):
        cores = os.cpu_count() or 1
        assert effective_workers(1) == 1
        assert effective_workers(cores) == cores
        assert effective_workers(cores + 100) == cores

    def test_oversubscribed_replicate_matches_serial(self):
        scenario = megamart_timeline(seed=0)
        huge = _kpis(scenario, [1, 2], workers=10_000)
        assert huge == _kpis(scenario, [1, 2], workers=1)

    def test_scheduler_clamps_workers(self, tmp_path):
        from repro.service.scheduler import Scheduler
        from repro.store.runcache import RunCache

        scheduler = Scheduler(RunCache(tmp_path / "store"), workers=10_000)
        try:
            # Capped at the core count, but a pooled request never drops
            # below 2 workers: the pool is what isolates the dispatcher
            # from crashing runners.
            assert scheduler.workers == max(2, os.cpu_count() or 1)
        finally:
            scheduler.shutdown()

    def test_scheduler_keeps_serial_request_serial(self, tmp_path):
        from repro.service.scheduler import Scheduler
        from repro.store.runcache import RunCache

        scheduler = Scheduler(RunCache(tmp_path / "store"), workers=1)
        try:
            assert scheduler.workers == 1
        finally:
            scheduler.shutdown()
