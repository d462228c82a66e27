"""Tests for the content-addressed run store (repro.store)."""

import copy
import gzip
import json
import pickle
import sys
import threading
from dataclasses import replace
from pathlib import Path

import pytest

import repro.store.blobstore as blobstore_module
import repro.store.index as index_module
from repro.errors import ConfigurationError
from repro.obs import REGISTRY
from repro.registry import CATALOG
from repro.simulation import (
    LongitudinalRunner,
    baseline_timeline,
    compare_scenarios,
    megamart_timeline,
    replicate,
    run_sweep,
)
from repro.service.specs import build_plan, comparison_from_payload
from repro.service.workers import execute_plan
from repro.simulation.experiment import extract_metrics, grid
from repro.simulation.sweep import sweep_from_metrics
from repro.simulation.scenario import PlenarySpec, Scenario
from repro.store import (
    BlobStore,
    IndexStats,
    RunCache,
    RunIndex,
    config_fingerprint,
    scenario_fingerprint,
    scenario_payload,
    scenario_summary,
)
from repro.store.fingerprint import seeded

SPEC_DIR = Path(__file__).resolve().parent.parent / "examples" / \
    "scenario_specs"


def tiny_timeline(seed=0, cadence=6.0, session_hours=4.0):
    return Scenario(
        name="tiny",
        seed=seed,
        plenaries=(
            PlenarySpec("Rome", 0.0, "traditional"),
            PlenarySpec("Helsinki", cadence, "hackathon",
                        session_hours=session_hours),
        ),
        horizon_months=cadence + 3.0,
    )


def tiny_cells(seeds):
    """The seeded cells of a replicate of ``tiny_timeline()``."""
    return grid("replicate", (tiny_timeline(),), seeds, seeded).cells


def sweep_through(cache, values, factory, seeds):
    """A cadence sweep resolved through ``cache``, as a SweepResult."""
    cells = grid("sweep", values, seeds, factory)
    return sweep_from_metrics("cadence", values,
                              cells.rows(cache.fetch_metrics(cells.cells)))


class CountingFactory:
    """Runner factory that counts how many simulations actually run."""

    def __init__(self):
        self.calls = 0

    def __call__(self, scenario):
        self.calls += 1
        return LongitudinalRunner(scenario)


# ---------------------------------------------------------------------------
# fingerprints


class TestFingerprint:
    def test_stable_across_objects(self):
        assert scenario_fingerprint(megamart_timeline()) == \
            scenario_fingerprint(megamart_timeline())

    def test_seed_excluded(self):
        s = megamart_timeline()
        assert scenario_fingerprint(s) == scenario_fingerprint(s.with_seed(9))

    def test_reordered_but_equal_config_hashes_equal(self):
        a = {"cadence": 6.0, "policy": "subscription", "sessions": 2}
        b = {"sessions": 2, "cadence": 6.0, "policy": "subscription"}
        assert list(a) != list(b)  # genuinely different insertion order
        assert config_fingerprint(a) == config_fingerprint(b)

    def test_changed_cadence_hashes_differ(self):
        assert scenario_fingerprint(tiny_timeline(cadence=6.0)) != \
            scenario_fingerprint(tiny_timeline(cadence=3.0))

    def test_changed_session_hours_differ(self):
        assert scenario_fingerprint(tiny_timeline(session_hours=4.0)) != \
            scenario_fingerprint(tiny_timeline(session_hours=2.0))

    def test_different_timelines_differ(self):
        assert scenario_fingerprint(megamart_timeline()) != \
            scenario_fingerprint(baseline_timeline())

    def test_model_version_in_payload(self, monkeypatch):
        import repro

        before = scenario_fingerprint(megamart_timeline())
        monkeypatch.setattr(repro, "__version__", "999.0.0")
        assert scenario_fingerprint(megamart_timeline()) != before

    @pytest.mark.parametrize("spec", [
        "hackathon", "traditional", "hybrid-balanced", "free-riders",
        str(SPEC_DIR / "quarterly-hybrid.toml"),
        str(SPEC_DIR / "constrained-virtual.json"),
    ])
    def test_stored_and_carried_equal_fresh(self, spec):
        scenario = CATALOG.resolve(spec)
        fresh = config_fingerprint(scenario_payload(scenario))
        assert scenario_fingerprint(scenario) == fresh
        assert scenario_fingerprint(scenario) == fresh  # the stored value
        for seeded_copy in (scenario.with_seed(7), seeded(scenario, 8)):
            assert "_fingerprint" in vars(seeded_copy)  # carried over
            assert scenario_fingerprint(seeded_copy) == fresh
            assert config_fingerprint(scenario_payload(seeded_copy)) == fresh

    def test_only_with_seed_carries(self):
        scenario = tiny_timeline()
        scenario_fingerprint(scenario)
        renamed = replace(scenario, name="other")
        assert "_fingerprint" not in vars(renamed)
        assert scenario_fingerprint(renamed) == \
            config_fingerprint(scenario_payload(renamed))
        assert scenario_fingerprint(renamed) != scenario_fingerprint(scenario)
        for clone in (pickle.loads(pickle.dumps(scenario)),
                      copy.copy(scenario), copy.deepcopy(scenario)):
            assert clone == scenario
            assert "_fingerprint" not in vars(clone)

    def test_stored_value_is_not_a_field(self):
        scenario = tiny_timeline()
        before = (hash(scenario), scenario_payload(scenario))
        scenario_fingerprint(scenario)
        assert (hash(scenario), scenario_payload(scenario)) == before
        assert scenario == tiny_timeline()

    @pytest.mark.parametrize("key, first, second", [
        ("session_hours", 4, 4.0),
        ("month", 0.0, -0.0),
    ])
    def test_equal_spellings_keep_distinct_fingerprints(self, key, first,
                                                        second):
        def spec(value):
            plenary = {"name": "Rome", "month": 0.0, "kind": "hackathon"}
            plenary[key] = value
            return {"name": "spelled", "plenaries": [plenary]}

        a = CATALOG.resolve(spec(first))
        b = CATALOG.resolve(spec(second))
        assert a == b and hash(a) == hash(b)
        fingerprints = [scenario_fingerprint(a), scenario_fingerprint(b)]
        assert fingerprints == [config_fingerprint(scenario_payload(a)),
                                config_fingerprint(scenario_payload(b))]
        assert fingerprints[0] != fingerprints[1]

    def test_model_version_change_recomputes_stored(self, monkeypatch):
        import repro

        scenario = megamart_timeline()
        before = scenario_fingerprint(scenario)
        monkeypatch.setattr(repro, "__version__", "999.0.0")
        assert scenario_fingerprint(scenario) != before
        assert scenario_fingerprint(scenario) == \
            config_fingerprint(scenario_payload(scenario))

    def test_summary_is_json_serializable(self):
        summary = scenario_summary(megamart_timeline())
        assert summary["name"] == "megamart-hackathon"
        assert summary["hackathons"] == 2
        json.dumps(summary)


# ---------------------------------------------------------------------------
# blob store


class TestBlobStore:
    def test_roundtrip(self, tmp_path):
        store = BlobStore(tmp_path)
        payload = {"knowledge": 12.5, "ties": 3}
        key = store.put(payload)
        assert store.has(key)
        assert store.get(key) == payload

    def test_content_addressing_dedupes(self, tmp_path):
        store = BlobStore(tmp_path)
        k1 = store.put({"a": 1, "b": 2})
        k2 = store.put({"b": 2, "a": 1})  # same content, other order
        assert k1 == k2
        assert store.stats().objects == 1

    def test_sharded_layout(self, tmp_path):
        store = BlobStore(tmp_path)
        key = store.put({"x": 1})
        assert (tmp_path / "objects" / key[:2] / key[2:]).exists()

    def test_missing_returns_default(self, tmp_path):
        store = BlobStore(tmp_path)
        assert store.get("ab" + "0" * 62, default="nope") == "nope"

    def test_corrupted_blob_returns_default(self, tmp_path):
        store = BlobStore(tmp_path)
        key = store.put({"x": 1})
        path = tmp_path / "objects" / key[:2] / key[2:]
        path.write_bytes(b"not gzip at all")
        assert store.get(key, default=None) is None

    def test_wrong_content_rejected_by_hash_check(self, tmp_path):
        store = BlobStore(tmp_path)
        key = store.put({"x": 1})
        path = tmp_path / "objects" / key[:2] / key[2:]
        # Valid gzip, wrong content for this address.
        path.write_bytes(gzip.compress(b'{"x":2}', mtime=0))
        assert store.get(key) is None

    def test_concurrent_writers_same_root(self, tmp_path):
        a = BlobStore(tmp_path)
        b = BlobStore(tmp_path)
        ka = a.put({"shared": True})
        kb = b.put({"shared": True})
        assert ka == kb
        assert a.get(ka) == b.get(kb) == {"shared": True}

    def test_gc_removes_unreferenced_and_tmp_files(self, tmp_path):
        store = BlobStore(tmp_path)
        keep = store.put({"keep": 1})
        store.put({"drop": 1})
        shard = (tmp_path / "objects" / keep[:2])
        (shard / ".tmp-crashed").write_bytes(b"partial")
        removed = store.gc(keep=[keep])
        assert removed == 1
        assert store.has(keep)
        assert not (shard / ".tmp-crashed").exists()
        assert store.stats().objects == 1

    def test_malformed_key_raises(self, tmp_path):
        with pytest.raises(ConfigurationError):
            BlobStore(tmp_path).get("../../etc/passwd")


class TestBlobMemo:
    """Verified payloads are remembered, never trusted over the disk."""

    @staticmethod
    def _decodes(monkeypatch):
        calls = []
        real = blobstore_module.gzip.decompress

        def counting(raw):
            calls.append(raw)
            return real(raw)

        monkeypatch.setattr(blobstore_module.gzip, "decompress", counting)
        return calls

    def test_hit_skips_decode_and_returns_a_copy(self, tmp_path,
                                                 monkeypatch):
        store = BlobStore(tmp_path)
        key = store.put({"kpi": 1.5, "ties": 3})
        first, nbytes = store.load(key)
        decodes = self._decodes(monkeypatch)
        first["kpi"] = -1.0
        del first["ties"]
        again, again_bytes = store.load(key)
        assert again == {"kpi": 1.5, "ties": 3}
        assert again_bytes == nbytes
        assert decodes == []
        again["kpi"] = 99.0
        assert store.get(key) == {"kpi": 1.5, "ties": 3}

    def test_same_length_forgery_over_memoized_blob_caught(self, tmp_path,
                                                          monkeypatch):
        store = BlobStore(tmp_path)
        key = store.put({"kpi": 1.0})
        assert store.get(key) == {"kpi": 1.0}  # memoized
        path = tmp_path / "objects" / key[:2] / key[2:]
        original = path.read_bytes()
        forged = gzip.compress(b'{"kpi":2.0}', mtime=0)
        assert len(forged) == len(original) and forged != original
        path.write_bytes(forged)
        failures = REGISTRY.counter("store_blob_verify_failures_total")
        before = failures.value
        assert store.load(key, default="miss") == ("miss", 0)
        assert failures.value - before == 1
        path.write_bytes(original)
        decodes = self._decodes(monkeypatch)
        assert store.load(key) == ({"kpi": 1.0}, len(original))
        assert decodes == []  # the restored bytes hit the memo again

    def test_nested_payloads_are_not_memoized(self, tmp_path):
        store = BlobStore(tmp_path)
        key = store.put({"rows": [1.0, 2.0]})
        store.get(key)["rows"].append(3.0)
        assert store.get(key) == {"rows": [1.0, 2.0]}
        assert key not in store._memo

    def test_memo_never_exceeds_its_bound(self, tmp_path, monkeypatch):
        monkeypatch.setattr(blobstore_module, "_MEMO_ENTRIES", 3)
        store = BlobStore(tmp_path)
        keys = [store.put({"kpi": float(i)}) for i in range(8)]
        for i, key in enumerate(keys):
            assert store.get(key) == {"kpi": float(i)}
            assert len(store._memo) <= 3
        assert list(store._memo) == keys[-3:]
        assert [store.get(key) for key in keys] == \
            [{"kpi": float(i)} for i in range(8)]

    def test_threads_sharing_one_memo(self, tmp_path, monkeypatch):
        monkeypatch.setattr(blobstore_module, "_MEMO_ENTRIES", 4)
        store = BlobStore(tmp_path)
        payloads = [{"kpi": float(i), "seed": i} for i in range(12)]
        keys = [store.put(payload) for payload in payloads]
        errors = []

        def reader(offset):
            for step in range(300):
                i = (offset + step) % len(keys)
                got = store.get(keys[i])
                if got != payloads[i] or len(store._memo) > 4:
                    errors.append((i, got, len(store._memo)))
                got["kpi"] = -1.0  # a caller's edit never reaches the memo

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader, args=(n,))
                       for n in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(store._memo) <= 4


# ---------------------------------------------------------------------------
# index


class TestRunIndex:
    def test_store_lookup_and_hits(self, tmp_path):
        index = RunIndex(tmp_path / "index.jsonl")
        index.record_store("f" * 64, 3, "b" * 64, {"name": "x"})
        assert index.lookup("f" * 64, 3) == "b" * 64
        assert index.lookup("f" * 64, 4) is None
        index.record_hits([("f" * 64, 3)])
        assert index.stats().hits == 1

    def test_reload_from_journal(self, tmp_path):
        path = tmp_path / "index.jsonl"
        index = RunIndex(path)
        index.record_store("f" * 64, 1, "b" * 64, {"name": "x"})
        index.record_hits([("f" * 64, 1), ("f" * 64, 1)])
        reloaded = RunIndex(path)
        assert reloaded.lookup("f" * 64, 1) == "b" * 64
        assert reloaded.stats().hits == 2

    def test_corrupt_lines_skipped(self, tmp_path):
        path = tmp_path / "index.jsonl"
        index = RunIndex(path)
        index.record_store("f" * 64, 1, "b" * 64, {"name": "x"})
        with path.open("a") as fh:
            fh.write("{torn line\n")
        index.record_store("e" * 64, 2, "c" * 64, {"name": "y"})
        reloaded = RunIndex(path)
        assert reloaded.stats().runs == 2

    def test_compact_preserves_state(self, tmp_path):
        path = tmp_path / "index.jsonl"
        index = RunIndex(path)
        index.record_store("f" * 64, 1, "b" * 64, {"name": "x"})
        index.record_hits([("f" * 64, 1)] * 3)
        index.compact()
        assert len(path.read_text().splitlines()) == 1
        reloaded = RunIndex(path)
        assert reloaded.lookup("f" * 64, 1) == "b" * 64
        assert reloaded.stats().hits == 3

    def test_hits_keep_the_journal_bounded(self, tmp_path, monkeypatch):
        """200 warm 5-cell fetches: the journal compacts itself, and the
        totals match a store whose journal never compacted."""
        cells = tiny_cells(range(5))

        def journal_after_warm_fetches(root):
            cache = RunCache(root)
            longest = 0
            for _ in range(201):  # one cold fetch, then 200 warm ones
                cache.fetch_metrics(cells)
                longest = max(longest, len(
                    cache.index.path.read_text().splitlines()))
            return cache, longest

        bounded, longest = journal_after_warm_fetches(tmp_path / "bounded")
        monkeypatch.setattr(index_module, "COMPACT_SLACK_LINES", 10 ** 9)
        unbounded, grown = journal_after_warm_fetches(tmp_path / "unbounded")
        monkeypatch.undo()
        assert grown == 5 + 200 * 5
        assert longest <= index_module.COMPACT_SLACK_LINES \
            + index_module.COMPACT_LINES_PER_RUN * 5
        assert bounded.index.stats() == unbounded.index.stats() == \
            IndexStats(fingerprints=1, runs=5, hits=1000, misses=5)
        reopened = RunIndex(bounded.index.path)
        assert reopened.entries() == bounded.index.entries()
        assert reopened.stats() == \
            RunIndex(unbounded.index.path).stats()

    def test_compaction_keeps_other_writers_records(self, tmp_path,
                                                    monkeypatch):
        """An index compacts from the file, not from its own view."""
        monkeypatch.setattr(index_module, "COMPACT_SLACK_LINES", 8)
        path = tmp_path / "index.jsonl"
        ours, theirs = RunIndex(path), RunIndex(path)
        ours.record_store("f" * 64, 1, "b" * 64, {"name": "x"})
        theirs.record_store("e" * 64, 2, "c" * 64, {"name": "y"})
        for _ in range(10):
            ours.record_hits([("f" * 64, 1)])
        assert len(path.read_text().splitlines()) < 12  # it compacted
        reloaded = RunIndex(path)
        assert reloaded.lookup("e" * 64, 2) == "c" * 64
        assert reloaded.stats() == IndexStats(fingerprints=2, runs=2,
                                              hits=10, misses=2)


# ---------------------------------------------------------------------------
# run cache


class TestRunCache:
    def test_cached_metrics_bit_identical_to_fresh(self, tmp_path):
        cache = RunCache(tmp_path)
        seeds = [0, 1]
        plan = build_plan("compare", {"seeds": seeds})
        cold = comparison_from_payload(execute_plan(plan, cache))
        warm = comparison_from_payload(execute_plan(plan, cache))
        assert cache.session_hits == 4 and cache.session_misses == 4
        fresh = compare_scenarios(
            megamart_timeline(), baseline_timeline(), seeds=seeds
        )
        assert cold.metrics_a == warm.metrics_a == fresh.metrics_a
        assert cold.metrics_b == warm.metrics_b == fresh.metrics_b
        assert [c.metric for c in warm.all_comparisons()] == \
            [c.metric for c in fresh.all_comparisons()]

    def test_replicate_matches_live_replicate(self, tmp_path):
        factory = CountingFactory()
        cache = RunCache(tmp_path, runner_factory=factory)
        cached = cache.fetch_metrics(tiny_cells([0, 1, 2]))
        live = [
            extract_metrics(h)
            for h in replicate(tiny_timeline(), seeds=[0, 1, 2])
        ]
        assert cached == live
        assert factory.calls == 3

    def test_warm_call_runs_nothing(self, tmp_path):
        factory = CountingFactory()
        cache = RunCache(tmp_path, runner_factory=factory)
        cache.fetch_metrics(tiny_cells([0, 1]))
        assert factory.calls == 2
        again = cache.fetch_metrics(tiny_cells([0, 1]))
        assert factory.calls == 2  # pure disk serve
        assert cache.session_hits == 2
        assert len(again) == 2

    def test_corrupt_blob_recomputed(self, tmp_path):
        factory = CountingFactory()
        cache = RunCache(tmp_path, runner_factory=factory)
        [metrics] = cache.fetch_metrics(tiny_cells([5]))
        fingerprint = scenario_fingerprint(tiny_timeline())
        blob = cache.index.lookup(fingerprint, 5)
        path = cache.blobs._path(blob)
        path.write_bytes(b"garbage")
        [recomputed] = cache.fetch_metrics(tiny_cells([5]))
        assert factory.calls == 2
        assert recomputed == metrics

    def test_persists_across_instances(self, tmp_path):
        cache = RunCache(tmp_path)
        first = cache.fetch_metrics(tiny_cells([0]))
        factory = CountingFactory()
        reopened = RunCache(tmp_path, runner_factory=factory)
        second = reopened.fetch_metrics(tiny_cells([0]))
        assert factory.calls == 0
        assert first == second

    def test_validation(self, tmp_path):
        cache = RunCache(tmp_path)
        with pytest.raises(ConfigurationError):
            cache.fetch_metrics(tiny_cells([]))
        with pytest.raises(ConfigurationError):
            cache.fetch_metrics(tiny_cells([0]), workers=0)
        with pytest.raises(ConfigurationError):
            sweep_through(cache, [], lambda v, s: tiny_timeline(s), [0])

    def test_clear_and_stats(self, tmp_path):
        cache = RunCache(tmp_path)
        cache.fetch_metrics(tiny_cells([0, 1]))
        stats = cache.stats()
        assert stats.runs == 2 and stats.objects == 2
        cache.clear()
        stats = cache.stats()
        assert stats.runs == 0 and stats.objects == 0

    def test_gc_drops_unreferenced_blobs(self, tmp_path):
        cache = RunCache(tmp_path)
        cache.fetch_metrics(tiny_cells([0]))
        cache.blobs.put({"orphan": True})
        report = cache.gc()
        assert report["blobs_removed"] == 1
        assert cache.stats().runs == 1

    def test_gc_drops_runs_with_missing_blobs(self, tmp_path):
        cache = RunCache(tmp_path)
        cache.fetch_metrics(tiny_cells([0]))
        fingerprint = scenario_fingerprint(tiny_timeline())
        blob = cache.index.lookup(fingerprint, 0)
        cache.blobs.delete(blob)
        report = cache.gc()
        assert report["runs_dropped"] == 1
        assert cache.stats().runs == 0


class TestSweepResume:
    def test_resumed_sweep_recomputes_only_missing_cells(self, tmp_path):
        def factory_for(counter):
            def scenario_factory(cadence, seed):
                return tiny_timeline(seed=seed, cadence=cadence)
            return scenario_factory

        counting = CountingFactory()
        cache = RunCache(tmp_path, runner_factory=counting)
        scenario_factory = factory_for(counting)

        # "Interrupted" sweep: only 2 of 3 cadences, 2 of 3 seeds done.
        sweep_through(cache, [3.0, 6.0], scenario_factory, seeds=[0, 1])
        assert counting.calls == 4

        # Resume with the full grid: 3 cadences x 3 seeds = 9 cells,
        # 4 already on disk -> exactly 5 new simulations.
        full = sweep_through(cache, [3.0, 6.0, 9.0], scenario_factory,
                             seeds=[0, 1, 2])
        assert counting.calls == 4 + 5
        assert cache.session_hits == 4

        fresh = run_sweep("cadence", [3.0, 6.0, 9.0], scenario_factory,
                          seeds=[0, 1, 2])
        assert full.labels() == fresh.labels()
        for cached_point, fresh_point in zip(full.points, fresh.points):
            assert cached_point.metrics == fresh_point.metrics

    def test_interrupted_mid_grid_resumes(self, tmp_path):
        """A crash mid-sweep leaves completed cells usable."""
        counting = CountingFactory()

        class Boom(RuntimeError):
            pass

        class ExplodingFactory:
            def __init__(self, fuse):
                self.fuse = fuse

            def __call__(self, scenario):
                if counting.calls >= self.fuse:
                    raise Boom()
                return counting(scenario)

        cache = RunCache(tmp_path, runner_factory=ExplodingFactory(fuse=2))
        scenario_factory = lambda cadence, seed: tiny_timeline(
            seed=seed, cadence=cadence
        )
        with pytest.raises(Boom):
            sweep_through(cache, [3.0, 6.0], scenario_factory, seeds=[0, 1])
        assert cache.stats().runs == 2  # the cells that finished

        cache2 = RunCache(tmp_path, runner_factory=counting)
        sweep_through(cache2, [3.0, 6.0], scenario_factory, seeds=[0, 1])
        assert counting.calls == 4  # 2 before the crash + 2 resumed


# ---------------------------------------------------------------------------
# concurrency: single-flight cache, locked index


class TestConcurrentAccess:
    def test_same_missing_cell_computed_exactly_once(self, tmp_path):
        """Two threads racing on one missing cell share one computation."""
        import threading

        factory = CountingFactory()
        cache = RunCache(tmp_path / "store", runner_factory=factory)
        scenario = tiny_timeline(seed=7)
        barrier = threading.Barrier(2)
        results = [None, None]

        def fetch(slot):
            barrier.wait()
            results[slot] = cache.fetch_metrics([scenario])[0]

        threads = [
            threading.Thread(target=fetch, args=(slot,)) for slot in (0, 1)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert factory.calls == 1, "cell computed more than once"
        assert results[0] == results[1]
        assert results[0] is not None
        assert cache.session_misses == 1
        assert cache.session_hits == 1  # the waiter observed a hit

    def test_many_threads_disjoint_and_shared_cells(self, tmp_path):
        """A mixed workload never double-computes any (scenario, seed)."""
        import threading

        factory = CountingFactory()
        cache = RunCache(tmp_path / "store", runner_factory=factory)
        seeds = [0, 1, 2]
        barrier = threading.Barrier(4)
        outputs = []
        lock = threading.Lock()

        def fetch():
            barrier.wait()
            metrics = cache.fetch_metrics(
                tiny_cells(seeds))
            with lock:
                outputs.append(metrics)

        threads = [threading.Thread(target=fetch) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert len(outputs) == 4
        assert factory.calls == len(seeds)
        for metrics in outputs[1:]:
            assert metrics == outputs[0]

    def test_failed_flight_is_reclaimed_by_waiter(self, tmp_path):
        """If the computing thread dies, a waiter claims and completes."""
        import threading

        class ExplodeOnce:
            def __init__(self):
                self.calls = 0
                self.lock = threading.Lock()

            def __call__(self, scenario):
                with self.lock:
                    self.calls += 1
                    first = self.calls == 1
                if first:
                    raise RuntimeError("boom")
                return LongitudinalRunner(scenario)

        factory = ExplodeOnce()
        cache = RunCache(tmp_path / "store", runner_factory=factory)
        scenario = tiny_timeline(seed=3)
        barrier = threading.Barrier(2)
        outcomes = []
        lock = threading.Lock()

        def fetch():
            barrier.wait()
            try:
                value = cache.fetch_metrics([scenario])[0]
            except RuntimeError as exc:
                value = exc
            with lock:
                outcomes.append(value)

        threads = [threading.Thread(target=fetch) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        errors = [o for o in outcomes if isinstance(o, RuntimeError)]
        values = [o for o in outcomes if isinstance(o, dict)]
        assert len(errors) == 1 and len(values) == 1
        # the losing thread reclaimed the cell and stored it
        assert cache.fetch_metrics([scenario])[0] == values[0]

    def test_index_concurrent_recording_stays_consistent(self, tmp_path):
        """Parallel record_store/record_hits never corrupt the journal."""
        import threading

        path = tmp_path / "index.jsonl"
        index = RunIndex(path)
        n_threads, n_records = 8, 25

        def record(thread_id):
            for i in range(n_records):
                index.record_store(
                    f"fp{thread_id}", i, f"{'ab'[i % 2]}{thread_id:02d}cafe",
                    {"name": f"s{thread_id}"},
                )
                index.record_hits([(f"fp{thread_id}", i)])

        threads = [
            threading.Thread(target=record, args=(t,))
            for t in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        stats = index.stats()
        assert stats.fingerprints == n_threads
        assert stats.runs == n_threads * n_records
        assert stats.hits == n_threads * n_records
        # every journal line must be whole (no interleaved appends)
        reloaded = RunIndex(path)
        assert reloaded.stats() == stats
