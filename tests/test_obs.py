"""Tests for the observability layer (repro.obs)."""

import io
import json
import threading

import pytest

from repro.errors import ConfigurationError
from repro.obs import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    REGISTRY,
    Tracer,
    get_registry,
    get_tracer,
    obs_enabled,
    render_text,
    set_enabled,
    span_coverage,
    spans_from_jsonl,
    tracing,
)
from repro.simulation import (
    baseline_timeline,
    compare_scenarios,
    megamart_timeline,
)


# ---------------------------------------------------------------------------
# registry: counters and gauges


class TestCounterGauge:
    def test_counter_counts(self):
        registry = MetricsRegistry()
        c = registry.counter("widgets_total")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_counter_rejects_negative(self):
        c = MetricsRegistry().counter("widgets_total")
        with pytest.raises(ConfigurationError):
            c.inc(-1)

    def test_counter_is_shared_by_name_and_labels(self):
        registry = MetricsRegistry()
        a = registry.counter("hits_total", kind="x")
        b = registry.counter("hits_total", kind="x")
        other = registry.counter("hits_total", kind="y")
        a.inc()
        b.inc()
        assert a is b
        assert a.value == 2
        assert other.value == 0

    def test_kind_conflict_is_an_error(self):
        registry = MetricsRegistry()
        registry.counter("thing")
        with pytest.raises(ConfigurationError):
            registry.gauge("thing")

    def test_gauge_moves_both_ways(self):
        g = MetricsRegistry().gauge("depth")
        g.set(5)
        g.dec(2)
        g.inc()
        assert g.value == 4

    def test_thread_safety_exact_totals(self):
        registry = MetricsRegistry()
        c = registry.counter("hammered_total")
        h = registry.histogram("hammered_seconds", buckets=(1.0,))

        def hammer():
            for _ in range(1000):
                c.inc()
                h.observe(0.5)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 8000
        assert h.count == 8000
        assert h.sum == pytest.approx(4000.0)


# ---------------------------------------------------------------------------
# registry: histograms


class TestHistogram:
    def test_bucket_edges_are_le_inclusive(self):
        h = MetricsRegistry().histogram("lat", buckets=(0.01, 0.1, 1.0))
        h.observe(0.01)   # exactly on a bound: lands in that bucket
        h.observe(0.05)
        h.observe(2.0)    # beyond the last bound: +Inf only
        sample = h._sample()
        assert sample["buckets"] == {"0.01": 1, "0.1": 2, "1": 2, "+Inf": 3}
        assert sample["count"] == 3
        assert sample["sum"] == pytest.approx(2.06)

    def test_buckets_must_increase(self):
        registry = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            registry.histogram("bad", buckets=(1.0, 1.0))
        with pytest.raises(ConfigurationError):
            registry.histogram("bad2", buckets=(2.0, 1.0))

    def test_timer_observes_wall_time(self):
        h = MetricsRegistry().histogram("timed", buckets=DEFAULT_BUCKETS)
        with h.time():
            pass
        assert h.count == 1
        assert h.sum >= 0.0


# ---------------------------------------------------------------------------
# registry: snapshot / render / reset / kill switch


class TestRegistryViews:
    def test_render_matches_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("a_total", help="things").inc(3)
        registry.gauge("b_depth").set(2)
        registry.histogram("c_seconds", buckets=(0.5, 1.0)).observe(0.7)
        snap = registry.snapshot()
        text = registry.render_prometheus()
        assert "# HELP a_total things" in text
        assert "# TYPE a_total counter" in text
        assert "a_total 3" in text.splitlines()
        assert "b_depth 2" in text.splitlines()
        assert 'c_seconds_bucket{le="1"} 1' in text.splitlines()
        assert snap["a_total"] == 3
        assert snap["c_seconds"]["buckets"]["1"] == 1
        assert snap["c_seconds"]["count"] == 1

    def test_labelled_samples_render_sorted(self):
        registry = MetricsRegistry()
        registry.counter("jobs_total", state="done").inc()
        registry.counter("jobs_total", state="failed").inc(2)
        snap = registry.snapshot()
        assert snap['jobs_total{state="done"}'] == 1
        assert snap['jobs_total{state="failed"}'] == 2
        text = registry.render_prometheus()
        assert text.count("# TYPE jobs_total counter") == 1

    def test_reset_zeroes_but_keeps_instruments(self):
        registry = MetricsRegistry()
        c = registry.counter("x_total")
        c.inc(9)
        registry.reset()
        assert c.value == 0
        assert registry.counter("x_total") is c

    def test_kill_switch_suppresses_updates(self):
        registry = MetricsRegistry()
        c = registry.counter("gated_total")
        h = registry.histogram("gated_seconds")
        assert obs_enabled()
        set_enabled(False)
        try:
            c.inc()
            h.observe(0.5)
            assert not obs_enabled()
        finally:
            set_enabled(True)
        assert c.value == 0
        assert h.count == 0

    def test_process_registry_is_singleton(self):
        assert get_registry() is REGISTRY


# ---------------------------------------------------------------------------
# tracing


class TestTracing:
    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer()
        with tracer.span("outer"):
            pass
        assert tracer.roots() == []

    def test_nesting_builds_a_tree(self):
        tracer = Tracer()
        tracer.enabled = True
        with tracer.span("outer", runs=2):
            with tracer.span("inner.a"):
                pass
            with tracer.span("inner.b"):
                pass
        roots = tracer.roots()
        assert [r.name for r in roots] == ["outer"]
        assert [c.name for c in roots[0].children] == ["inner.a", "inner.b"]
        assert roots[0].attrs == {"runs": 2}
        assert roots[0].duration_s >= sum(
            c.duration_s for c in roots[0].children
        )

    def test_jsonl_round_trip(self, tmp_path):
        tracer = Tracer()
        tracer.enabled = True
        with tracer.span("root", seeds=3):
            with tracer.span("child"):
                with tracer.span("grandchild"):
                    pass
        path = tmp_path / "trace.jsonl"
        written = tracer.write_jsonl(path)
        assert written == 3
        lines = path.read_text().splitlines()
        assert all(json.loads(line) for line in lines)
        roots = spans_from_jsonl(lines)
        assert len(roots) == 1
        names = [s.name for s, _ in roots[0].walk()]
        assert names == ["root", "child", "grandchild"]
        depths = [d for _, d in roots[0].walk()]
        assert depths == [0, 1, 2]
        assert roots[0].attrs == {"seeds": 3}

    def test_coverage_of_leaf_and_parent(self):
        roots = spans_from_jsonl(io.StringIO("\n".join([
            json.dumps({"id": 0, "parent": None, "depth": 0, "name": "r",
                        "start_ms": 0.0, "duration_ms": 10.0, "attrs": {}}),
            json.dumps({"id": 1, "parent": 0, "depth": 1, "name": "c",
                        "start_ms": 0.0, "duration_ms": 9.5, "attrs": {}}),
        ])))
        assert span_coverage(roots[0]) == pytest.approx(0.95)
        assert span_coverage(roots[0].children[0]) == 1.0

    def test_render_text_shows_shares(self):
        tracer = Tracer()
        tracer.enabled = True
        with tracer.span("root"):
            with tracer.span("child", n=1):
                pass
        text = render_text(tracer.roots())
        assert "root" in text and "  child" in text
        assert "[n=1]" in text and "%" in text

    def test_tracing_context_manager(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = get_tracer()
        assert not tracer.enabled
        with tracing(path):
            assert tracer.enabled
            with tracer.span("block"):
                pass
        assert not tracer.enabled
        roots = spans_from_jsonl(path.read_text().splitlines())
        assert [r.name for r in roots] == ["block"]


# ---------------------------------------------------------------------------
# end to end: instrumented experiment paths


class TestEndToEnd:
    def test_compare_updates_counters(self):
        REGISTRY.reset()
        compare_scenarios(
            megamart_timeline(), baseline_timeline(), seeds=range(2)
        )
        snap = REGISTRY.snapshot()
        # two scenarios x two seeds
        assert snap["experiment_runs_total"] == 4
        assert snap["sim_runs_total"] == 4
        assert snap["experiment_batch_seconds"]["count"] == 1
        # every run holds three plenaries in these timelines
        plenaries = sum(
            v for k, v in snap.items()
            if k.startswith("sim_plenaries_total")
        )
        assert plenaries == 12

    def test_rendered_metrics_match_snapshot_values(self):
        REGISTRY.reset()
        compare_scenarios(
            megamart_timeline(), baseline_timeline(), seeds=range(1)
        )
        snap = REGISTRY.snapshot()
        lines = REGISTRY.render_prometheus().splitlines()
        samples = {
            line.rsplit(" ", 1)[0]: float(line.rsplit(" ", 1)[1])
            for line in lines if not line.startswith("#")
        }
        assert samples["experiment_runs_total"] == snap[
            "experiment_runs_total"
        ]
        assert samples["sim_runs_total"] == snap["sim_runs_total"]

    def test_traced_compare_covers_most_wall_time(self, tmp_path):
        path = tmp_path / "compare.jsonl"
        with tracing(path):
            compare_scenarios(
                megamart_timeline(), baseline_timeline(), seeds=range(5)
            )
        roots = spans_from_jsonl(path.read_text().splitlines())
        assert [r.name for r in roots] == ["experiment.compare"]
        assert span_coverage(roots[0]) >= 0.9
        names = {s.name for s, _ in roots[0].walk()}
        assert "experiment.run_many" in names
        assert "sim.run" in names
        assert "sim.plenary" in names

    def test_traced_scalar_compare_keeps_per_run_spans(self, tmp_path):
        path = tmp_path / "compare-scalar.jsonl"
        with tracing(path):
            compare_scenarios(
                megamart_timeline(), baseline_timeline(), seeds=range(2)
            )
        roots = spans_from_jsonl(path.read_text().splitlines())
        runs = [s for s, _ in roots[0].walk() if s.name == "sim.run"]
        assert len(runs) == 4  # one per (arm, seed)
