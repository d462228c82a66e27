"""Tests for the unified public facade (repro.api)."""

import json
import warnings

import pytest

import repro
from repro import api
from repro.errors import ConfigurationError, ServiceError
from repro.obs import spans_from_jsonl
from repro.service.specs import sweep_plan
from repro.simulation import (
    baseline_timeline,
    compare_scenarios,
    megamart_timeline,
    run_sweep,
)
from repro.simulation.experiment import extract_metrics, replicate
from repro.store import RunCache

SEEDS = [0, 1]


# ---------------------------------------------------------------------------
# exposure


class TestExposure:
    def test_facade_is_importable_off_the_package_root(self):
        assert repro.api is api
        assert "api" in repro.__all__

    def test_public_names(self):
        assert set(api.__all__) == {
            "CATALOG", "replicate", "compare", "sweep", "scenarios",
            "submit_job",
        }
        # repro.service serves over one transport, the asyncio one.
        import repro.service

        # Only names imported from outside the package are exported;
        # the rest are imported from their submodules.
        assert set(repro.service.__all__) == {
            "ServiceClient", "build_async_server", "resolve_scenario",
            "serve_async",
        }
        with pytest.raises(ModuleNotFoundError):
            import repro.service.server  # noqa: F401
        # The package root re-exports a deliberate handful of names.
        assert set(repro.__all__) == {
            "BlobStore", "Consortium", "HackathonConfig", "HackathonEvent",
            "LongitudinalRunner", "ReproError", "RngHub", "RunCache",
            "Scenario", "__version__", "api", "baseline_timeline",
            "build_framework", "compare_scenarios", "megamart2",
            "megamart_timeline", "scenario_fingerprint", "small_consortium",
        }
        import repro.simulation

        assert set(repro.simulation.__all__) == {
            "ComparisonResult", "Engine", "Event", "LongitudinalRunner",
            "MetricComparison", "PlenaryRecord", "PlenarySpec",
            "ProjectHistory", "Scenario", "SweepPoint", "SweepResult",
            "baseline_timeline", "compare_scenarios",
            "comparison_from_metrics", "extract_metrics",
            "hackathon_everywhere_timeline", "interleaved_timeline",
            "megamart_timeline", "replicate", "run_sweep",
            "sweep_from_metrics", "virtual_timeline",
        }


# ---------------------------------------------------------------------------
# equivalence: the facade returns bit-identical results


class TestEquivalence:
    def test_compare_matches_low_level(self):
        via_api = api.compare("hackathon", "traditional", seeds=SEEDS)
        direct = compare_scenarios(
            megamart_timeline(), baseline_timeline(), seeds=SEEDS
        )
        assert via_api.metrics_a == direct.metrics_a
        assert via_api.metrics_b == direct.metrics_b
        assert via_api.name_a == direct.name_a
        assert via_api.seeds == direct.seeds

    def test_compare_cached_matches_live(self, tmp_path):
        live = api.compare("hackathon", "traditional", seeds=SEEDS)
        cold = api.compare("hackathon", "traditional", seeds=SEEDS,
                           cache=True, cache_dir=tmp_path / "store")
        warm = api.compare("hackathon", "traditional", seeds=SEEDS,
                           cache=True, cache_dir=tmp_path / "store")
        assert cold.metrics_a == live.metrics_a
        assert warm.metrics_a == live.metrics_a
        stats = RunCache(tmp_path / "store").stats()
        assert stats.misses_recorded == 4   # 2 scenarios x 2 seeds, once
        assert stats.hits_recorded == 4     # the warm pass
        assert stats.hit_ratio == pytest.approx(0.5)

    def test_replicate_matches_low_level(self):
        via_api = api.replicate("hackathon", seeds=SEEDS)
        histories = replicate(megamart_timeline(), SEEDS)
        assert via_api == [extract_metrics(h) for h in histories]

    def test_replicate_seed_count_expands_to_range(self):
        assert api.replicate("hackathon", seeds=2) == api.replicate(
            "hackathon", seeds=[0, 1]
        )

    def test_sweep_matches_low_level(self):
        values, factory, label_fn = sweep_plan("cadence", [2.0, 6.0])
        via_api = api.sweep("cadence", values=[2.0, 6.0], seeds=[0])
        direct = run_sweep("cadence", values, factory, seeds=[0],
                           label_fn=label_fn)
        assert via_api.parameter_name == direct.parameter_name
        assert via_api.labels() == direct.labels()
        assert [p.metrics for p in via_api.points] == [
            p.metrics for p in direct.points
        ]

    def test_inline_scenario_spec(self):
        spec = {
            "name": "mini",
            "horizon_months": 4.0,
            "plenaries": [
                {"name": "Rome", "month": 0.0, "kind": "traditional"},
            ],
        }
        metrics = api.replicate(spec, seeds=[0])
        assert len(metrics) == 1 and metrics[0]

    def test_bad_specs_raise(self):
        with pytest.raises(ConfigurationError):
            api.compare("no-such-timeline", "traditional", seeds=1)
        with pytest.raises(ConfigurationError):
            api.replicate("hackathon", seeds=0)
        with pytest.raises(ConfigurationError):
            api.sweep("no-such-parameter", seeds=1)


# ---------------------------------------------------------------------------
# tracing through the facade


class TestFacadeTracing:
    def test_trace_writes_wellformed_jsonl(self, tmp_path):
        path = tmp_path / "compare.jsonl"
        api.compare("hackathon", "traditional", seeds=SEEDS, trace=path)
        lines = path.read_text().splitlines()
        assert lines
        records = [json.loads(line) for line in lines]
        assert {"id", "parent", "depth", "name", "start_ms",
                "duration_ms", "attrs"} <= set(records[0])
        roots = spans_from_jsonl(lines)
        assert [r.name for r in roots] == ["api.compare"]
        assert roots[0].attrs["seeds"] == len(SEEDS)

    def test_trace_off_leaves_tracer_disabled(self, tmp_path):
        from repro.obs import get_tracer

        api.replicate("hackathon", seeds=[0],
                      trace=tmp_path / "r.jsonl")
        assert not get_tracer().enabled
        api.replicate("hackathon", seeds=[0])
        assert not get_tracer().enabled

    def test_cached_sweep_trace_nests_store_fetch(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        api.sweep("cadence", values=[2.0], seeds=[0], cache=True,
                  cache_dir=tmp_path / "store", trace=path)
        roots = spans_from_jsonl(path.read_text().splitlines())
        assert [r.name for r in roots] == ["api.sweep"]
        names = [s.name for s, _ in roots[0].walk()]
        assert "store.fetch" in names


# ---------------------------------------------------------------------------
# deprecated keyword spellings


class TestDeprecatedKwargs:
    """The pre-1.x spellings (``scenario_a``/``scenario_b``,
    ``parameter_name``/``parameter_values``/``scenario_factory``) and
    ``backend=`` are removed: each is an unknown keyword now."""

    def test_both_spellings_is_an_error(self):
        with pytest.raises(TypeError, match="scenario_a"):
            compare_scenarios(
                megamart_timeline(),
                scenario_a=megamart_timeline(),
                seeds=[0],
            )

    def test_unknown_kwarg_is_a_type_error(self):
        with pytest.raises(TypeError, match="scenario_c"):
            compare_scenarios(
                megamart_timeline(), baseline_timeline(), seeds=[0],
                scenario_c=baseline_timeline(),
            )
        with pytest.raises(TypeError, match="scenario_b"):
            compare_scenarios(megamart_timeline(),
                              scenario_b=baseline_timeline(), seeds=[0])
        with pytest.raises(TypeError, match="backend"):
            compare_scenarios(megamart_timeline(), baseline_timeline(),
                              seeds=[0], backend="scalar")
        values, factory, _ = sweep_plan("cadence", [2.0])
        with pytest.raises(TypeError, match="parameter_name"):
            run_sweep(parameter_name="cadence", values=values,
                      factory=factory, seeds=[0])
        with pytest.raises(TypeError, match="scenario_factory"):
            run_sweep("cadence", values, scenario_factory=factory,
                      seeds=[0])
        for call in (api.replicate, api.compare, api.sweep):
            with pytest.raises(TypeError, match="backend"):
                call(seeds=1, backend="batch")

    def test_new_spellings_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            compare_scenarios(
                a=megamart_timeline(), b=baseline_timeline(), seeds=[0]
            )


# ---------------------------------------------------------------------------
# submit_job against a live service


class TestSubmitJob:
    def test_submit_and_wait_returns_result_payload(self, service):
        payload = api.submit_job(
            "replicate", {"seeds": [3, 4]}, url=service.base_url
        )
        assert payload["kind"] == "replicate"
        assert payload["seeds"] == [3, 4]
        assert [m["kpi"] for m in payload["metrics"]] == [3.0, 4.0]

    def test_submit_without_wait_returns_job_snapshot(self, service):
        job = api.submit_job(
            "replicate", {"seeds": [7]}, url=service.base_url, wait=False
        )
        assert job["state"] in ("queued", "running", "done")
        service._await(job["id"], timeout=15)
        assert service.result(job["id"])["metrics"] == [{"kpi": 7.0}]

    def test_bad_kind_raises(self, service):
        with pytest.raises(ConfigurationError):
            api.submit_job("", url=service.base_url)
        with pytest.raises(ServiceError):
            api.submit_job("explode", url=service.base_url)
