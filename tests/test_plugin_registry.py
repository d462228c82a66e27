"""Tests for the scenario plugin registry (repro.registry)."""

import json

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.obs import REGISTRY
from repro.registry import (
    CATALOG,
    ScenarioCatalog,
    ScenarioEntry,
    load_spec_file,
    looks_like_spec_path,
    register_scenario,
    scenario_from_spec_mapping,
)
from repro.service.specs import resolve_scenario, sweep_plan
from repro.simulation.scenario import (
    PlenarySpec,
    Scenario,
    megamart_timeline,
)
from repro.store import RunCache
from repro.store.fingerprint import scenario_fingerprint, scenario_summary

try:
    import tomllib  # noqa: F401
    HAS_TOMLLIB = True
except ImportError:  # Python < 3.11
    HAS_TOMLLIB = False

needs_toml = pytest.mark.skipif(
    not HAS_TOMLLIB, reason="TOML specs need Python 3.11+ (tomllib)"
)


def _mini_scenario(seed: int = 0, **overrides) -> Scenario:
    return Scenario(
        name="mini",
        seed=seed,
        plenaries=(
            PlenarySpec("Rome", 0.0, "traditional"),
            PlenarySpec("Oslo", 5.0, "hackathon"),
        ),
        horizon_months=9.0,
        **overrides,
    )


SPEC_TOML = """\
kind = "scenario-spec/v1"
name = "toml-mini"

[scenario]
horizon_months = 9.0

[[plenaries]]
name = "Rome"
month = 0.0
kind = "traditional"

[[plenaries]]
name = "Oslo"
month = 5.0
kind = "hackathon"
"""


# ---------------------------------------------------------------------------
# catalog registration


class TestCatalog:
    def test_builtin_names_registered(self):
        names = CATALOG.scenario_names()
        for name in ("hackathon", "traditional", "interleaved", "virtual",
                     "hackathon-everywhere"):
            assert name in names

    def test_plugin_names_registered(self):
        names = CATALOG.scenario_names()
        for name in ("virtual-constrained", "hybrid-balanced",
                     "free-riders", "knowledge-withholding"):
            assert name in names
        sweeps = CATALOG.sweep_names()
        for name in ("cadence", "session-hours", "virtual-engagement",
                     "remote-share", "free-rider-share"):
            assert name in sweeps

    def test_builtin_resolution_matches_factories(self):
        assert CATALOG.resolve("hackathon", seed=3) == megamart_timeline(
            seed=3
        )

    def test_duplicate_name_raises(self):
        catalog = ScenarioCatalog()

        @register_scenario("dup", catalog=catalog)
        def first(seed=0):
            return _mini_scenario(seed)

        with pytest.raises(ConfigurationError, match="already registered"):
            @register_scenario("dup", catalog=catalog)
            def second(seed=0):
                return _mini_scenario(seed)

    def test_reregistering_same_factory_is_idempotent(self):
        catalog = ScenarioCatalog()

        def factory(seed=0):
            return _mini_scenario(seed)

        entry = ScenarioEntry(name="idem", factory=factory)
        assert catalog.add_scenario(entry) is entry
        # a re-import registering the same function object is a no-op
        catalog.add_scenario(ScenarioEntry(name="idem", factory=factory))

    def test_unknown_name_suggests_close_matches(self):
        with pytest.raises(ConfigurationError) as excinfo:
            CATALOG.scenario("hackathn")
        message = str(excinfo.value)
        assert "did you mean" in message
        assert "hackathon" in message

    def test_unknown_sweep_parameter_lists_known(self):
        with pytest.raises(ConfigurationError, match="cadence"):
            CATALOG.sweep_parameter("bogus-parameter")

    def test_provenance_stamped_on_build(self):
        catalog = ScenarioCatalog()

        @register_scenario("stamped", plugin="my-plugin",
                           spec_version="2", catalog=catalog)
        def stamped(seed=0):
            return _mini_scenario(seed)

        scenario = catalog._scenarios["stamped"].build(seed=7)
        assert scenario.plugin == "my-plugin"
        assert scenario.spec_version == "2"
        assert scenario.seed == 7

    def test_describe_is_json_ready(self):
        listing = CATALOG.describe()
        json.dumps(listing)  # must not raise
        by_name = {s["name"]: s for s in listing["scenarios"]}
        assert by_name["hackathon"]["source"] == "builtin"
        assert by_name["free-riders"]["plugin"] == (
            "adversarial-participants"
        )
        sweep_names = {p["name"] for p in listing["sweep_parameters"]}
        assert "remote-share" in sweep_names


# ---------------------------------------------------------------------------
# spec files


class TestSpecFiles:
    def test_looks_like_spec_path(self):
        assert looks_like_spec_path("specs/mini.toml")
        assert looks_like_spec_path("mini.json")
        assert not looks_like_spec_path("hackathon")

    @needs_toml
    def test_toml_round_trip(self, tmp_path):
        path = tmp_path / "mini.toml"
        path.write_text(SPEC_TOML)
        entry = load_spec_file(str(path))
        scenario = entry.build(seed=3)
        assert scenario.name == "toml-mini"
        assert scenario.seed == 3
        assert scenario.plugin == "file:mini"
        assert entry.source == "file"

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "mini.json"
        path.write_text(json.dumps({
            "kind": "scenario-spec/v1",
            "name": "json-mini",
            "scenario": {"horizon_months": 9.0},
            "plenaries": [
                {"name": "Rome", "month": 0.0, "kind": "traditional"},
                {"name": "Oslo", "month": 5.0, "kind": "hackathon"},
            ],
        }))
        scenario = resolve_scenario(str(path))
        assert scenario.name == "json-mini"
        assert scenario.horizon_months == 9.0

    def test_inline_spec_mapping(self):
        scenario = resolve_scenario({
            "kind": "scenario-spec/v1",
            "name": "inline-mini",
            "plenaries": [
                {"name": "Rome", "month": 0.0, "kind": "traditional"},
            ],
        })
        assert scenario.name == "inline-mini"
        assert scenario.plugin.startswith("file") or scenario.plugin

    @pytest.mark.parametrize("mapping, fragment", [
        ({"name": "x", "plenaries": [{"name": "R", "month": 0.0,
                                      "kind": "traditional"}]},
         "kind"),
        ({"kind": "scenario-spec/v1",
          "plenaries": [{"name": "R", "month": 0.0,
                         "kind": "traditional"}]},
         "name"),
        ({"kind": "scenario-spec/v1", "name": "x", "plenaries": []},
         "plenaries"),
        ({"kind": "scenario-spec/v1", "name": "x", "surprise": 1,
          "plenaries": [{"name": "R", "month": 0.0,
                         "kind": "traditional"}]},
         "surprise"),
        ({"kind": "scenario-spec/v1", "name": "x",
          "scenario": {"plugin": "spoofed"},
          "plenaries": [{"name": "R", "month": 0.0,
                         "kind": "traditional"}]},
         "plugin"),
        ({"kind": "scenario-spec/v1", "name": "x",
          "plenaries": [{"name": "R", "month": 0.0, "kind": "party"}]},
         "party"),
    ])
    def test_malformed_specs_rejected(self, mapping, fragment):
        with pytest.raises(ConfigurationError) as excinfo:
            scenario_from_spec_mapping(mapping, source="test spec")
        assert fragment in str(excinfo.value)
        assert "\n" not in str(excinfo.value)

    def test_missing_file_is_actionable(self, tmp_path):
        missing = str(tmp_path / "absent.toml")
        with pytest.raises(ConfigurationError, match="no such"):
            resolve_scenario(missing)

    def test_bundled_example_specs_validate(self):
        import glob

        paths = sorted(glob.glob("examples/scenario_specs/*"))
        assert len(paths) >= 3
        for path in paths:
            if path.endswith(".toml") and not HAS_TOMLLIB:
                continue
            scenario = load_spec_file(path).build(seed=0)
            assert scenario.plenaries


# ---------------------------------------------------------------------------
# CLI: scenarios subcommand and spec-file errors


class TestScenariosCommand:
    def test_list(self, capsys):
        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        assert "hackathon" in out
        assert "hybrid-hackathons" in out
        assert "remote-share" in out

    def test_show_name(self, capsys):
        assert main(["scenarios", "show", "free-riders"]) == 0
        out = capsys.readouterr().out
        assert "adversarial-participants" in out
        assert "plenaries (" in out

    def test_show_unknown_is_exit_2(self, capsys):
        assert main(["scenarios", "show", "nope"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @needs_toml
    def test_validate_ok(self, tmp_path, capsys):
        path = tmp_path / "good.toml"
        path.write_text(SPEC_TOML)
        assert main(["scenarios", "validate", str(path)]) == 0
        assert "ok:" in capsys.readouterr().out

    def test_validate_malformed_toml_one_line_exit_2(self, tmp_path,
                                                     capsys):
        path = tmp_path / "broken.toml"
        path.write_text("kind = [unclosed")
        assert main(["scenarios", "validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert str(path) in err
        assert err.count("\n") == 1  # exactly one line
        assert "Traceback" not in err

    def test_validate_malformed_json_one_line_exit_2(self, tmp_path,
                                                     capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"kind": "scenario-spec/v1",')
        assert main(["scenarios", "validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert str(path) in err
        assert err.count("\n") == 1

    @needs_toml
    def test_compare_accepts_spec_file(self, tmp_path, capsys):
        path = tmp_path / "mini.toml"
        path.write_text(SPEC_TOML)
        assert main(["compare", "--scenario", str(path),
                     "--baseline", "traditional", "--seeds", "1"]) == 0
        out = capsys.readouterr().out
        assert "toml-mini" in out
        assert "traditional" in out


# ---------------------------------------------------------------------------
# REPRO_PLUGINS hook


class TestEnvHook:
    @needs_toml
    def test_spec_file_via_env(self, tmp_path, monkeypatch):
        from repro.registry import discovery

        path = tmp_path / "envspec.toml"
        path.write_text(SPEC_TOML.replace("toml-mini", "env-mini"))
        monkeypatch.setenv("REPRO_PLUGINS", str(path))
        discovery.reset_for_tests()
        try:
            scenario = CATALOG.resolve("env-mini", seed=1)
            assert scenario.name == "env-mini"
            assert scenario.plugin == "file:envspec"
        finally:
            CATALOG.remove("env-mini")
            monkeypatch.delenv("REPRO_PLUGINS")
            discovery.reset_for_tests()

    def test_bad_module_via_env_is_actionable(self, monkeypatch):
        from repro.registry import discovery

        monkeypatch.setenv("REPRO_PLUGINS", "no.such.plugin_module")
        discovery.reset_for_tests()
        try:
            with pytest.raises(ConfigurationError,
                               match="no.such.plugin_module"):
                CATALOG.scenario_names()
        finally:
            monkeypatch.delenv("REPRO_PLUGINS")
            discovery.reset_for_tests()
            CATALOG.scenario_names()  # discovery recovers

    def test_concurrent_first_query_never_sees_empty_catalog(self):
        """Many threads racing the first catalog query must all block
        until discovery finishes — none may resolve against a
        half-loaded catalog (the async server's dispatcher pool hits
        exactly this on its first burst of requests)."""
        import threading

        from repro.registry import discovery

        discovery.reset_for_tests()
        barrier = threading.Barrier(8)
        failures = []

        def query():
            barrier.wait()
            try:
                CATALOG.resolve("hackathon", seed=0)
            except Exception as exc:  # noqa: BLE001 - recorded below
                failures.append(exc)

        threads = [threading.Thread(target=query) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not failures, failures


# ---------------------------------------------------------------------------
# provenance in fingerprints and the run store


class TestProvenance:
    def test_plugin_field_changes_fingerprint(self):
        ours = _mini_scenario(plugin="plugin-a")
        theirs = _mini_scenario(plugin="plugin-b")
        assert scenario_fingerprint(ours) != scenario_fingerprint(theirs)

    def test_spec_version_changes_fingerprint(self):
        v1 = _mini_scenario(spec_version="1")
        v2 = _mini_scenario(spec_version="2")
        assert scenario_fingerprint(v1) != scenario_fingerprint(v2)

    def test_summary_carries_provenance(self):
        summary = scenario_summary(_mini_scenario(plugin="my-plugin"))
        assert summary["plugin"] == "my-plugin"
        assert summary["spec_version"] == "1"

    def test_same_name_different_plugins_never_share_cache(self, tmp_path):
        cache = RunCache(str(tmp_path / "store"))
        ours = _mini_scenario(plugin="plugin-a")
        theirs = _mini_scenario(plugin="plugin-b")
        [first] = cache.fetch_metrics([ours])
        assert cache.session_misses == 1
        cache.fetch_metrics([ours])
        assert cache.session_hits == 1  # identical scenario: cache hit
        [second] = cache.fetch_metrics([theirs])
        # same name, same body, different plugin -> recomputed, never
        # served from plugin-a's cache entry
        assert cache.session_misses == 2
        assert first == second  # provenance alone never alters KPIs


# ---------------------------------------------------------------------------
# observability


class TestRegistryMetrics:
    def test_catalog_size_gauge(self):
        CATALOG.scenario_names()  # force discovery
        snapshot = REGISTRY.snapshot()
        assert snapshot["scenario_catalog_size"] >= 11

    def test_resolution_counter_by_source(self, tmp_path):
        resolve_scenario("hackathon")
        resolve_scenario("free-riders")
        path = tmp_path / "counted.json"
        path.write_text(json.dumps({
            "kind": "scenario-spec/v1",
            "name": "counted",
            "plenaries": [
                {"name": "Rome", "month": 0.0, "kind": "traditional"},
            ],
        }))
        resolve_scenario(str(path))
        snapshot = REGISTRY.snapshot()
        assert snapshot['scenario_resolved_total{source="builtin"}'] >= 1
        assert snapshot['scenario_resolved_total{source="plugin"}'] >= 1
        assert snapshot['scenario_resolved_total{source="file"}'] >= 1

    def test_metrics_surface_in_prometheus_text(self):
        CATALOG.resolve("hackathon")
        text = REGISTRY.render_prometheus()
        assert "scenario_catalog_size" in text
        assert 'scenario_resolved_total{source="builtin"}' in text


# ---------------------------------------------------------------------------
# base-scenario sweeps


class TestSweepBase:
    def test_supports_base(self):
        values, factory, _ = sweep_plan(
            "free-rider-share", values=[0.25], base="interleaved"
        )
        scenario = factory(0.25, 4)
        assert scenario.free_rider_share == 0.25
        assert scenario.seed == 4
        assert "interleaved" in scenario.name

    def test_base_rejected_when_unsupported(self):
        with pytest.raises(ConfigurationError, match="base"):
            sweep_plan("cadence", base="hackathon")
