"""One front door: ``repro.api``, the CLI and the service run one plan.

Every front end turns its arguments into a
:class:`~repro.service.specs.JobPlan` and resolves it with
:func:`~repro.service.workers.execute_plan`, with or without a run
store.  These tests hold the front ends to the library functions on
the resolved scenarios, hold the executor's payload bytes to one value
with and without a store, and pin the plan keys and the error messages
callers see.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import api
from repro.errors import ConfigurationError
from repro.registry import CATALOG
from repro.service.specs import build_plan, resolve_scenario
from repro.service.workers import execute_plan
from repro.simulation import compare_scenarios, run_sweep
from repro.simulation.experiment import replicate_metrics
from repro.store import RunCache

ROOT = Path(__file__).resolve().parent.parent
SRC = str(Path(repro.__file__).resolve().parents[1])
SPEC = "examples/scenario_specs/constrained-virtual.json"
SEEDS = [1]
SWEEP_VALUES = [0.0, 0.5]


@pytest.fixture
def in_root(monkeypatch):
    """Run from the repository root, where ``SPEC`` resolves."""
    monkeypatch.chdir(ROOT)


def _via_api(kind, spec, **kwargs):
    if kind == "replicate":
        return api.replicate(spec, seeds=SEEDS, **kwargs)
    if kind == "compare":
        return api.compare(spec, "traditional", seeds=SEEDS, **kwargs)
    return api.sweep("remote-share", values=SWEEP_VALUES, seeds=SEEDS,
                     base=spec, **kwargs)


def _via_library(kind, spec):
    scenario = resolve_scenario(spec)
    if kind == "replicate":
        return replicate_metrics(scenario, SEEDS)
    if kind == "compare":
        return compare_scenarios(scenario, resolve_scenario("traditional"),
                                 SEEDS)
    entry = CATALOG.sweep_parameter("remote-share")
    return run_sweep(
        "remote-share", SWEEP_VALUES,
        lambda value, seed: entry.factory(value, seed, base=scenario),
        seeds=SEEDS, label_fn=entry.label,
    )


@pytest.mark.parametrize("spec", ["hackathon", "hybrid-balanced", SPEC],
                         ids=["builtin", "plugin", "spec-file"])
@pytest.mark.parametrize("kind", ["replicate", "compare", "sweep"])
def test_every_path_returns_the_library_result(kind, spec, tmp_path,
                                               in_root):
    store = tmp_path / "store"
    live = _via_api(kind, spec)
    cold = _via_api(kind, spec, cache=True, cache_dir=store)
    warm = _via_api(kind, spec, cache=True, cache_dir=store)
    assert RunCache(store).stats().hits_recorded > 0  # warm was served
    assert live == cold == warm == _via_library(kind, spec)


@pytest.mark.parametrize("kind, params", [
    ("replicate", {"scenario": "hybrid-balanced", "seeds": [2, 0]}),
    ("compare", {"seeds": 1}),
    ("sweep", {"parameter": "session-hours", "values": [4.0], "seeds": 1}),
])
def test_payload_bytes_equal_with_and_without_a_store(kind, params,
                                                      tmp_path):
    plan = build_plan(kind, params)
    live = json.dumps(execute_plan(plan, None)).encode()
    cache = RunCache(tmp_path / "store")
    cold = json.dumps(execute_plan(plan, cache)).encode()
    warm = json.dumps(execute_plan(plan, cache)).encode()
    assert cache.session_hits == len(plan.scenarios)
    assert live == cold == warm


def test_run_cache_keeps_only_the_cell_interface():
    for gone in ("replicate", "compare_scenarios", "run_sweep"):
        assert not hasattr(RunCache, gone), gone
    for kept in ("fetch_metrics", "stats", "gc", "clear"):
        assert callable(getattr(RunCache, kept)), kept


# -- seeds are validated like the HTTP API validates them ----------------

SEEDS_MESSAGE = "seeds must be a positive int or a non-empty list of ints"


@pytest.mark.parametrize("seeds", [[0.7, 1.9], "12", [True], 2.5, [],
                                   {"0": 1}, [1, "2"]])
def test_bad_seeds_fail_as_over_http(seeds):
    with pytest.raises(ConfigurationError) as via_api:
        api.replicate("hackathon", seeds=seeds)
    with pytest.raises(ConfigurationError) as via_http:
        build_plan("replicate", {"seeds": seeds})
    assert str(via_api.value) == str(via_http.value) == SEEDS_MESSAGE


@pytest.mark.parametrize("seeds", [np.array([1]), [np.int64(1)], range(1, 2),
                                   (1,)])
def test_integer_like_seeds_still_work(seeds):
    assert api.replicate("hackathon", seeds=seeds) == \
        api.replicate("hackathon", seeds=[1])


# -- pinned: plan keys and every caller-visible error message -------------

PROBE = r"""
import contextlib, io, json, sys
from repro import api
from repro.cli import main
from repro.errors import ConfigurationError
from repro.service.specs import build_plan

SPEC = "examples/scenario_specs/constrained-virtual.json"
store = sys.argv[1]
plans = {
    "replicate-default": ("replicate", {}),
    "replicate-3": ("replicate", {"scenario": "hackathon", "seeds": 3}),
    "replicate-seeds-list": ("replicate", {"scenario": "virtual",
                                           "seeds": [7, 3, 7]}),
    "compare-2": ("compare", {"seeds": 2}),
    "compare-plugin-spec": ("compare", {"a": "hybrid-balanced", "b": SPEC,
                                        "seeds": [4, 1]}),
    "sweep-default": ("sweep", {}),
    "sweep-remote": ("sweep", {"parameter": "remote-share",
                               "values": [0.25, 0.5], "seeds": 1,
                               "scenario": "virtual"}),
}
calls = {
    "replicate-unknown": lambda: api.replicate("no-such", seeds=1),
    "replicate-seeds0": lambda: api.replicate("hackathon", seeds=0),
    "replicate-seeds-neg": lambda: api.replicate("hackathon", seeds=-2),
    "replicate-seeds-empty": lambda: api.replicate("hackathon", seeds=[]),
    "replicate-seeds-bool": lambda: api.replicate("hackathon", seeds=True),
    "replicate-workers0": lambda: api.replicate("hackathon", seeds=1,
                                                workers=0),
    "replicate-workers0-cache": lambda: api.replicate(
        "hackathon", seeds=1, workers=0, cache=True, cache_dir=store),
    "replicate-inline-bad": lambda: api.replicate({"bogus": 1}, seeds=1),
    "replicate-missing-spec": lambda: api.replicate("missing/spec.toml",
                                                    seeds=1),
    "replicate-bad-and-seeds0": lambda: api.replicate("no-such", seeds=0),
    "compare-unknown-a": lambda: api.compare("no-such", "traditional",
                                             seeds=1),
    "compare-unknown-b": lambda: api.compare("hackathon", "nope", seeds=1),
    "compare-seeds0": lambda: api.compare(seeds=0),
    "compare-workers0-cache": lambda: api.compare(
        seeds=1, workers=0, cache=True, cache_dir=store),
    "sweep-unknown": lambda: api.sweep("no-such-parameter", seeds=1),
    "sweep-empty": lambda: api.sweep("cadence", values=[], seeds=1),
    "sweep-str-value": lambda: api.sweep("cadence", values=["a"], seeds=1),
    "sweep-bool-value": lambda: api.sweep("cadence", values=[True], seeds=1),
    "sweep-seeds0": lambda: api.sweep("cadence", seeds=0),
    "sweep-base-unsupported": lambda: api.sweep("cadence", seeds=1,
                                                base="hackathon"),
    "sweep-base-unknown": lambda: api.sweep("remote-share", seeds=1,
                                            base="no-such"),
    "sweep-workers0": lambda: api.sweep("cadence", values=[2.0], seeds=1,
                                        workers=0),
}
argvs = {
    "compare-seeds0": ["compare", "--seeds", "0"],
    "compare-workers0": ["compare", "--seeds", "1", "--workers", "0"],
    "compare-unknown-a": ["compare", "--seeds", "1", "--scenario", "nope"],
    "compare-unknown-b": ["compare", "--seeds", "1", "--baseline", "nope"],
    "compare-missing-spec": ["compare", "--scenario", "missing/spec.toml"],
    "sweep-base-unsupported": ["sweep", "--parameter", "cadence",
                               "--scenario", "hackathon"],
    "sweep-base-unknown": ["sweep", "--parameter", "remote-share",
                           "--scenario", "nope"],
    "sweep-seeds0": ["sweep", "--seeds", "0"],
    "sweep-workers0": ["sweep", "--workers", "0"],
}
out = {"keys": {n: build_plan(*p).key for n, p in plans.items()},
       "api": {}, "cli": {}}
for name, call in calls.items():
    try:
        call()
    except ConfigurationError as exc:
        out["api"][name] = str(exc)
for name, argv in argvs.items():
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        out["cli"][name] = [main(argv), err.getvalue()]
print(json.dumps(out))
"""

KNOWN = ("(known: free-riders, hackathon, hackathon-everywhere, "
         "hybrid-balanced, hybrid-remote-heavy, interleaved, "
         "knowledge-withholding, traditional, virtual, virtual-constrained, "
         "virtual-facilitated)")
REPLICATE_KEY = \
    "f780a565a57f94e7db597c3000949b10179e6c05e5febbf77494e99722566ce8"
PLAN_KEYS = {
    "replicate-default": REPLICATE_KEY,
    "replicate-3": REPLICATE_KEY,
    "replicate-seeds-list":
        "47fd547b1e03b447d9a63b9e57cb58b53a6267b07b59f8d5e4d716cba7c9faa2",
    "compare-2":
        "5821de08227bb5c2b64982e3493e07ed2f9dc531deff7d7371b11cc7c29e948d",
    "compare-plugin-spec":
        "38d7992edd87b6917986a9e81e6466dada0f8d3694e22d616dcce9262352e0c1",
    "sweep-default":
        "9b15d2413947438f272fd39e9c50f2999c60e69975c7f3c94f502e76a09fd50d",
    "sweep-remote":
        "ec3400cefcbc2b5232022b52508f5b43c4cd430a56c5718fa7d2d9e03a96549b",
}
API_ERRORS = {
    "replicate-unknown": f"unknown scenario 'no-such' {KNOWN}",
    "replicate-seeds0": "seeds must be >= 1, got 0",
    "replicate-seeds-neg": "seeds must be >= 1, got -2",
    "replicate-seeds-empty": SEEDS_MESSAGE,
    "replicate-seeds-bool": "seeds must be an int or a list of ints",
    "replicate-workers0": "workers must be >= 1, got 0",
    "replicate-workers0-cache": "workers must be >= 1, got 0",
    "replicate-inline-bad":
        "inline scenario needs a non-empty 'plenaries' list",
    "replicate-missing-spec":
        "missing/spec.toml: no such scenario spec file",
    "replicate-bad-and-seeds0": f"unknown scenario 'no-such' {KNOWN}",
    "compare-unknown-a": f"unknown scenario 'no-such' {KNOWN}",
    "compare-unknown-b": f"unknown scenario 'nope' {KNOWN}",
    "compare-seeds0": "seeds must be >= 1, got 0",
    "compare-workers0-cache": "workers must be >= 1, got 0",
    "sweep-unknown": "unknown sweep parameter 'no-such-parameter' (known: "
                     "cadence, free-rider-share, remote-share, "
                     "session-hours, virtual-engagement)",
    "sweep-empty": "sweep needs at least one parameter value",
    "sweep-str-value": "sweep values must be numbers, got 'a'",
    "sweep-bool-value": "sweep values must be numbers, got True",
    "sweep-seeds0": "seeds must be >= 1, got 0",
    "sweep-base-unsupported":
        "sweep parameter 'cadence' does not accept a base scenario",
    "sweep-base-unknown": f"unknown scenario 'no-such' {KNOWN}",
    "sweep-workers0": "workers must be >= 1, got 0",
}
CLI_ERRORS = {
    "compare-seeds0": "--seeds must be >= 1, got 0",
    "compare-workers0": "--workers must be >= 1, got 0",
    "compare-unknown-a": f"unknown scenario 'nope' {KNOWN}",
    "compare-unknown-b": f"unknown scenario 'nope' {KNOWN}",
    "compare-missing-spec": "missing/spec.toml: no such scenario spec file",
    "sweep-base-unsupported":
        "sweep parameter 'cadence' does not accept a base scenario",
    "sweep-base-unknown": f"unknown scenario 'nope' {KNOWN}",
    "sweep-seeds0": "--seeds must be >= 1, got 0",
    "sweep-workers0": "--workers must be >= 1, got 0",
}


def test_plan_keys_and_error_messages_are_pinned(tmp_path):
    """In a fresh interpreter, so no earlier registration widens the
    catalog listed in the unknown-name messages."""
    env = {k: v for k, v in os.environ.items() if k != "REPRO_PLUGINS"}
    env["PYTHONPATH"] = SRC
    done = subprocess.run(
        [sys.executable, "-c", PROBE, str(tmp_path / "store")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout)
    assert seen["keys"] == PLAN_KEYS
    assert seen["api"] == API_ERRORS
    assert seen["cli"] == {name: [2, f"error: {message}\n"]
                           for name, message in CLI_ERRORS.items()}
