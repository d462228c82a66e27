"""One front door for the whole toolkit.

The package grew four ways to run an experiment — the in-process
functions (:mod:`repro.simulation`), the memoized store
(:class:`repro.store.RunCache`), the HTTP client
(:class:`repro.service.client.ServiceClient`) and the CLI — each with
its own spelling of the same knobs.  This module is the uniform facade
over all of them: every entry point takes scenario *specs* (timeline
names or inline mappings, exactly as the HTTP API does), a ``seeds``
count or list, and the same keyword set::

    workers=N          fan cells out over N processes
    cache=True         memoize through the run store
    cache_dir=PATH     where that store lives
    trace=PATH         record a span tree and write it as JSONL

Results are the same objects the lower layers return —
:class:`~repro.simulation.experiment.ComparisonResult`,
:class:`~repro.simulation.sweep.SweepResult`, plain KPI dictionaries —
and are **bit-identical** whichever path (live, cached, remote)
produced them.

>>> import repro.api as api
>>> result = api.compare("hackathon", "traditional", seeds=5)
... # doctest: +SKIP
>>> points = api.sweep("cadence", seeds=2, cache=True)  # doctest: +SKIP
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence, Union

from repro.errors import ConfigurationError
from repro.obs import span, tracing
from repro.registry import CATALOG
from repro.service.client import ServiceClient
from repro.service.specs import (
    resolve_scenario,
    resolve_seeds,
    sweep_plan,
)
from repro.simulation.experiment import (
    ComparisonResult,
    compare_scenarios,
    extract_metrics,
)
from repro.simulation.experiment import replicate as _replicate_histories
from repro.simulation.sweep import SweepResult, run_sweep
from repro.store.runcache import DEFAULT_CACHE_DIR, RunCache

__all__ = ["CATALOG", "replicate", "compare", "sweep", "scenarios",
           "submit_job"]

#: A scenario spec: a catalog name (builtin timeline, plugin scenario),
#: a ``scenario-spec/v1`` file path, or an inline mapping.
ScenarioSpec = Union[str, Dict[str, Any]]
#: A seeds spec: a count N (meaning ``range(N)``) or explicit seeds.
SeedsSpec = Union[int, Sequence[int]]


def _seeds(raw: SeedsSpec) -> List[int]:
    if not isinstance(raw, int):
        raw = [int(s) for s in raw]
    return resolve_seeds(raw)


@contextmanager
def _traced(trace: Optional[str], name: str, **attrs: Any) -> Iterator[None]:
    """Span ``name``; when ``trace`` is a path, record and export JSONL.

    With ``trace=None`` this is just a regular (usually no-op) span.
    Otherwise tracing is switched on for the duration of the call and
    the resulting span forest is written to ``trace`` — starting from
    a clean slate unless the caller had already enabled the tracer
    themselves, in which case their spans are preserved.
    """
    if trace is None:
        with span(name, **attrs):
            yield
        return
    with tracing(trace) as tracer:
        with tracer.span(name, **attrs):
            yield


def replicate(
    scenario: ScenarioSpec = "hackathon",
    seeds: SeedsSpec = 5,
    *,
    workers: int = 1,
    cache: bool = False,
    cache_dir: str = DEFAULT_CACHE_DIR,
    trace: Optional[str] = None,
) -> List[Dict[str, float]]:
    """KPI dictionaries of ``scenario`` under each seed, in seed order."""
    resolved = resolve_scenario(scenario)
    seed_list = _seeds(seeds)
    with _traced(trace, "api.replicate", scenario=resolved.name,
                 seeds=len(seed_list), cache=cache):
        if cache:
            return RunCache(cache_dir).replicate(
                resolved, seed_list, workers=workers
            )
        histories = _replicate_histories(resolved, seed_list, workers=workers)
        return [extract_metrics(h) for h in histories]


def compare(
    a: ScenarioSpec = "hackathon",
    b: ScenarioSpec = "traditional",
    seeds: SeedsSpec = 5,
    *,
    workers: int = 1,
    cache: bool = False,
    cache_dir: str = DEFAULT_CACHE_DIR,
    trace: Optional[str] = None,
) -> ComparisonResult:
    """Compare two scenario specs over shared seeds."""
    scenario_a = resolve_scenario(a)
    scenario_b = resolve_scenario(b)
    seed_list = _seeds(seeds)
    with _traced(trace, "api.compare", a=scenario_a.name,
                 b=scenario_b.name, seeds=len(seed_list), cache=cache):
        if cache:
            return RunCache(cache_dir).compare_scenarios(
                scenario_a, scenario_b, seed_list, workers=workers
            )
        return compare_scenarios(
            scenario_a, scenario_b, seed_list, workers=workers
        )


def scenarios() -> Dict[str, Any]:
    """The scenario catalog: every registered scenario and sweepable
    parameter (builtin, bundled plugins, entry points, ``REPRO_PLUGINS``),
    in the same JSON shape the HTTP API serves at ``GET /v1/scenarios``.
    """
    return CATALOG.describe()


def sweep(
    parameter: str = "cadence",
    values: Optional[Sequence[float]] = None,
    seeds: SeedsSpec = 2,
    *,
    base: Optional[ScenarioSpec] = None,
    workers: int = 1,
    cache: bool = False,
    cache_dir: str = DEFAULT_CACHE_DIR,
    trace: Optional[str] = None,
) -> SweepResult:
    """Sweep a registered parameter (``cadence``, ``remote-share``, ...).

    ``values=None`` uses the parameter's default grid — the same one
    the HTTP API and the CLI use, so results line up across surfaces.
    ``base`` points sweeps registered with ``supports_base=True`` at a
    different base scenario spec.
    """
    chosen, factory, label_fn = sweep_plan(parameter, values, base=base)
    seed_list = _seeds(seeds)
    with _traced(trace, "api.sweep", parameter=parameter,
                 points=len(chosen), seeds=len(seed_list), cache=cache):
        if cache:
            return RunCache(cache_dir).run_sweep(
                parameter, chosen, factory, seeds=seed_list,
                label_fn=label_fn, workers=workers,
            )
        return run_sweep(
            parameter, chosen, factory, seeds=seed_list,
            label_fn=label_fn, workers=workers,
        )


def submit_job(
    kind: str,
    params: Optional[Dict[str, Any]] = None,
    *,
    url: str,
    priority: int = 0,
    wait: bool = True,
    stream: bool = False,
    timeout: float = 120.0,
) -> Union[Dict[str, Any], Iterator[Dict[str, Any]]]:
    """Submit a job to a running ``repro-sim serve`` endpoint.

    With ``stream=True`` returns an iterator over the job's live
    events (``state`` / ``cell`` / ``retry`` / ``detach`` dicts from
    ``GET /v1/jobs/{id}/events``), ending when the job is terminal —
    fetch the result afterwards via
    :meth:`~repro.service.client.ServiceClient.result`.  With
    ``wait=True`` (the default) blocks until the job is terminal —
    internally by streaming, not polling — and returns its result
    payload; with ``wait=False`` returns the job snapshot immediately.
    """
    if not isinstance(kind, str) or not kind:
        raise ConfigurationError("submit_job needs a job kind string")
    client = ServiceClient(url, timeout=timeout)
    job = client.submit(kind, params or {}, priority=priority)["job"]
    if stream:
        return client.watch_job(job["id"], timeout=timeout)
    if not wait:
        return job
    client._await(job["id"], timeout=timeout)
    return client.result(job["id"])
