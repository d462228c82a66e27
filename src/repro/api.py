"""One front door for the whole toolkit.

Every entry point here takes scenario *specs* (timeline names, plugin
scenarios, ``scenario-spec/v1`` file paths or inline mappings, exactly
as the HTTP API does), a ``seeds`` count or list, and the same keyword
set::

    workers=N          fan cells out over N processes
    cache=True         memoize through the run store
    cache_dir=PATH     where that store lives
    trace=PATH         record a span tree and write it as JSONL

Each call runs a served job's path in-process: its arguments become a
:class:`~repro.service.specs.JobPlan`, which
:func:`~repro.service.workers.execute_plan` resolves, from the run store
when ``cache=True``.  The CLI calls these functions too.  Results are
the objects the lower layers return —
:class:`~repro.simulation.experiment.ComparisonResult`,
:class:`~repro.simulation.sweep.SweepResult`, plain KPI dictionaries —
and are **bit-identical** whichever way (live, cached, remote)
produced them.

>>> import repro.api as api
>>> result = api.compare("hackathon", "traditional", seeds=5)
... # doctest: +SKIP
>>> points = api.sweep("cadence", seeds=2, cache=True)  # doctest: +SKIP
"""

from __future__ import annotations

import operator
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence, Union

from repro.errors import ConfigurationError
from repro.obs import span, tracing
from repro.registry import CATALOG
from repro.service.client import ServiceClient
from repro.service.specs import (
    JobPlan,
    build_plan,
    comparison_from_payload,
    sweep_from_payload,
)
from repro.service.workers import execute_plan
from repro.simulation.experiment import ComparisonResult
from repro.simulation.sweep import SweepResult
from repro.store.runcache import DEFAULT_CACHE_DIR, RunCache

__all__ = ["CATALOG", "replicate", "compare", "sweep", "scenarios",
           "submit_job"]

#: A scenario spec: a catalog name (builtin timeline, plugin scenario),
#: a ``scenario-spec/v1`` file path, or an inline mapping.
ScenarioSpec = Union[str, Dict[str, Any]]
#: A seeds spec: a count N (meaning ``range(N)``) or explicit seeds.
SeedsSpec = Union[int, Sequence[int]]


def _index(value: Any) -> Any:
    """``value`` as an int if it is integer-like (not a bool), else as is."""
    try:
        return value if isinstance(value, bool) else operator.index(value)
    except TypeError:
        return value


def _seeds(raw: SeedsSpec) -> Any:
    """A seeds spec as JSON job parameters spell it: numpy ints and a
    ``range``'s items become ints; anything else is left for
    :func:`~repro.service.specs.resolve_seeds` to reject as over HTTP."""
    if isinstance(raw, (str, bytes, dict)) or not hasattr(raw, "__iter__"):
        return _index(raw)
    return [_index(seed) for seed in raw]


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


def _run(plan: JobPlan, trace: Optional[str], workers: int, cache: bool,
         cache_dir: str, **attrs: Any) -> Dict[str, Any]:
    """Execute ``plan`` inside the ``api.<kind>`` span; return its payload."""
    with _traced(trace, f"api.{plan.kind}", **attrs,
                 seeds=len(plan.grid.seeds), cache=cache):
        store = RunCache(cache_dir) if cache else None
        return execute_plan(plan, store, workers=workers)


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
    plan = build_plan("replicate", {"scenario": scenario,
                                    "seeds": _seeds(seeds)})
    payload = _run(plan, trace, workers, cache, cache_dir,
                   scenario=plan.grid.points[0].name)
    return payload["metrics"]


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
    plan = build_plan("compare", {"a": a, "b": b, "seeds": _seeds(seeds)})
    scenario_a, scenario_b = plan.grid.points
    return comparison_from_payload(_run(
        plan, trace, workers, cache, cache_dir,
        a=scenario_a.name, b=scenario_b.name,
    ))


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
    plan = build_plan("sweep", {
        "parameter": parameter,
        "values": None if values is None else list(values),
        "seeds": _seeds(seeds), "scenario": base,
    })
    return sweep_from_payload(_run(
        plan, trace, workers, cache, cache_dir,
        parameter=parameter, points=len(plan.grid.points),
    ))


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
