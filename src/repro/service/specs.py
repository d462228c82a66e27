"""Translate JSON job parameters into concrete simulation plans.

The HTTP API speaks plain JSON; the simulator speaks
:class:`~repro.simulation.scenario.Scenario`.  This module bridges the
two: it resolves scenario *specs* (a registered timeline name, or an
inline scenario description), expands a job's parameters into the flat
list of seeded per-cell scenarios the workers will run, and assembles
the finished per-cell KPI dictionaries back into a JSON result payload.

Every payload is designed to round-trip losslessly: JSON floats use
Python's shortest-repr encoding, so a client can rebuild a
:class:`~repro.simulation.experiment.ComparisonResult` or
:class:`~repro.simulation.sweep.SweepResult` from the payload that is
bit-identical to what the in-process API returns
(:func:`comparison_from_payload`, :func:`sweep_from_payload`).

The plan also carries the job's **coalescing key**: a hash over the
resolved ``(fingerprint, seed)`` cell set rather than the raw request
body, so two submissions that spell the same work differently (a
timeline name vs. its inline expansion) still deduplicate to one job.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro.errors import ConfigurationError
from repro.registry import CATALOG
from repro.simulation.experiment import (
    ComparisonResult,
    Grid,
    comparison_from_metrics,
    grid,
)
from repro.simulation.scenario import Scenario
from repro.simulation.sweep import SweepResult, sweep_from_metrics
from repro.store.fingerprint import (
    canonical_json,
    scenario_fingerprint,
    seeded,
)

__all__ = [
    "CATALOG",
    "MAX_PLAN_CELLS",
    "JobPlan",
    "resolve_scenario",
    "resolve_seeds",
    "sweep_plan",
    "build_plan",
    "comparison_from_payload",
    "sweep_from_payload",
]


def resolve_scenario(spec: Union[str, Dict[str, Any]]) -> Scenario:
    """Build a :class:`Scenario` from a JSON scenario spec.

    Every spelling resolves through the shared scenario catalog
    (:data:`repro.registry.CATALOG`): a registered name (builtin
    timeline or plugin scenario), a path to a ``scenario-spec/v1``
    JSON/TOML file, a spec mapping (``{"kind": "scenario-spec/v1",
    ...}``) or an inline scenario mapping with a ``plenaries`` list.
    Anything else — unknown names, unknown keys, invalid plenary
    values — raises :class:`ConfigurationError`.
    """
    return CATALOG.resolve(spec)


#: Most cells (grid points x seeds) one plan may hold.  The largest
#: plan in the repository has 100 seeds; a count far beyond this would
#: otherwise be expanded into one seeded scenario per cell in memory.
MAX_PLAN_CELLS = 10_000


def resolve_seeds(raw: Any, points: int = 1) -> List[int]:
    """Normalize a seeds spec: an int N means ``range(N)``.

    The seeds run on ``points`` grid points; a plan of more than
    :data:`MAX_PLAN_CELLS` cells is refused before any list is built.
    """
    if isinstance(raw, bool):
        raise ConfigurationError("seeds must be an int or a list of ints")
    if isinstance(raw, int):
        if raw < 1:
            raise ConfigurationError(f"seeds must be >= 1, got {raw}")
        count = raw
    elif isinstance(raw, list) and raw and all(
        isinstance(s, int) and not isinstance(s, bool) for s in raw
    ):
        count = len(raw)
    else:
        raise ConfigurationError(
            "seeds must be a positive int or a non-empty list of ints"
        )
    if points * count > MAX_PLAN_CELLS:
        raise ConfigurationError(
            f"{points} point(s) x {count} seed(s) is more than "
            f"{MAX_PLAN_CELLS} cells"
        )
    return list(range(raw)) if isinstance(raw, int) else [int(s) for s in raw]


def sweep_plan(
    parameter: str,
    values: Optional[List[Any]] = None,
    base: Optional[Union[str, Dict[str, Any]]] = None,
) -> tuple:
    """``(values, factory, label_fn)`` for a sweepable parameter.

    ``parameter`` is looked up in the shared catalog, so plugin sweeps
    (``remote-share``, ``free-rider-share``, ...) work everywhere the
    classic ``cadence``/``session-hours`` did.  ``base`` optionally
    names a scenario spec to sweep over — only parameters registered
    with ``supports_base=True`` accept it.
    """
    if not isinstance(parameter, str):
        raise ConfigurationError(
            f"sweep parameter must be a string, got {parameter!r}"
        )
    if values is not None and not isinstance(values, list):
        raise ConfigurationError(
            f"sweep values must be a list, got {values!r}"
        )
    entry = CATALOG.sweep_parameter(parameter)
    chosen = list(values) if values is not None else list(entry.defaults)
    if not chosen:
        raise ConfigurationError("sweep needs at least one parameter value")
    for value in chosen:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ConfigurationError(
                f"sweep values must be numbers, got {value!r}"
            )
        if not _finite_float(value):
            raise ConfigurationError(
                f"sweep values must be finite floats, got {value!r}"
            )
    factory: Callable[..., Scenario] = entry.factory
    if base is not None:
        if not entry.supports_base:
            raise ConfigurationError(
                f"sweep parameter {parameter!r} does not accept a base "
                f"scenario"
            )
        base_scenario = resolve_scenario(base)

        def factory(value: Any, seed: int) -> Scenario:
            return entry.factory(value, seed, base=base_scenario)

    return chosen, factory, entry.label


def _finite_float(value: Any) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


@dataclass
class JobPlan:
    """A fully resolved job: its cells and how to assemble the result."""

    grid: Grid
    key: str
    assemble: Callable[[List[Dict[str, float]]], Dict[str, Any]]

    @property
    def kind(self) -> str:
        return self.grid.kind

    @property
    def scenarios(self) -> List[Scenario]:
        """The seeded per-cell scenarios, point-major."""
        return self.grid.cells


def _plan(
    cells: Grid,
    extra: Dict[str, Any],
    payload: Callable[[List[List[Dict[str, float]]]], Dict[str, Any]],
) -> JobPlan:
    """The job that computes ``cells``; ``payload`` words its result.

    The coalescing key hashes the kind, the resolved ``(fingerprint,
    seed)`` cells and ``extra``; ``payload`` gets the per-cell metrics
    split into one row per grid point.
    """
    blob = canonical_json({
        "kind": cells.kind,
        "cells": [[scenario_fingerprint(s), s.seed] for s in cells.cells],
        "extra": extra,
    })
    return JobPlan(
        grid=cells,
        key=hashlib.sha256(blob.encode("ascii")).hexdigest(),
        assemble=lambda metrics: {"kind": cells.kind,
                                  **payload(cells.rows(metrics))},
    )


def build_plan(kind: str, params: Dict[str, Any]) -> JobPlan:
    """Validate ``params`` for ``kind`` and expand them into a plan.

    Raises :class:`ConfigurationError` on any malformed input — the
    server maps that to HTTP 400 before the job ever enters the queue.
    """
    if not isinstance(params, dict):
        raise ConfigurationError("params must be a mapping")
    if kind == "compare":
        return _compare_plan(params)
    if kind == "sweep":
        return _sweep_plan(params)
    if kind == "replicate":
        return _replicate_plan(params)
    raise ConfigurationError(
        f"unknown job kind {kind!r}; known: compare, sweep, replicate"
    )


def _require(params: Dict[str, Any], allowed: Sequence[str]) -> None:
    unknown = set(params) - set(allowed)
    if unknown:
        raise ConfigurationError(
            f"unknown parameter(s): {', '.join(sorted(unknown))}"
        )


def _compare_plan(params: Dict[str, Any]) -> JobPlan:
    _require(params, ("a", "b", "seeds"))
    scenario_a = resolve_scenario(params.get("a", "hackathon"))
    scenario_b = resolve_scenario(params.get("b", "traditional"))
    seeds = resolve_seeds(params.get("seeds", 3), points=2)
    cells = grid("compare", (scenario_a, scenario_b), seeds, seeded)
    names = {"name_a": scenario_a.name, "name_b": scenario_b.name}
    return _plan(cells, names, lambda rows: {
        **names, "seeds": seeds, "metrics_a": rows[0], "metrics_b": rows[1],
    })


def _sweep_plan(params: Dict[str, Any]) -> JobPlan:
    _require(params, ("parameter", "values", "seeds", "scenario"))
    parameter = params.get("parameter", "cadence")
    values, factory, label_fn = sweep_plan(
        parameter, params.get("values"), base=params.get("scenario")
    )
    seeds = resolve_seeds(params.get("seeds", 2), points=len(values))
    cells = grid("sweep", values, seeds, factory)
    labels = [label_fn(v) for v in values]
    return _plan(cells, {"parameter": parameter, "labels": labels},
                 lambda rows: {
                     "parameter_name": parameter, "values": values,
                     "labels": labels, "seeds": seeds,
                     "per_point_metrics": rows,
                 })


def _replicate_plan(params: Dict[str, Any]) -> JobPlan:
    _require(params, ("scenario", "seeds"))
    scenario = resolve_scenario(params.get("scenario", "hackathon"))
    seeds = resolve_seeds(params.get("seeds", 3))
    cells = grid("replicate", (scenario,), seeds, seeded)
    return _plan(cells, {"name": scenario.name}, lambda rows: {
        "scenario": scenario.name, "seeds": seeds, "metrics": rows[0],
    })


# -- payload round-trips --------------------------------------------------


def comparison_from_payload(payload: Dict[str, Any]) -> ComparisonResult:
    """Rebuild a :class:`ComparisonResult` from a compare job result.

    JSON floats round-trip exactly, so the rebuilt result is
    bit-identical to the one the in-process API returns.
    """
    return comparison_from_metrics(
        payload["name_a"],
        payload["name_b"],
        payload["seeds"],
        payload["metrics_a"],
        payload["metrics_b"],
    )


def sweep_from_payload(payload: Dict[str, Any]) -> SweepResult:
    """Rebuild a :class:`SweepResult` from a sweep job result."""
    labels = iter(payload["labels"])
    return sweep_from_metrics(
        payload["parameter_name"],
        payload["values"],
        payload["per_point_metrics"],
        label_fn=lambda _value: next(labels),
    )
