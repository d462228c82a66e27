"""Generic parameter sweeps over scenarios.

The ablation benches all share one pattern: vary one scenario knob,
replicate over seeds, collect KPIs.  :func:`run_sweep` factors that out
so users can sweep anything (cadence, team policy, session hours,
follow-up horizon) in three lines.

The sweep is spelled ``parameter`` / ``values`` / ``factory``
everywhere in the public API — the facade (:mod:`repro.api`), the HTTP
job parameters and this module all agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.obs import span
from repro.simulation.cells import RunnerFactory
from repro.simulation.experiment import _run_many, grid
from repro.simulation.scenario import Scenario
from repro.stats.summary import SampleSummary, describe

__all__ = ["SweepPoint", "SweepResult", "sweep_from_metrics", "run_sweep"]


@dataclass(frozen=True)
class SweepPoint:
    """One parameter setting with its replicated KPI samples."""

    label: str
    parameter: object
    metrics: List[Dict[str, float]]

    def samples(self, metric: str) -> List[float]:
        try:
            return [m[metric] for m in self.metrics]
        except KeyError:
            raise ConfigurationError(f"unknown metric {metric!r}") from None

    def summary(self, metric: str) -> SampleSummary:
        return describe(self.samples(metric))


@dataclass
class SweepResult:
    """All points of one sweep, in parameter order."""

    parameter_name: str
    points: List[SweepPoint] = field(default_factory=list)

    def labels(self) -> List[str]:
        return [p.label for p in self.points]

    def point(self, label: str) -> SweepPoint:
        for point in self.points:
            if point.label == label:
                return point
        raise ConfigurationError(f"no sweep point labelled {label!r}")

    def series(self, metric: str) -> List[float]:
        """Mean of ``metric`` at each point, in sweep order."""
        return [p.summary(metric).mean for p in self.points]

    def best_point(self, metric: str, maximize: bool = True) -> SweepPoint:
        if not self.points:
            raise ConfigurationError("sweep has no points")
        key = lambda p: p.summary(metric).mean
        return max(self.points, key=key) if maximize else min(
            self.points, key=key
        )

    def table_rows(self, metrics: Sequence[str]) -> List[List[object]]:
        """Rows of [label, mean(metric)...] for reporting."""
        rows = []
        for point in self.points:
            rows.append(
                [point.label]
                + [round(point.summary(m).mean, 3) for m in metrics]
            )
        return rows


def sweep_from_metrics(
    parameter_name: str,
    parameter_values: Sequence[object],
    per_point_metrics: Sequence[List[Dict[str, float]]],
    label_fn: Optional[Callable[[object], str]] = None,
) -> SweepResult:
    """Assemble a :class:`SweepResult` from precomputed KPI dicts.

    ``per_point_metrics[i]`` holds the per-seed dictionaries for
    ``parameter_values[i]``.  Shared by :func:`run_sweep` and by job
    payloads (:func:`repro.service.specs.sweep_from_payload`).
    """
    if len(per_point_metrics) != len(parameter_values):
        raise ConfigurationError(
            f"got metrics for {len(per_point_metrics)} points, expected "
            f"{len(parameter_values)}"
        )
    label_of = label_fn or str
    result = SweepResult(parameter_name=parameter_name)
    for value, metrics in zip(parameter_values, per_point_metrics):
        result.points.append(
            SweepPoint(
                label=label_of(value), parameter=value, metrics=list(metrics)
            )
        )
    return result


def run_sweep(
    parameter: str,
    values: Sequence[object],
    factory: Callable[[object, int], Scenario],
    seeds: Sequence[int] = (),
    runner_factory: Optional[RunnerFactory] = None,
    label_fn: Optional[Callable[[object], str]] = None,
    workers: int = 1,
) -> SweepResult:
    """Run a full sweep.

    Parameters
    ----------
    parameter:
        Name of the swept knob (the result's ``parameter_name``).
    values:
        The parameter values, in sweep order.
    factory:
        ``(parameter_value, seed) -> Scenario``.  Always invoked in the
        parent process, so it may be a lambda even when ``workers`` > 1.
    seeds:
        Replicate seeds, shared across all parameter values (paired
        design — differences are not confounded by world randomness).
    label_fn:
        Optional pretty-printer for parameter values.
    workers:
        Processes to spread the ``len(values) * len(seeds)`` grid over.
        Point/seed ordering and results match a serial run.  Run
        serially, cells that differ only in run-time fields (plenary
        timing, team policy, ...) clone one world template per seed.
    """
    cells = grid("sweep", values, seeds, factory)
    with span("experiment.sweep", parameter=parameter,
              points=len(values), seeds=len(cells.seeds)):
        metrics = _run_many(cells.cells, runner_factory, workers)
    return sweep_from_metrics(parameter, values, cells.rows(metrics),
                              label_fn=label_fn)
