"""Replication and scenario comparison.

The headline bench needs "treatment vs. baseline over N seeds with a
significance test per KPI".  :func:`replicate` runs a scenario under a
seed list; :func:`compare_scenarios` pairs two scenarios seed-by-seed
and attaches Mann–Whitney / Cliff's-delta comparisons per metric.

These, :func:`~repro.simulation.sweep.run_sweep`, the run store and
the service's job plans all lay out their cells with one :func:`grid`
and run them through :func:`~repro.simulation.cells.compute_cells`.
Everything that returns KPIs runs a KPI-only cell, so a serial run
holds one history at a time and a pooled run ships back KPI
dictionaries, not histories.

The two scenarios of a comparison are spelled ``a`` and ``b``
everywhere in the public API — the facade (:mod:`repro.api`), the HTTP
job parameters and this module all agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    TypeVar,
)

from repro.errors import ConfigurationError
from repro.obs import REGISTRY, span
from repro.simulation.cells import (
    RunnerFactory,
    _run_history,
    _run_metrics,
    call_pool,
    compute_cells,
    effective_workers,
    extract_metrics,
)
from repro.simulation.runner import ProjectHistory
from repro.simulation.scenario import Scenario
from repro.stats.summary import SampleSummary, describe
from repro.stats.tests import ComparisonTest, mann_whitney

__all__ = [
    "Grid",
    "grid",
    "effective_workers",
    "extract_metrics",
    "replicate",
    "replicate_metrics",
    "MetricComparison",
    "ComparisonResult",
    "comparison_from_metrics",
    "compare_scenarios",
]

_RUNS_TOTAL = REGISTRY.counter(
    "experiment_runs_total",
    help="Seeded simulator runs dispatched by replicate/compare/sweep",
)
_BATCH_SECONDS = REGISTRY.histogram(
    "experiment_batch_seconds",
    help="Wall time of one replicate/compare/sweep run batch",
)


P = TypeVar("P")
T = TypeVar("T")


@dataclass(frozen=True)
class Grid:
    """The points x seeds cells of one replicate, compare or sweep.

    ``cells[i * len(seeds) + j]`` is ``make(points[i], seeds[j])``.  A
    replicate's points are ``(scenario,)``, a comparison's ``(a, b)``
    and a sweep's its values.
    """

    kind: str
    points: Sequence[Any]
    seeds: List[int]
    cells: List[Scenario]

    def rows(self, results: Sequence[T]) -> List[List[T]]:
        """Split per-cell results, in cell order, into one row per point."""
        n = len(self.seeds)
        return [list(results[i * n:(i + 1) * n])
                for i in range(len(self.points))]


def grid(
    kind: str,
    points: Sequence[P],
    seeds: Iterable[int],
    make: Callable[[P, int], Scenario],
) -> Grid:
    """Validate and lay out a ``"replicate"``, ``"compare"`` or
    ``"sweep"`` grid; only a sweep's points come from its caller."""
    if not points:
        raise ConfigurationError("sweep needs at least one parameter value")
    seed_list = [int(seed) for seed in seeds]
    if not seed_list:
        raise ConfigurationError(
            "sweep needs at least one seed" if kind == "sweep"
            else "need at least one seed"
        )
    cells = [make(point, seed) for point in points for seed in seed_list]
    return Grid(kind, points, seed_list, cells)


def _run_many(
    scenarios: Sequence[Scenario],
    runner_factory: Optional[RunnerFactory],
    workers: int,
    cell: Callable[[Scenario, Optional[RunnerFactory]], T] = _run_metrics,
) -> List[T]:
    """Run already-seeded scenarios through ``cell``, in input order.

    With ``workers`` > 1 (capped at the core count) they run on a
    :class:`~repro.simulation.cells.WorkerPool` opened for this call.
    """
    workers = effective_workers(workers)
    _RUNS_TOTAL.inc(len(scenarios))
    results: List[T] = [None] * len(scenarios)  # type: ignore[list-item]
    with span("experiment.run_many", runs=len(scenarios), workers=workers):
        with _BATCH_SECONDS.time(), \
                call_pool(workers, len(scenarios)) as pool:
            compute_cells(list(enumerate(scenarios)), runner_factory,
                          results.__setitem__, pool=pool, cell=cell)
    return results


def _replicate(
    scenario: Scenario,
    seeds: Sequence[int],
    runner_factory: Optional[RunnerFactory],
    workers: int,
    cell: Callable[[Scenario, Optional[RunnerFactory]], T],
) -> List[T]:
    cells = grid("replicate", (scenario,), seeds, Scenario.with_seed)
    with span("experiment.replicate", scenario=scenario.name,
              seeds=len(cells.seeds)):
        return _run_many(cells.cells, runner_factory, workers, cell)


def replicate(
    scenario: Scenario,
    seeds: Sequence[int],
    runner_factory: Optional[RunnerFactory] = None,
    workers: int = 1,
) -> List[ProjectHistory]:
    """Run ``scenario`` once per seed and return all histories.

    ``workers`` > 1 distributes the seeds over that many processes
    (capped at the core count).  The returned histories are in seed
    order and identical whichever path runs them.  Callers that only
    need KPIs should use :func:`replicate_metrics`, which never holds
    more than one history.
    """
    return _replicate(scenario, seeds, runner_factory, workers, _run_history)


def replicate_metrics(
    scenario: Scenario,
    seeds: Sequence[int],
    runner_factory: Optional[RunnerFactory] = None,
    workers: int = 1,
) -> List[Dict[str, float]]:
    """KPI dictionaries of ``scenario`` under each seed, in seed order.

    Equal to ``[extract_metrics(h) for h in replicate(...)]``, but each
    history is dropped as soon as its KPIs are read.
    """
    return _replicate(scenario, seeds, runner_factory, workers, _run_metrics)


@dataclass(frozen=True)
class MetricComparison:
    """One KPI compared across the two scenarios."""

    metric: str
    summary_a: SampleSummary
    summary_b: SampleSummary
    test: ComparisonTest

    @property
    def ratio(self) -> float:
        """mean(a) / mean(b); inf when b's mean is zero but a's is not."""
        if self.summary_b.mean == 0.0:
            return float("inf") if self.summary_a.mean > 0 else 1.0
        return self.summary_a.mean / self.summary_b.mean

    @property
    def a_wins(self) -> bool:
        return self.summary_a.mean > self.summary_b.mean


@dataclass
class ComparisonResult:
    """All KPI comparisons between two scenarios."""

    name_a: str
    name_b: str
    seeds: List[int]
    metrics_a: List[Dict[str, float]] = field(default_factory=list)
    metrics_b: List[Dict[str, float]] = field(default_factory=list)

    def metric_names(self) -> List[str]:
        if not self.metrics_a:
            return []
        return sorted(self.metrics_a[0])

    def samples(self, metric: str) -> Dict[str, List[float]]:
        return {
            self.name_a: [m[metric] for m in self.metrics_a],
            self.name_b: [m[metric] for m in self.metrics_b],
        }

    def comparison(self, metric: str) -> MetricComparison:
        a = [m[metric] for m in self.metrics_a]
        b = [m[metric] for m in self.metrics_b]
        return MetricComparison(
            metric=metric,
            summary_a=describe(a),
            summary_b=describe(b),
            test=mann_whitney(a, b),
        )

    def all_comparisons(self) -> List[MetricComparison]:
        return [self.comparison(m) for m in self.metric_names()]


def comparison_from_metrics(
    name_a: str,
    name_b: str,
    seeds: Sequence[int],
    metrics_a: Sequence[Dict[str, float]],
    metrics_b: Sequence[Dict[str, float]],
) -> ComparisonResult:
    """Assemble a :class:`ComparisonResult` from precomputed KPI dicts.

    Shared by the live path below and :class:`repro.store.RunCache`,
    which serves the per-seed dictionaries from disk — both produce
    structurally identical results.
    """
    result = ComparisonResult(
        name_a=name_a, name_b=name_b, seeds=[int(s) for s in seeds]
    )
    result.metrics_a = list(metrics_a)
    result.metrics_b = list(metrics_b)
    return result


def compare_scenarios(
    a: Scenario,
    b: Scenario,
    seeds: Sequence[int] = (),
    runner_factory: Optional[RunnerFactory] = None,
    workers: int = 1,
) -> ComparisonResult:
    """Run both scenarios over the same seeds and compare their KPIs.

    With ``workers`` > 1 both arms share one process pool, so a
    2-scenario x N-seed comparison keeps every worker busy instead of
    draining arm A before starting arm B.  Run serially, arm B's runs
    clone the world templates arm A's runs built for the same seeds.
    """
    cells = grid("compare", (a, b), seeds, Scenario.with_seed)
    with span("experiment.compare", a=a.name, b=b.name,
              seeds=len(cells.seeds)):
        metrics = _run_many(cells.cells, runner_factory, workers)
    return comparison_from_metrics(a.name, b.name, cells.seeds,
                                   *cells.rows(metrics))
