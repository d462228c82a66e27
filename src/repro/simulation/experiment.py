"""Replication and scenario comparison.

The headline bench needs "treatment vs. baseline over N seeds with a
significance test per KPI".  :func:`replicate` runs a scenario under a
seed list; :func:`compare_scenarios` pairs two scenarios seed-by-seed
and attaches Mann–Whitney / Cliff's-delta comparisons per metric.

Everything that returns KPIs (:func:`replicate_metrics`,
:func:`compare_scenarios`, :func:`~repro.simulation.sweep.run_sweep`)
runs :func:`_run_metrics` per cell, so a serial run holds one history
at a time and a pooled run ships back KPI dictionaries, not histories.

The two scenarios of a comparison are spelled ``a`` and ``b``
everywhere in the public API — the facade (:mod:`repro.api`), the HTTP
job parameters and this module all agree.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, TypeVar

from repro.errors import ConfigurationError
from repro.obs import REGISTRY, span
from repro.simulation.runner import LongitudinalRunner, ProjectHistory
from repro.simulation.scenario import Scenario
from repro.simulation.template import template_runner
from repro.stats.summary import SampleSummary, describe
from repro.stats.tests import ComparisonTest, mann_whitney

__all__ = [
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


T = TypeVar("T")
RunnerFactory = Callable[[Scenario], LongitudinalRunner]


def extract_metrics(history: ProjectHistory) -> Dict[str, float]:
    """Flatten a run history into the KPI dictionary the benches use."""
    return dict(history.totals)


def _run_history(
    scenario: Scenario,
    runner_factory: Optional[RunnerFactory],
) -> ProjectHistory:
    """Execute one seeded scenario — the unit of work a pool ships out.

    Module-level so it pickles by reference into worker processes.  Each
    run builds its own :class:`~repro.rng.RngHub` from the scenario seed,
    so results are independent of which process (or order) runs it.
    Without a ``runner_factory`` the runner comes from the world-template
    cache (:func:`~repro.simulation.template.template_runner`), the one
    place default runners are set up.
    """
    if runner_factory is None:
        return template_runner(scenario).run()
    return runner_factory(scenario).run()


def _run_metrics(
    scenario: Scenario,
    runner_factory: Optional[RunnerFactory],
) -> Dict[str, float]:
    """One seeded scenario's KPI dictionary — what a store pool ships back.

    A history pickles to hundreds of KiB; its KPI dictionary to about
    half a KiB, so pool workers return this instead of the history.
    """
    return extract_metrics(_run_history(scenario, runner_factory))


def _picklable(payload: object) -> bool:
    """True when ``payload`` can cross a process boundary.

    A custom ``runner_factory`` may be a lambda or closure, which cannot;
    callers fall back to the serial path rather than failing
    mid-experiment.
    """
    try:
        pickle.dumps(payload)
    except Exception:
        return False
    return True


def effective_workers(workers: int) -> int:
    """Clamp a worker request to the machine's core count.

    Oversubscribing a small machine makes fan-out *slower* than serial
    (BENCH_perf.json: ``workers=4`` ~1.4x slower at ``cpu_count: 1``),
    so a request beyond ``os.cpu_count()`` is capped there — which on a
    single-core runner degrades to the serial path.
    """
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    return min(workers, os.cpu_count() or 1)


def _run_many(
    scenarios: Sequence[Scenario],
    runner_factory: Optional[RunnerFactory],
    workers: int,
    cell: Callable[[Scenario, Optional[RunnerFactory]], T] = _run_metrics,
) -> List[T]:
    """Run already-seeded scenarios through ``cell``, pooled or serially.

    ``cell`` is :func:`_run_metrics` (the default) or
    :func:`_run_history`.  Results come back in input order regardless
    of completion order, and each is bit-identical to what a serial run
    would produce — every run derives all randomness from its own seed.
    """
    _RUNS_TOTAL.inc(len(scenarios))
    workers = effective_workers(workers)
    pooled = workers > 1 and _picklable((scenarios, runner_factory))
    with span("experiment.run_many", runs=len(scenarios),
              workers=workers if pooled else 1):
        with _BATCH_SECONDS.time():
            if pooled:
                with ProcessPoolExecutor(
                    max_workers=min(workers, len(scenarios))
                ) as pool:
                    futures = [
                        pool.submit(cell, scenario, runner_factory)
                        for scenario in scenarios
                    ]
                    return [f.result() for f in futures]
            return [cell(scenario, runner_factory) for scenario in scenarios]


def _replicate(
    scenario: Scenario,
    seeds: Sequence[int],
    runner_factory: Optional[RunnerFactory],
    workers: int,
    cell: Callable[[Scenario, Optional[RunnerFactory]], T],
) -> List[T]:
    if not seeds:
        raise ConfigurationError("need at least one seed")
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    seeded = [scenario.with_seed(int(seed)) for seed in seeds]
    with span("experiment.replicate", scenario=scenario.name,
              seeds=len(seeded)):
        return _run_many(seeded, runner_factory, workers, cell)


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
    if not seeds:
        raise ConfigurationError("need at least one seed")
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    seeded = [a.with_seed(int(s)) for s in seeds] + [
        b.with_seed(int(s)) for s in seeds
    ]
    with span("experiment.compare", a=a.name, b=b.name, seeds=len(seeds)):
        metrics = _run_many(seeded, runner_factory, workers)
    return comparison_from_metrics(
        a.name,
        b.name,
        seeds,
        metrics[: len(seeds)],
        metrics[len(seeds):],
    )
