"""Replication and scenario comparison.

The headline bench needs "treatment vs. baseline over N seeds with a
significance test per KPI".  :func:`replicate` runs a scenario under a
seed list; :func:`compare_scenarios` pairs two scenarios seed-by-seed
and attaches Mann–Whitney / Cliff's-delta comparisons per metric.

The two scenarios of a comparison are spelled ``a`` and ``b``
everywhere in the public API — the facade (:mod:`repro.api`), the HTTP
job parameters and this module all agree.  The pre-1.x spellings
(``scenario_a=``/``scenario_b=``) still work but emit a
:class:`DeprecationWarning`; see the migration table in README.
"""

from __future__ import annotations

import os
import pickle
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.obs import REGISTRY, span
from repro.simulation.batch import (
    BatchRunner,
    record_fallback,
    scenario_family,
)
from repro.simulation.runner import LongitudinalRunner, ProjectHistory
from repro.simulation.scenario import Scenario
from repro.stats.summary import SampleSummary, describe
from repro.stats.tests import ComparisonTest, mann_whitney

__all__ = [
    "BACKENDS",
    "effective_workers",
    "extract_metrics",
    "replicate",
    "MetricComparison",
    "ComparisonResult",
    "comparison_from_metrics",
    "compare_scenarios",
]

#: Execution backends for multi-seed runs.  ``"auto"`` picks the batched
#: engine whenever the request qualifies (default factories, >= 2 runs of
#: one scenario family, no multi-process fan-out), ``"batch"`` insists on
#: it (still falling back, with a counted reason, when the request cannot
#: batch), and ``"scalar"`` forces the one-run-per-seed path.
BACKENDS = ("auto", "batch", "scalar")

_RUNS_TOTAL = REGISTRY.counter(
    "experiment_runs_total",
    help="Seeded simulator runs dispatched by replicate/compare/sweep",
)
_BATCH_SECONDS = REGISTRY.histogram(
    "experiment_batch_seconds",
    help="Wall time of one replicate/compare/sweep run batch",
)


def _pop_legacy_kwarg(
    legacy: Dict[str, Any], old: str, new: str, current: Any
) -> Any:
    """Resolve one deprecated keyword spelling against its new name.

    Emits a :class:`DeprecationWarning` pointing at the caller; passing
    both spellings at once is a hard error rather than a silent pick.
    """
    if old not in legacy:
        return current
    value = legacy.pop(old)
    warnings.warn(
        f"the {old!r} keyword is deprecated; use {new!r} instead "
        f"(see the migration table in README)",
        DeprecationWarning,
        stacklevel=3,
    )
    if current is not None:
        raise ConfigurationError(
            f"got both {new!r} and its deprecated alias {old!r}"
        )
    return value


def _reject_unknown_kwargs(name: str, legacy: Dict[str, Any]) -> None:
    if legacy:
        raise TypeError(
            f"{name}() got unexpected keyword argument(s): "
            f"{', '.join(sorted(legacy))}"
        )


def extract_metrics(history: ProjectHistory) -> Dict[str, float]:
    """Flatten a run history into the KPI dictionary the benches use."""
    return dict(history.totals)


def _run_history(
    scenario: Scenario,
    runner_factory: Optional[Callable[[Scenario], LongitudinalRunner]],
) -> ProjectHistory:
    """Execute one seeded scenario — the unit of work a pool ships out.

    Module-level so it pickles by reference into worker processes.  Each
    run builds its own :class:`~repro.rng.RngHub` from the scenario seed,
    so results are independent of which process (or order) runs it.
    """
    factory = runner_factory or LongitudinalRunner
    return factory(scenario).run()


def _run_metrics(
    scenario: Scenario,
    runner_factory: Optional[Callable[[Scenario], LongitudinalRunner]],
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


def _check_backend(backend: str) -> None:
    if backend not in BACKENDS:
        raise ConfigurationError(
            f"backend must be one of {BACKENDS}, got {backend!r}"
        )


def _run_batched(scenarios: Sequence[Scenario]) -> List[ProjectHistory]:
    """Batch ``scenarios`` grouped by family, back in input order.

    A comparison hands over two interleavable families; each family of
    two or more lanes runs through :class:`BatchRunner`, singleton
    families run scalar.
    """
    groups: Dict[str, List[int]] = {}
    for i, scenario in enumerate(scenarios):
        groups.setdefault(scenario_family(scenario), []).append(i)
    out: List[Optional[ProjectHistory]] = [None] * len(scenarios)
    for indices in groups.values():
        if len(indices) == 1:
            record_fallback("singleton_family")
            out[indices[0]] = _run_history(scenarios[indices[0]], None)
        elif scenarios[indices[0]].uses_plugin_modifiers():
            record_fallback("plugin")
            for i in indices:
                out[i] = _run_history(scenarios[i], None)
        else:
            histories = BatchRunner(
                [scenarios[i] for i in indices]
            ).run()
            for i, history in zip(indices, histories):
                out[i] = history
    return out


def _run_many(
    scenarios: Sequence[Scenario],
    runner_factory: Optional[Callable[[Scenario], LongitudinalRunner]],
    workers: int,
    backend: str = "auto",
) -> List[ProjectHistory]:
    """Run already-seeded scenarios via the chosen backend.

    Results come back in input order regardless of completion order, and
    each history is bit-identical to what a serial scalar run would
    produce — every run derives all randomness from its own seed, and
    the batched engine is bit-equal by construction.
    """
    _check_backend(backend)
    _RUNS_TOTAL.inc(len(scenarios))
    workers = effective_workers(workers)
    pooled = workers > 1 and _picklable((scenarios, runner_factory))
    use_batch = False
    if backend == "batch" or (backend == "auto" and not pooled):
        if runner_factory is not None:
            record_fallback("runner_factory")
        elif len(scenarios) < 2:
            record_fallback("single_run")
        else:
            use_batch = True
            pooled = False  # an explicit batch request wins over a pool
    with span("experiment.run_many", runs=len(scenarios),
              workers=workers if pooled else 1,
              backend="batch" if use_batch else "scalar"):
        with _BATCH_SECONDS.time():
            if use_batch:
                return _run_batched(scenarios)
            if pooled:
                with ProcessPoolExecutor(
                    max_workers=min(workers, len(scenarios))
                ) as pool:
                    futures = [
                        pool.submit(_run_history, scenario, runner_factory)
                        for scenario in scenarios
                    ]
                    return [f.result() for f in futures]
            return [
                _run_history(scenario, runner_factory)
                for scenario in scenarios
            ]


def replicate(
    scenario: Scenario,
    seeds: Sequence[int],
    runner_factory: Optional[Callable[[Scenario], LongitudinalRunner]] = None,
    workers: int = 1,
    backend: str = "auto",
) -> List[ProjectHistory]:
    """Run ``scenario`` once per seed and return all histories.

    ``workers`` > 1 distributes the seeds over that many processes
    (capped at the core count); ``backend`` selects the scalar or
    batched engine (see :data:`BACKENDS`).  The returned histories are
    in seed order and identical whichever path runs them.
    """
    if not seeds:
        raise ConfigurationError("need at least one seed")
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    _check_backend(backend)
    seeded = [scenario.with_seed(int(seed)) for seed in seeds]
    with span("experiment.replicate", scenario=scenario.name,
              seeds=len(seeded)):
        return _run_many(seeded, runner_factory, workers, backend)


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
    a: Optional[Scenario] = None,
    b: Optional[Scenario] = None,
    seeds: Sequence[int] = (),
    runner_factory: Optional[Callable[[Scenario], LongitudinalRunner]] = None,
    workers: int = 1,
    backend: str = "auto",
    **legacy: Any,
) -> ComparisonResult:
    """Run both scenarios over the same seeds and compare their KPIs.

    With ``workers`` > 1 both arms share one process pool, so a
    2-scenario x N-seed comparison keeps every worker busy instead of
    draining arm A before starting arm B.  Under the batched backend
    each arm's seeds run as one stacked computation.

    ``scenario_a=``/``scenario_b=`` are deprecated aliases for
    ``a=``/``b=`` and emit a :class:`DeprecationWarning`.
    """
    a = _pop_legacy_kwarg(legacy, "scenario_a", "a", a)
    b = _pop_legacy_kwarg(legacy, "scenario_b", "b", b)
    _reject_unknown_kwargs("compare_scenarios", legacy)
    if a is None or b is None:
        raise ConfigurationError("compare_scenarios needs scenarios a and b")
    if not seeds:
        raise ConfigurationError("need at least one seed")
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    _check_backend(backend)
    seeded = [a.with_seed(int(s)) for s in seeds] + [
        b.with_seed(int(s)) for s in seeds
    ]
    with span("experiment.compare", a=a.name, b=b.name, seeds=len(seeds)):
        histories = _run_many(seeded, runner_factory, workers, backend)
        with span("experiment.extract_metrics", runs=len(histories)):
            metrics = [extract_metrics(h) for h in histories]
    return comparison_from_metrics(
        a.name,
        b.name,
        seeds,
        metrics[: len(seeds)],
        metrics[len(seeds):],
    )
