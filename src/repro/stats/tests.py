"""Non-parametric comparison tests used by the benchmark harness.

Simulated KPI distributions are small and non-normal, so comparisons use
the Mann–Whitney U test (via SciPy, imported on first use so that
runs which never compare do not load it) plus Cliff's delta as an ordinal
effect size — the natural choice for "who wins and by how much" claims.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["ComparisonTest", "mann_whitney", "cliffs_delta"]


@dataclass(frozen=True)
class ComparisonTest:
    """Result of comparing two samples."""

    statistic: float
    p_value: float
    delta: float  # Cliff's delta in [-1, 1]; > 0 means a tends larger
    n_a: int
    n_b: int

    @property
    def significant(self) -> bool:
        """Conventional alpha = 0.05 significance."""
        return self.p_value < 0.05

    @property
    def magnitude(self) -> str:
        """Romano et al. thresholds for |delta|."""
        d = abs(self.delta)
        if d < 0.147:
            return "negligible"
        if d < 0.33:
            return "small"
        if d < 0.474:
            return "medium"
        return "large"


def cliffs_delta(a: Sequence[float], b: Sequence[float]) -> float:
    """Cliff's delta: P(a > b) - P(a < b) over all cross pairs."""
    xa = np.asarray(list(a), dtype=float)
    xb = np.asarray(list(b), dtype=float)
    if xa.size == 0 or xb.size == 0:
        raise ConfigurationError("both samples must be non-empty")
    diff = xa[:, None] - xb[None, :]
    greater = np.count_nonzero(diff > 0)
    less = np.count_nonzero(diff < 0)
    return float((greater - less) / (xa.size * xb.size))


def mann_whitney(
    a: Sequence[float], b: Sequence[float], alternative: str = "two-sided"
) -> ComparisonTest:
    """Mann–Whitney U with Cliff's delta attached.

    Degenerates gracefully when both samples are constant and equal
    (p = 1.0, delta = 0).
    """
    xa = np.asarray(list(a), dtype=float)
    xb = np.asarray(list(b), dtype=float)
    if xa.size == 0 or xb.size == 0:
        raise ConfigurationError("both samples must be non-empty")
    if np.all(xa == xa[0]) and np.all(xb == xb[0]) and xa[0] == xb[0]:
        return ComparisonTest(
            statistic=float(xa.size * xb.size / 2.0),
            p_value=1.0,
            delta=0.0,
            n_a=int(xa.size),
            n_b=int(xb.size),
        )
    from scipy import stats as sp_stats

    result = sp_stats.mannwhitneyu(xa, xb, alternative=alternative)
    return ComparisonTest(
        statistic=float(result.statistic),
        p_value=float(result.pvalue),
        delta=cliffs_delta(xa, xb),
        n_a=int(xa.size),
        n_b=int(xb.size),
    )
