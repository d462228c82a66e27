"""Cognitive distance between project participants.

The paper (Sec. III, citing Nooteboom's *Inter-firm Alliances*) argues
that in large consortia "cognitive distance poses both a problem and an
opportunity": a large distance offers novelty but hampers mutual
understanding.  This module quantifies that distance from the
:class:`~repro.cognition.knowledge.KnowledgeVector` profiles.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.cognition.knowledge import KnowledgeVector
from repro.numeric import ordered_sum

__all__ = [
    "cognitive_distance",
    "pairwise_distance_matrix",
    "team_diversity",
    "novelty",
    "understanding",
]


def cognitive_distance(a: KnowledgeVector, b: KnowledgeVector) -> float:
    """Distance in [0, 1] between two knowledge profiles.

    Defined as ``1 - cosine_similarity``.  Two members with identical
    profiles have distance 0; members with disjoint expertise have
    distance 1.  Empty profiles are maximally distant from everything
    (they share no frame of reference).
    """
    if len(a) == 0 or len(b) == 0:
        return 1.0
    return 1.0 - a.cosine_similarity(b)


def novelty(distance: float) -> float:
    """Potential for learning something new — increases with distance."""
    _check_unit(distance, "distance")
    return distance


def understanding(distance: float) -> float:
    """Ability to communicate — decreases with distance."""
    _check_unit(distance, "distance")
    return 1.0 - distance


def pairwise_distance_matrix(
    vectors: Sequence[KnowledgeVector],
) -> np.ndarray:
    """Symmetric matrix of cognitive distances with zero diagonal.

    Computed as one Gram-matrix product over the stacked dense
    profiles rather than O(n^2) per-pair similarity calls.
    """
    n = len(vectors)
    matrix = np.zeros((n, n), dtype=float)
    if n < 2:
        return matrix
    stacked = KnowledgeVector.stack(vectors)
    norms = np.sqrt(np.einsum("ij,ij->i", stacked, stacked))
    denom = np.outer(norms, norms)
    gram = stacked @ stacked.T
    with np.errstate(divide="ignore", invalid="ignore"):
        similarity = np.where(denom > 0.0, gram / denom, 0.0)
    np.clip(similarity, 0.0, 1.0, out=similarity)
    matrix = 1.0 - similarity
    # Empty profiles are maximally distant from everything (no shared
    # frame of reference), matching cognitive_distance's convention.
    matrix[denom == 0.0] = 1.0
    np.fill_diagonal(matrix, 0.0)
    return matrix


def team_diversity(vectors: Sequence[KnowledgeVector]) -> float:
    """Mean pairwise cognitive distance within a team, in [0, 1].

    A team of one (or zero) has zero diversity.  This is the quantity
    the inverted-U learning model evaluates for whole teams.
    """
    n = len(vectors)
    if n < 2:
        return 0.0
    matrix = pairwise_distance_matrix(vectors)
    # Mean over the strict upper triangle.
    return float(matrix[np.triu_indices(n, k=1)].mean())


def distance_report(
    labelled: Iterable[Tuple[str, KnowledgeVector]],
) -> List[Tuple[str, str, float]]:
    """All pairwise distances as ``(label_a, label_b, distance)`` rows.

    Convenience for examples and benches; rows are sorted by distance
    descending so the most distant pair comes first.
    """
    pairs = list(labelled)
    rows: List[Tuple[str, str, float]] = []
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            (la, va), (lb, vb) = pairs[i], pairs[j]
            rows.append((la, lb, cognitive_distance(va, vb)))
    rows.sort(key=lambda row: (-row[2], row[0], row[1]))
    return rows


def mean_distance_to_group(
    vector: KnowledgeVector, group: Sequence[KnowledgeVector]
) -> float:
    """Mean cognitive distance from ``vector`` to each member of ``group``."""
    if not group:
        return 0.0
    total = ordered_sum(cognitive_distance(vector, g) for g in group)
    return total / len(group)


def _check_unit(value: float, name: str) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0,1], got {value}")
