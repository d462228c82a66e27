"""A generic Likert questionnaire engine.

Sec. V-B mentions "additional questions [that] helped to understand the
acceptance and the adequacy of the plenary tuning among technical and
managerial sections".  :class:`Questionnaire` generalises the hard-coded
survey: arbitrary Likert items, simulated responses driven by a
per-respondent disposition, and aggregation with per-group breakdowns
(the technical-vs-managerial split the organisers cared about).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.numeric import ordered_sum
from repro.rng import RngHub

__all__ = ["LikertItem", "QuestionnaireResult", "Questionnaire"]

#: 5-point Likert scale: 1 = strongly disagree ... 5 = strongly agree.
LIKERT_MIN, LIKERT_MAX = 1, 5


@dataclass(frozen=True)
class LikertItem:
    """One agree/disagree statement.

    ``loading`` couples the item to the respondent's disposition in
    [-1, 1]: +1 means full agreement tracks a positive disposition,
    -1 means the item is reverse-coded ("the meeting wasted my time").
    """

    item_id: str
    statement: str
    loading: float = 1.0

    def __post_init__(self) -> None:
        if not self.item_id:
            raise ConfigurationError("item id must be non-empty")
        if not -1.0 <= self.loading <= 1.0:
            raise ConfigurationError(
                f"{self.item_id}: loading must be in [-1,1], got {self.loading}"
            )


@dataclass
class QuestionnaireResult:
    """All responses, indexable by item and respondent group."""

    items: List[LikertItem]
    responses: Dict[str, Dict[str, int]]  # respondent -> item -> score
    groups: Dict[str, str]  # respondent -> group label

    def respondent_count(self) -> int:
        return len(self.responses)

    def mean_score(self, item_id: str, group: Optional[str] = None) -> float:
        scores = [
            by_item[item_id]
            for respondent, by_item in self.responses.items()
            if group is None or self.groups.get(respondent) == group
        ]
        if not scores:
            raise ConfigurationError(
                f"no responses for item {item_id!r}"
                + (f" in group {group!r}" if group else "")
            )
        return ordered_sum(scores) / len(scores)

    def agreement_fraction(
        self, item_id: str, group: Optional[str] = None
    ) -> float:
        """Fraction scoring 4 or 5 ("agree" / "strongly agree")."""
        scores = [
            by_item[item_id]
            for respondent, by_item in self.responses.items()
            if group is None or self.groups.get(respondent) == group
        ]
        if not scores:
            raise ConfigurationError(f"no responses for item {item_id!r}")
        return sum(1 for s in scores if s >= 4) / len(scores)

    def group_gap(self, item_id: str, group_a: str, group_b: str) -> float:
        """Mean-score difference between two groups on one item."""
        return self.mean_score(item_id, group_a) - self.mean_score(
            item_id, group_b
        )

    def item_table(self) -> List[Tuple[str, float, float]]:
        """(item, mean, agreement) rows in item order."""
        return [
            (item.item_id, self.mean_score(item.item_id),
             self.agreement_fraction(item.item_id))
            for item in self.items
        ]


class Questionnaire:
    """Simulates Likert responses from respondent dispositions.

    A respondent with disposition ``d`` in [0, 1] answers an item with
    loading ``l`` around ``3 + 2 * l * (2d - 1)`` plus noise, clipped to
    the 1-5 scale — so an enthusiastic respondent (d near 1) agrees with
    positively-loaded items and rejects reverse-coded ones.
    """

    def __init__(
        self,
        items: Sequence[LikertItem],
        hub: RngHub,
        noise_sd: float = 0.7,
    ) -> None:
        if not items:
            raise ConfigurationError("a questionnaire needs at least one item")
        ids = [item.item_id for item in items]
        if len(ids) != len(set(ids)):
            raise ConfigurationError("duplicate item ids")
        if noise_sd < 0:
            raise ConfigurationError(f"noise_sd must be >= 0, got {noise_sd}")
        self.items = list(items)
        self._rng = hub.stream("questionnaire")
        self.noise_sd = noise_sd

    def expected_score(self, item: LikertItem, disposition: float) -> float:
        """Noise-free expected Likert score."""
        if not 0.0 <= disposition <= 1.0:
            raise ConfigurationError(
                f"disposition must be in [0,1], got {disposition}"
            )
        return 3.0 + 2.0 * item.loading * (2.0 * disposition - 1.0)

    def administer(
        self,
        dispositions: Mapping[str, float],
        groups: Optional[Mapping[str, str]] = None,
    ) -> QuestionnaireResult:
        """Collect one response per respondent per item."""
        if not dispositions:
            raise ConfigurationError("no respondents")
        responses: Dict[str, Dict[str, int]] = {}
        for respondent in sorted(dispositions):
            disposition = dispositions[respondent]
            answers = {}
            for item in self.items:
                raw = self.expected_score(item, disposition) + self._rng.normal(
                    0.0, self.noise_sd
                )
                answers[item.item_id] = min(
                    LIKERT_MAX, max(LIKERT_MIN, round(raw))
                )
            responses[respondent] = answers
        return QuestionnaireResult(
            items=list(self.items),
            responses=responses,
            groups=dict(groups or {}),
        )


def plenary_acceptance_items() -> List[LikertItem]:
    """The Sec. V-B "additional questions" as Likert items."""
    return [
        LikertItem(
            "progress_significant",
            "The hackathon generated significant progress for my work.",
        ),
        LikertItem(
            "continue_approach",
            "We should run the hackathon again at the next plenary.",
        ),
        LikertItem(
            "balance_adequate",
            "The balance between technical and managerial sessions was "
            "adequate.",
        ),
        LikertItem(
            "waste_of_time",
            "This plenary was mostly a waste of my time.",
            loading=-1.0,
        ),
    ]
