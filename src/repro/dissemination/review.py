"""The official project review meeting.

Paper Sec. VI: the best hackathon results "were presented in the first
official review meeting of the project, where both the approach and the
results received the appreciation of the project reviewers."

:class:`ReviewMeeting` models the EC review panel: a few reviewers with
individually drawn scepticism score (a) the presented showcases and
(b) the hackathon *process* itself (did the event satisfy its five
prerequisites? did it feed the application matrix?).  The verdict is the
panel's mean appreciation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.core.prerequisites import PrerequisiteReport
from repro.dissemination.showcase import Showcase
from repro.errors import ConfigurationError
from repro.numeric import ordered_sum
from repro.rng import RngHub

__all__ = ["ReviewerScore", "ReviewVerdict", "ReviewMeeting"]


@dataclass(frozen=True)
class ReviewerScore:
    """One reviewer's appreciation, in [0, 1]."""

    reviewer_id: str
    results_score: float
    approach_score: float

    @property
    def overall(self) -> float:
        return 0.5 * (self.results_score + self.approach_score)


@dataclass(frozen=True)
class ReviewVerdict:
    """The panel's aggregated outcome."""

    scores: List[ReviewerScore]
    mean_results: float
    mean_approach: float

    @property
    def mean_overall(self) -> float:
        return 0.5 * (self.mean_results + self.mean_approach)

    @property
    def appreciated(self) -> bool:
        """The paper's reported outcome: panel appreciation.

        We call the review "appreciated" when the panel's mean overall
        score clears 0.6 — a clearly positive review, not a borderline
        pass.
        """
        return self.mean_overall >= 0.6


class ReviewMeeting:
    """Simulates an EC project review of the hackathon initiative.

    Parameters
    ----------
    n_reviewers:
        Panel size (EC reviews typically use 2-4 experts).
    scepticism_sd:
        Spread of reviewer scepticism; each reviewer's scores are
        shifted down by their own scepticism draw (clipped at 0).
    """

    def __init__(
        self, hub: RngHub, n_reviewers: int = 3, scepticism_sd: float = 0.08
    ) -> None:
        if n_reviewers < 1:
            raise ConfigurationError(
                f"n_reviewers must be >= 1, got {n_reviewers}"
            )
        if scepticism_sd < 0:
            raise ConfigurationError(
                f"scepticism_sd must be >= 0, got {scepticism_sd}"
            )
        self._rng = hub.stream("review")
        self.n_reviewers = n_reviewers
        self.scepticism_sd = scepticism_sd

    def review(
        self,
        showcases: Sequence[Showcase],
        prerequisite_reports: Sequence[PrerequisiteReport],
        applications_started: int,
    ) -> ReviewVerdict:
        """Score the presented results and the approach.

        *Results* scoring reflects the quality of the presented
        showcases; *approach* scoring reflects process health: the
        fraction of satisfied prerequisites and whether the initiative
        moved the tool-to-case-study matrix at all (the project's
        stated progress gap).
        """
        if not showcases:
            raise ConfigurationError("a review needs at least one showcase")
        mean_quality = (
            ordered_sum(s.quality for s in showcases) / len(showcases)
        )
        prereq_health = (
            sum(1 for r in prerequisite_reports if r.satisfied)
            / len(prerequisite_reports)
            if prerequisite_reports
            else 0.0
        )
        progress_signal = 1.0 if applications_started > 0 else 0.3
        approach_base = 0.6 * prereq_health + 0.4 * progress_signal

        scores = []
        for i in range(self.n_reviewers):
            scepticism = abs(float(self._rng.normal(0.0, self.scepticism_sd)))
            results = float(
                np.clip(mean_quality - scepticism + self._rng.normal(0, 0.03),
                        0.0, 1.0)
            )
            approach = float(
                np.clip(approach_base - scepticism + self._rng.normal(0, 0.03),
                        0.0, 1.0)
            )
            scores.append(
                ReviewerScore(
                    reviewer_id=f"reviewer{i}",
                    results_score=results,
                    approach_score=approach,
                )
            )
        return ReviewVerdict(
            scores=scores,
            mean_results=(
                ordered_sum(s.results_score for s in scores) / len(scores)
            ),
            mean_approach=(
                ordered_sum(s.approach_score for s in scores) / len(scores)
            ),
        )
