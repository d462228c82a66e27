"""Post-plenary surveys.

Beyond the challenge votes, the organisers asked "additional questions
... to understand the acceptance and the adequacy of the plenary tuning"
(Sec. V-B):

* name the **three best parts** of the plenary (Fig. 3 — the hackathon
  received the most votes),
* was the progress generated by the hackathon **significant**?
* should the approach **continue** at following plenaries?

:class:`PlenarySurvey` simulates those responses from the realised
per-member engagement of a :class:`~repro.meetings.plenary.MeetingResult`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.meetings.engagement import EngagementRecord
from repro.meetings.plenary import MeetingResult
from repro.numeric import ordered_sum
from repro.rng import RngHub

__all__ = ["SurveyOutcome", "PlenarySurvey"]


@dataclass(frozen=True)
class SurveyOutcome:
    """Aggregated survey responses for one plenary."""

    respondents: int
    best_part_votes: Dict[str, int]
    progress_significant_fraction: float
    continue_fraction: float

    def best_parts_ranked(self) -> List[Tuple[str, int]]:
        """(part, votes) rows sorted by votes descending — Fig. 3 data."""
        return sorted(
            self.best_part_votes.items(), key=lambda kv: (-kv[1], kv[0])
        )

    def top_part(self) -> Optional[str]:
        ranked = self.best_parts_ranked()
        return ranked[0][0] if ranked else None


class PlenarySurvey:
    """Simulates the post-plenary questionnaire.

    Response model
    --------------
    * **Best parts**: each respondent names ``votes_per_respondent``
      distinct agenda items, sampled without replacement with
      probability proportional to ``exp(sharpness * engagement)`` on
      their own realised per-item engagement.  Engaged sessions
      collect the votes.
    * **Significant progress / continue**: Bernoulli with probability
      derived from a blend of the respondent's mean and *peak*
      engagement, stretched by ``opinion_gain`` around 0.5.  The peak
      term reflects that participants judge a plenary by its best part
      (the very thing the "3 best parts" question asks about): one
      genuinely engaging session outweighs hours of routine reporting.
    """

    def __init__(
        self,
        hub: RngHub,
        votes_per_respondent: int = 3,
        sharpness: float = 5.0,
        opinion_gain: float = 2.0,
    ) -> None:
        if votes_per_respondent < 1:
            raise ConfigurationError(
                f"votes_per_respondent must be >= 1, got {votes_per_respondent}"
            )
        if sharpness <= 0 or opinion_gain <= 0:
            raise ConfigurationError("sharpness and opinion_gain must be > 0")
        self._rng = hub.stream("survey")
        self.votes_per_respondent = votes_per_respondent
        self.sharpness = sharpness
        self.opinion_gain = opinion_gain

    def collect(self, result: MeetingResult) -> SurveyOutcome:
        """Run the survey over every attendee of ``result``.

        All uniforms come from one stacked draw and all pick weights
        from one stacked ``exp``.  Bit-equal to surveying respondent by
        respondent (``tests/oracles.py`` keeps that loop as the
        reference): every respondent consumes exactly
        ``min(votes_per_respondent, len(records)) + 2`` uniforms (the
        exponential weights are strictly positive, so no pick is ever
        skipped), and ``random(n)`` consumes the survey stream exactly
        as n sequential scalar draws.  Each pick inverts the normalised
        cdf of the respondent's remaining weights — the float ops of
        ``Generator.choice(n, p=weights/total)`` without its argument
        validation — and the per-member weight vector is a contiguous
        copy of the respondent's own records, so its
        ``sum``/``cumsum``/``searchsorted`` reductions group identically.
        """
        per_member: Dict[str, List[EngagementRecord]] = {}
        for rec in result.engagement_records:
            per_member.setdefault(rec.member_id, []).append(rec)
        members = sorted(per_member)
        k_list = [
            min(self.votes_per_respondent, len(per_member[m])) for m in members
        ]
        draws = self._rng.random(sum(k_list) + 2 * len(members))
        all_weights = np.exp(
            self.sharpness
            * np.array(
                [r.engagement for m in members for r in per_member[m]]
            )
        )

        votes: Counter = Counter()
        significant_yes = 0
        continue_yes = 0
        pos = 0
        offset = 0
        for member_id, k in zip(members, k_list):
            records = per_member[member_id]
            count = len(records)
            titles = [r.item_title for r in records]
            weights = all_weights[offset:offset + count].copy()
            offset += count
            for _ in range(k):
                total = weights.sum()
                cdf = (weights / total).cumsum()
                cdf /= cdf[-1]
                idx = int(cdf.searchsorted(draws[pos], side="right"))
                pos += 1
                votes[titles[idx]] += 1
                weights[idx] = 0.0
            mean_engagement = (
                ordered_sum(r.engagement for r in records) / count
            )
            peak_engagement = max(r.engagement for r in records)
            p_yes = self._opinion_probability(
                0.5 * mean_engagement + 0.5 * peak_engagement
            )
            if draws[pos] < p_yes:
                significant_yes += 1
            if draws[pos + 1] < p_yes:
                continue_yes += 1
            pos += 2

        respondents = len(members)
        return SurveyOutcome(
            respondents=respondents,
            best_part_votes=dict(votes),
            progress_significant_fraction=(
                significant_yes / respondents if respondents else 0.0
            ),
            continue_fraction=(continue_yes / respondents if respondents else 0.0),
        )

    def _opinion_probability(self, engagement: float) -> float:
        """Stretch engagement around 0.5 into a yes-probability."""
        p = 0.5 + self.opinion_gain * (engagement - 0.5)
        return min(0.98, max(0.02, p))
