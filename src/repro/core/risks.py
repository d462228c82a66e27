"""The risk model for the paper's three stated hackathon risks (Sec. VI).

1. "Hackathons produce prototypes used as proof-of-concepts, that
   should not be considered as final products" — :func:`prototype_warnings`
   flags demos whose *perceived* readiness outruns their completion.
2. "The longer-term focus can be missed without proper follow-up" —
   quantified by :mod:`repro.core.followup` and the decay dynamics; this
   module scores the exposure.
3. "Hackathons cannot be used as a day-to-day practice, since the daily
   effort is very intense and the team may easily burn out" —
   :class:`BurnoutModel` tracks member energy across repeated events.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.consortium.member import Member
from repro.core.outcomes import Demo
from repro.errors import ConfigurationError
from repro.numeric import ordered_sum

__all__ = ["RiskAssessment", "BurnoutModel", "prototype_warnings", "assess_risks"]


@dataclass(frozen=True)
class RiskAssessment:
    """A snapshot of the three risk exposures, each in [0, 1]."""

    prototype_overreach: float
    followup_exposure: float
    burnout_level: float

    def worst(self) -> str:
        levels = {
            "prototype_overreach": self.prototype_overreach,
            "followup_exposure": self.followup_exposure,
            "burnout_level": self.burnout_level,
        }
        return max(sorted(levels), key=lambda k: levels[k])


class BurnoutModel:
    """Energy recovery between events and burnout accounting.

    Members recover ``recovery_per_month`` energy per month between
    events (capped at full).  If hackathons run too frequently, drained
    energy never recovers and members cross the burnout threshold —
    exactly the day-to-day failure mode the paper warns about.
    """

    def __init__(self, recovery_per_month: float = 0.25) -> None:
        if recovery_per_month <= 0:
            raise ConfigurationError(
                f"recovery_per_month must be > 0, got {recovery_per_month}"
            )
        self.recovery_per_month = recovery_per_month

    def recover(self, members: Sequence[Member], months: float) -> None:
        if months < 0:
            raise ConfigurationError(f"months must be >= 0, got {months}")
        for member in members:
            member.recover_energy(self.recovery_per_month * months)

    @staticmethod
    def burnout_rate(members: Sequence[Member]) -> float:
        """Fraction of members currently burned out."""
        if not members:
            return 0.0
        return sum(1 for m in members if m.is_burned_out) / len(members)

    @staticmethod
    def mean_energy(members: Sequence[Member]) -> float:
        if not members:
            return 0.0
        return ordered_sum(m.energy for m in members) / len(members)


def prototype_warnings(
    demos: Sequence[Demo], readiness_margin: float = 0.25
) -> List[str]:
    """Challenge ids whose demo looks more finished than it is.

    A demo with high perceived readiness but low completion is a
    proof-of-concept at risk of being mistaken for a product.
    """
    if readiness_margin <= 0:
        raise ConfigurationError(
            f"readiness_margin must be > 0, got {readiness_margin}"
        )
    return [
        d.challenge_id
        for d in demos
        if d.readiness - d.completion > readiness_margin
    ]


def assess_risks(
    demos: Sequence[Demo],
    members: Sequence[Member],
    followed_up_fraction: float,
) -> RiskAssessment:
    """Combine the three exposures into one assessment.

    ``followed_up_fraction`` is the share of convincing demos covered by
    a follow-up plan; exposure is its complement.
    """
    if not 0.0 <= followed_up_fraction <= 1.0:
        raise ConfigurationError(
            f"followed_up_fraction must be in [0,1], got {followed_up_fraction}"
        )
    overreach = (
        len(prototype_warnings(demos)) / len(demos) if demos else 0.0
    )
    return RiskAssessment(
        prototype_overreach=overreach,
        followup_exposure=1.0 - followed_up_fraction,
        burnout_level=BurnoutModel.burnout_rate(members),
    )
