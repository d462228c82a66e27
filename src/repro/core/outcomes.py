"""Demos, pitches and the aggregated hackathon outcome (the *after* phase).

Each team's sessions culminate in a :class:`Demo` whose four quality
components map one-to-one onto the paper's four vote criteria.  The
:class:`HackathonOutcome` gathers everything the event produced — demos,
votes, new interactions, follow-up plans and framework progress — which
is what the longitudinal simulator and the benches consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.challenge import Challenge
from repro.core.session import SessionResult
from repro.core.teams import Team
from repro.errors import ConfigurationError
from repro.evaluation.voting import ChallengeScore, Criterion
from repro.network.dynamics import Interaction
from repro.numeric import ordered_sum

__all__ = ["Demo", "Pitch", "HackathonOutcome", "build_demo"]


@dataclass(frozen=True)
class Pitch:
    """The short plenum presentation of a challenge's outcome."""

    challenge_id: str
    presenter_id: str
    quality: float  # in [0, 1]

    def __post_init__(self) -> None:
        if not 0.0 <= self.quality <= 1.0:
            raise ConfigurationError(
                f"pitch quality must be in [0,1], got {self.quality}"
            )


@dataclass(frozen=True)
class Demo:
    """A team's demonstrator with its four quality components.

    The components deliberately mirror the vote criteria (Sec. V-B):
    ``innovation`` <- team diversity and first-time tool/case pairings;
    ``exploitation`` <- owner fit (coverage with owner present);
    ``readiness`` <- completion and tool maturity;
    ``fun`` <- pitch quality and the team's remaining energy.
    """

    challenge_id: str
    team_member_ids: Tuple[str, ...]
    tool_ids: Tuple[str, ...]
    completion: float
    innovation: float
    exploitation: float
    readiness: float
    fun: float

    def __post_init__(self) -> None:
        for label in ("completion", "innovation", "exploitation", "readiness", "fun"):
            value = getattr(self, label)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(
                    f"{self.challenge_id}: {label} must be in [0,1], got {value}"
                )

    def quality(self, criterion: Criterion) -> float:
        """Quality component backing ``criterion``, in [0, 1]."""
        return {
            Criterion.TECHNICAL_INNOVATION: self.innovation,
            Criterion.EXPLOITATION_POTENTIAL: self.exploitation,
            Criterion.TECHNOLOGICAL_READINESS: self.readiness,
            Criterion.ENTERTAINMENT: self.fun,
        }[criterion]

    @property
    def overall_quality(self) -> float:
        return (self.innovation + self.exploitation + self.readiness + self.fun) / 4

    @property
    def is_convincing(self) -> bool:
        """"Convincing to continue further deeper investigations" (Sec. I).

        A demo is convincing when it is reasonably complete and at least
        one quality component stands out.
        """
        return self.completion >= 0.4 and self.overall_quality >= 0.45


def build_demo(
    team: Team,
    sessions: List[SessionResult],
    pitch: Pitch,
    mean_tool_trl: float,
    novel_pairing: bool,
) -> Demo:
    """Combine session results and the pitch into a :class:`Demo`.

    Parameters
    ----------
    mean_tool_trl:
        Mean TRL (1–9) of the tools the team used; feeds readiness.
    novel_pairing:
        True when the demo pairs a tool with a case study that never
        interacted before — an innovation bonus.
    """
    if not sessions:
        raise ConfigurationError(
            f"cannot build a demo for {team.challenge.challenge_id} "
            "without any work session"
        )
    completion = min(1.0, ordered_sum(s.progress for s in sessions))
    diversity_value = sessions[-1].diversity_value
    coverage = sessions[-1].coverage
    innovation = min(
        1.0, 0.6 * diversity_value + 0.25 * completion + (0.15 if novel_pairing else 0.0)
    )
    exploitation = min(
        1.0,
        (0.5 * coverage + 0.5 * completion)
        * (1.0 if team.has_owner_member() else 0.6),
    )
    readiness = min(1.0, completion * (0.4 + 0.6 * (mean_tool_trl / 9.0)))
    fun = min(1.0, 0.55 * pitch.quality + 0.45 * sessions[-1].mean_energy_after)
    return Demo(
        challenge_id=team.challenge.challenge_id,
        team_member_ids=tuple(team.member_ids),
        tool_ids=tuple(team.tool_ids),
        completion=completion,
        innovation=innovation,
        exploitation=exploitation,
        readiness=readiness,
        fun=fun,
    )


@dataclass
class HackathonOutcome:
    """Everything one hackathon event produced."""

    event_id: str
    challenges: List[Challenge] = field(default_factory=list)
    teams: List[Team] = field(default_factory=list)
    session_results: List[SessionResult] = field(default_factory=list)
    demos: List[Demo] = field(default_factory=list)
    pitches: List[Pitch] = field(default_factory=list)
    interactions: List[Interaction] = field(default_factory=list)
    scores: List[ChallengeScore] = field(default_factory=list)
    showcase_ids: List[str] = field(default_factory=list)
    followup_pairs: List[Tuple[str, str]] = field(default_factory=list)
    requirements_satisfied: List[str] = field(default_factory=list)
    applications_advanced: List[Tuple[str, str]] = field(default_factory=list)

    def demo_for(self, challenge_id: str) -> Optional[Demo]:
        for demo in self.demos:
            if demo.challenge_id == challenge_id:
                return demo
        return None

    def convincing_demos(self) -> List[Demo]:
        return [d for d in self.demos if d.is_convincing]

    def mean_completion(self) -> float:
        if not self.demos:
            return 0.0
        return ordered_sum(d.completion for d in self.demos) / len(self.demos)

    def score_table(self) -> List[Tuple[str, Dict[str, float]]]:
        """Per-challenge criterion means — the Fig. 2 data."""
        return [
            (score.challenge_id, {c: m for c, m in score.profile()})
            for score in self.scores
        ]
