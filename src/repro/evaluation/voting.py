"""The anonymous challenge-evaluation voting system.

After the hackathon sessions, "all plenary participants are asked to
evaluate the results of each challenge using an anonymous online voting
system" on four aspects (paper Sec. V-B): technical innovation,
exploitation potential, technological readiness, and entertainment.
:class:`VotingSystem` implements that ballot box: scores 0–5 per
criterion, one ballot per voter per challenge, voter identities hashed
away before storage.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.errors import VotingError
from repro.numeric import ordered_sum

__all__ = ["Criterion", "Ballot", "ChallengeScore", "VotingSystem", "MAX_SCORE"]

MAX_SCORE = 5


class Criterion(enum.Enum):
    """The four evaluation aspects of Sec. V-B."""

    TECHNICAL_INNOVATION = "technical_innovation"
    EXPLOITATION_POTENTIAL = "exploitation_potential"
    TECHNOLOGICAL_READINESS = "technological_readiness"
    ENTERTAINMENT = "entertainment"

    @property
    def question(self) -> str:
        return _QUESTIONS[self]


#: Canonical criterion order, hoisted once — ballot validation runs per
#: (voter, challenge) pair and re-iterating the enum class is measurable.
_CRITERIA: Tuple[Criterion, ...] = tuple(Criterion)

_QUESTIONS: Dict[Criterion, str] = {
    Criterion.TECHNICAL_INNOVATION: (
        "How novel is the presented result — a breakthrough or an evolution?"
    ),
    Criterion.EXPLOITATION_POTENTIAL: (
        "Can this demo be a step to generate revenues, foster market access "
        "and help case-study providers improve their developments?"
    ),
    Criterion.TECHNOLOGICAL_READINESS: (
        "Does the team work look like a finished demonstration we can reuse?"
    ),
    Criterion.ENTERTAINMENT: (
        "Is the result presented in a way that is both instructive and easy "
        "to digest?"
    ),
}


@dataclass(frozen=True)
class Ballot:
    """One anonymous ballot: integer scores 0–5 on every criterion."""

    challenge_id: str
    scores: Mapping[Criterion, int]

    def __post_init__(self) -> None:
        missing = [c for c in _CRITERIA if c not in self.scores]
        if missing:
            raise VotingError(
                f"ballot for {self.challenge_id!r} missing criteria: "
                f"{[c.value for c in missing]}"
            )
        for criterion, score in self.scores.items():
            if not isinstance(score, int) or not 0 <= score <= MAX_SCORE:
                raise VotingError(
                    f"score for {criterion.value} must be an int in "
                    f"[0,{MAX_SCORE}], got {score!r}"
                )


@dataclass(frozen=True)
class ChallengeScore:
    """Aggregated result of one challenge's ballots."""

    challenge_id: str
    ballots: int
    means: Mapping[Criterion, float]

    @property
    def overall(self) -> float:
        """Unweighted mean over the four criteria."""
        return ordered_sum(self.means.values()) / len(self.means)

    def profile(self) -> List[Tuple[str, float]]:
        """(criterion, mean) rows in canonical order — the Fig. 2 data."""
        return [(c.value, self.means[c]) for c in Criterion]


class VotingSystem:
    """Anonymous ballot box for one hackathon's challenges.

    Voter ids are hashed (salted with the system's event id) purely to
    enforce one-ballot-per-voter-per-challenge; the stored ballots carry
    no voter information.
    """

    def __init__(self, event_id: str, challenge_ids: Iterable[str]) -> None:
        self._event_id = event_id
        self._challenges = sorted(set(challenge_ids))
        if not self._challenges:
            raise VotingError("a voting system needs at least one challenge")
        self._ballots: Dict[str, List[Ballot]] = {c: [] for c in self._challenges}
        self._seen_tokens: set = set()

    @property
    def challenge_ids(self) -> List[str]:
        return list(self._challenges)

    def _token(self, voter_id: str, challenge_id: str) -> str:
        raw = f"{self._event_id}|{voter_id}|{challenge_id}"
        return hashlib.blake2b(raw.encode("utf-8"), digest_size=12).hexdigest()

    def cast(
        self, voter_id: str, challenge_id: str, scores: Mapping[Criterion, int]
    ) -> None:
        """Record a ballot; rejects unknown challenges and double votes."""
        if challenge_id not in self._ballots:
            raise VotingError(f"unknown challenge {challenge_id!r}")
        token = self._token(voter_id, challenge_id)
        if token in self._seen_tokens:
            raise VotingError(
                f"voter has already cast a ballot for {challenge_id!r}"
            )
        ballot = Ballot(challenge_id=challenge_id, scores=dict(scores))
        self._seen_tokens.add(token)
        self._ballots[challenge_id].append(ballot)

    def ballot_count(self, challenge_id: Optional[str] = None) -> int:
        if challenge_id is None:
            return sum(len(b) for b in self._ballots.values())
        if challenge_id not in self._ballots:
            raise VotingError(f"unknown challenge {challenge_id!r}")
        return len(self._ballots[challenge_id])

    def results(self, challenge_id: str) -> ChallengeScore:
        """Aggregate one challenge's ballots (zero means if no ballots)."""
        if challenge_id not in self._ballots:
            raise VotingError(f"unknown challenge {challenge_id!r}")
        ballots = self._ballots[challenge_id]
        if not ballots:
            means = {c: 0.0 for c in Criterion}
        else:
            means = {
                c: ordered_sum(b.scores[c] for b in ballots) / len(ballots)
                for c in Criterion
            }
        return ChallengeScore(
            challenge_id=challenge_id, ballots=len(ballots), means=means
        )

    def ranking(self) -> List[ChallengeScore]:
        """All challenges sorted by overall score, best first."""
        scores = [self.results(c) for c in self._challenges]
        scores.sort(key=lambda s: (-s.overall, s.challenge_id))
        return scores

    def winners(self, k: int = 1) -> List[ChallengeScore]:
        """The top-``k`` challenges — "selected as showcases"."""
        if k < 1:
            raise VotingError(f"k must be >= 1, got {k}")
        return self.ranking()[:k]
