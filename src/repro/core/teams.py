"""Team formation around challenges (start of the *during* phase).

Paper Sec. I: "Teams are then formed to address those challenges.  The
teams include tool/method providers, case study owners and
researchers/developers from other consortium members."

Three policies are provided:

* :class:`SubscriptionBasedFormation` — the paper's mechanism: owner
  members, subscribed-provider members, then volunteers.
* :class:`BalancedFormation` — an organiser-assigned alternative that
  greedily balances expertise coverage and organisation diversity but
  ignores subscriptions.
* :class:`RandomFormation` — the naive baseline for the ablation bench.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cognition.distance import team_diversity
from repro.cognition.knowledge import KnowledgeVector
from repro.consortium.member import Member
from repro.core.challenge import Challenge
from repro.core.subscription import SubscriptionBook
from repro.errors import ConfigurationError
from repro.numeric import ordered_sum
from repro.rng import RngHub

__all__ = [
    "Team",
    "TeamFormationPolicy",
    "SubscriptionBasedFormation",
    "BalancedFormation",
    "RandomFormation",
]


@dataclass
class Team:
    """A working group assembled around one challenge."""

    challenge: Challenge
    members: List[Member]
    tool_ids: Tuple[str, ...] = ()
    provider_org_ids: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.members:
            raise ConfigurationError(
                f"team for {self.challenge.challenge_id} has no members"
            )
        seen = set()
        for member in self.members:
            if member.member_id in seen:
                raise ConfigurationError(
                    f"member {member.member_id!r} assigned twice to team "
                    f"{self.challenge.challenge_id}"
                )
            seen.add(member.member_id)

    @property
    def member_ids(self) -> List[str]:
        return [m.member_id for m in self.members]

    @property
    def org_ids(self) -> List[str]:
        return sorted({m.org_id for m in self.members})

    def has_owner_member(self) -> bool:
        return any(m.org_id == self.challenge.owner_org_id for m in self.members)

    def has_provider_member(self) -> bool:
        providers = set(self.provider_org_ids)
        return any(m.org_id in providers for m in self.members)

    def pooled_knowledge(self) -> KnowledgeVector:
        return KnowledgeVector.pooled(m.knowledge for m in self.members)

    def coverage(self) -> float:
        """How well the team covers the challenge's required domains."""
        return self.pooled_knowledge().coverage_of(self.challenge.required_domains)

    def diversity(self) -> float:
        """Mean pairwise cognitive distance within the team."""
        return team_diversity([m.knowledge for m in self.members])

    def mean_energy(self) -> float:
        return ordered_sum(m.energy for m in self.members) / len(self.members)


class TeamFormationPolicy(abc.ABC):
    """Common interface: challenges + attendee pool -> disjoint teams."""

    #: Human-readable policy name used by the ablation bench.
    name: str = "abstract"

    def __init__(self, target_size: int = 5) -> None:
        if target_size < 2:
            raise ConfigurationError(
                f"target team size must be >= 2, got {target_size}"
            )
        self.target_size = target_size

    @abc.abstractmethod
    def form(
        self,
        challenges: Sequence[Challenge],
        attendees: Sequence[Member],
        book: Optional[SubscriptionBook],
        hub: RngHub,
    ) -> List[Team]:
        """Assign technical attendees to teams, one team per challenge.

        Attendees may remain unassigned (they watch demos and vote);
        each assigned member belongs to exactly one team.
        """

    @staticmethod
    def _technical_pool(attendees: Sequence[Member]) -> List[Member]:
        """Technical, non-burned-out attendees, in deterministic order."""
        pool = [m for m in attendees if m.is_technical and not m.is_burned_out]
        pool.sort(key=lambda m: m.member_id)
        return pool


class SubscriptionBasedFormation(TeamFormationPolicy):
    """The paper's team formation.

    For each challenge, in order: up to ``owner_slots`` technical
    members of the owning organisation, up to ``provider_slots``
    technical members of each subscribed provider, then volunteers
    (best knowledge match first) up to the target size.
    """

    name = "subscription"

    def __init__(
        self,
        target_size: int = 5,
        owner_slots: int = 2,
        provider_slots: int = 2,
    ) -> None:
        super().__init__(target_size)
        if owner_slots < 1 or provider_slots < 1:
            raise ConfigurationError("owner/provider slots must be >= 1")
        self.owner_slots = owner_slots
        self.provider_slots = provider_slots

    def form(
        self,
        challenges: Sequence[Challenge],
        attendees: Sequence[Member],
        book: Optional[SubscriptionBook],
        hub: RngHub,
    ) -> List[Team]:
        if book is None:
            raise ConfigurationError(
                "subscription-based formation requires a subscription book"
            )
        available = {m.member_id: m for m in self._technical_pool(attendees)}
        teams: List[Team] = []
        for challenge in challenges:
            providers = book.providers_for(challenge.challenge_id)
            members: List[Member] = []
            members += self._take_from_org(
                available, challenge.owner_org_id, self.owner_slots
            )
            for provider in providers:
                members += self._take_from_org(
                    available, provider, self.provider_slots
                )
            members += self._take_volunteers(
                available, challenge, self.target_size - len(members)
            )
            if members:
                teams.append(
                    Team(
                        challenge=challenge,
                        members=members,
                        tool_ids=tuple(book.tools_for(challenge.challenge_id)),
                        provider_org_ids=tuple(providers),
                    )
                )
        return teams

    @staticmethod
    def _take_from_org(
        available: Dict[str, Member], org_id: str, slots: int
    ) -> List[Member]:
        picked = []
        for member_id in sorted(available):
            if len(picked) >= slots:
                break
            if available[member_id].org_id == org_id:
                picked.append(available.pop(member_id))
        return picked

    def _take_volunteers(
        self, available: Dict[str, Member], challenge: Challenge, slots: int
    ) -> List[Member]:
        if slots <= 0:
            return []
        candidates = sorted(
            available.values(),
            key=lambda m: (
                -m.knowledge.coverage_of(challenge.required_domains),
                m.member_id,
            ),
        )
        picked = candidates[:slots]
        for member in picked:
            available.pop(member.member_id)
        return picked


class BalancedFormation(TeamFormationPolicy):
    """Greedy organiser assignment balancing coverage and diversity.

    Iterates challenges round-robin, each time adding the available
    member that most improves the team's coverage of the challenge's
    domains, breaking ties toward members from organisations not yet in
    the team.  Ignores subscriptions entirely.
    """

    name = "balanced"

    def form(
        self,
        challenges: Sequence[Challenge],
        attendees: Sequence[Member],
        book: Optional[SubscriptionBook],
        hub: RngHub,
    ) -> List[Team]:
        available = {m.member_id: m for m in self._technical_pool(attendees)}
        rosters: Dict[str, List[Member]] = {c.challenge_id: [] for c in challenges}
        for _ in range(self.target_size):
            for challenge in challenges:
                if not available:
                    break
                roster = rosters[challenge.challenge_id]
                best = self._best_addition(roster, challenge, available)
                if best is not None:
                    roster.append(available.pop(best.member_id))
        teams = []
        for challenge in challenges:
            roster = rosters[challenge.challenge_id]
            if roster:
                tool_ids = tuple(book.tools_for(challenge.challenge_id)) if book else ()
                providers = (
                    tuple(book.providers_for(challenge.challenge_id)) if book else ()
                )
                teams.append(
                    Team(
                        challenge=challenge,
                        members=roster,
                        tool_ids=tool_ids,
                        provider_org_ids=providers,
                    )
                )
        return teams

    @staticmethod
    def _best_addition(
        roster: List[Member], challenge: Challenge, available: Dict[str, Member]
    ) -> Optional[Member]:
        if not available:
            return None
        pooled = KnowledgeVector.pooled(m.knowledge for m in roster)
        base = pooled.coverage_of(challenge.required_domains)
        orgs = {m.org_id for m in roster}

        def gain(member: Member) -> Tuple[float, int, str]:
            merged = KnowledgeVector.pooled([pooled, member.knowledge])
            improvement = merged.coverage_of(challenge.required_domains) - base
            new_org = 1 if member.org_id not in orgs else 0
            # Sort ascending on member_id for determinism.
            return (-improvement, -new_org, member.member_id)

        return min(available.values(), key=gain)


class RandomFormation(TeamFormationPolicy):
    """Uniform random assignment — the ablation baseline."""

    name = "random"

    def form(
        self,
        challenges: Sequence[Challenge],
        attendees: Sequence[Member],
        book: Optional[SubscriptionBook],
        hub: RngHub,
    ) -> List[Team]:
        rng = hub.stream("teams.random")
        pool = self._technical_pool(attendees)
        rng.shuffle(pool)
        teams: List[Team] = []
        cursor = 0
        for challenge in challenges:
            roster = pool[cursor : cursor + self.target_size]
            cursor += self.target_size
            if roster:
                tool_ids = tuple(book.tools_for(challenge.challenge_id)) if book else ()
                providers = (
                    tuple(book.providers_for(challenge.challenge_id)) if book else ()
                )
                teams.append(
                    Team(
                        challenge=challenge,
                        members=roster,
                        tool_ids=tool_ids,
                        provider_org_ids=providers,
                    )
                )
        return teams
