"""Time-boxed hackathon work sessions.

The paper's format is two sessions of four hours each.  A
:class:`WorkSession` converts a team + challenge + duration into
*progress* using the productivity model described in DESIGN.md:

* **coverage** — the team's pooled expertise over the required domains,
* **diversity value** — the inverted-U learning value of the team's
  cognitive diversity (a bit of distance helps, too much hurts),
* **preparedness** — challenges announced with concrete artefacts start
  faster,
* **fatigue** — productivity per hour declines as the session stretches
  and as members run out of energy (the burnout mechanism).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

from repro.cognition.learning import LearningModel
from repro.core.teams import Team
from repro.errors import ConfigurationError
from repro.network.dynamics import Interaction
from repro.rng import RngHub

__all__ = ["SessionResult", "WorkSession"]


@dataclass(frozen=True)
class SessionResult:
    """What one team produced in one time-boxed session."""

    challenge_id: str
    hours: float
    progress: float  # increment toward completion, in [0, 1]
    coverage: float
    diversity_value: float
    mean_energy_after: float
    interactions: List[Interaction] = field(default_factory=list)


class WorkSession:
    """Simulates one time-boxed session for one team.

    Parameters
    ----------
    productivity_per_hour:
        Progress an ideal team (coverage 1, peak diversity, fresh) makes
        per hour.  With the default 0.18, a good team completes most of
        a well-scoped challenge in the paper's 2 x 4 h.
    fatigue_halflife_hours:
        Hours of continuous work after which hourly productivity halves.
    energy_drain_per_hour:
        Energy each member loses per session hour — the burnout dial.
    noise_sd:
        Multiplicative log-normal-ish noise on the session's progress.
    """

    def __init__(
        self,
        hub: RngHub,
        productivity_per_hour: float = 0.18,
        fatigue_halflife_hours: float = 6.0,
        energy_drain_per_hour: float = 0.05,
        noise_sd: float = 0.1,
        learning: Optional[LearningModel] = None,
    ) -> None:
        if productivity_per_hour <= 0:
            raise ConfigurationError(
                f"productivity_per_hour must be > 0, got {productivity_per_hour}"
            )
        if fatigue_halflife_hours <= 0:
            raise ConfigurationError(
                f"fatigue_halflife_hours must be > 0, got {fatigue_halflife_hours}"
            )
        if energy_drain_per_hour < 0:
            raise ConfigurationError(
                f"energy_drain_per_hour must be >= 0, got {energy_drain_per_hour}"
            )
        if noise_sd < 0:
            raise ConfigurationError(f"noise_sd must be >= 0, got {noise_sd}")
        self._rng = hub.stream("worksession")
        self.productivity_per_hour = productivity_per_hour
        self.fatigue_halflife_hours = fatigue_halflife_hours
        self.energy_drain_per_hour = energy_drain_per_hour
        self.noise_sd = noise_sd
        self.learning = learning or LearningModel()

    def hourly_productivity(self, team: Team, hour_index: int) -> float:
        """Expected progress in the ``hour_index``-th hour (0-based)."""
        fatigue = 0.5 ** (hour_index / self.fatigue_halflife_hours)
        return (
            self.productivity_per_hour
            * (0.3 + 0.7 * team.coverage())
            * (0.5 + 0.5 * self.learning.learning_value(team.diversity()))
            * team.challenge.preparedness
            * fatigue
            * team.mean_energy()
            * (1.0 - 0.5 * team.challenge.difficulty)
        )

    def run(self, team: Team, hours: float) -> SessionResult:
        """Simulate one team's session hour by hour.

        Each hour adds productivity-model progress, drains member
        energy, and generates pairwise team interactions of hackathon
        intensity.  Progress noise is applied once at the end.
        """
        if hours <= 0:
            raise ConfigurationError(f"session hours must be > 0, got {hours}")
        return self._run_team(
            team, hours, float(self._rng.normal(0.0, self.noise_sd))
        )

    def run_many(self, teams: List[Team], hours: float) -> List[SessionResult]:
        """One session round for every team.

        Bit-equal to ``[self.run(team, hours) for team in teams]``: the
        per-team progress noise is drawn as one vector, and the
        generator consumes ``normal(size=T)`` exactly as T sequential
        scalar draws; the hour loops between those draws touch no RNG.
        """
        if hours <= 0:
            raise ConfigurationError(f"session hours must be > 0, got {hours}")
        noises = self._rng.normal(0.0, self.noise_sd, size=len(teams))
        return [
            self._run_team(team, hours, float(noise))
            for team, noise in zip(teams, noises)
        ]

    def _run_team(
        self, team: Team, hours: float, noise_value: float
    ) -> SessionResult:
        """One team's session with the noise draw supplied by the caller.

        Coverage and diversity depend only on team knowledge, which is
        constant within one session (exchanges apply afterwards at the
        plenary level), so they are hoisted out of the hour loop, and
        energies live in a local list instead of round-tripping every
        read and drain through the member objects.
        ``tests/oracles.py`` keeps the member-by-member hour loop as the
        reference.
        """
        members = team.members
        count = len(members)
        energies = [m.energy for m in members]
        ids = [m.member_id for m in members]
        coverage = team.coverage()
        diversity_value = self.learning.learning_value(team.diversity())
        # Identical grouping to hourly_productivity's product chain:
        # the first four (hour-invariant) factors fold into a prefix,
        # the remaining multiplies keep its left association.
        prefix = (
            self.productivity_per_hour
            * (0.3 + 0.7 * coverage)
            * (0.5 + 0.5 * diversity_value)
            * team.challenge.preparedness
        )
        difficulty_factor = 1.0 - 0.5 * team.challenge.difficulty
        halflife = self.fatigue_halflife_hours
        context = f"hackathon:{team.challenge.challenge_id}"
        progress = 0.0
        interactions: List[Interaction] = []
        append = interactions.append
        for hour in range(int(math.ceil(hours))):
            slice_hours = min(1.0, hours - hour)
            fatigue = 0.5 ** (hour / halflife)
            energy = sum(energies) / count
            progress += (
                prefix * fatigue * energy * difficulty_factor
            ) * slice_hours
            drain = self.energy_drain_per_hour * slice_hours
            energies = [max(0.0, e - drain) for e in energies]
            for i in range(count - 1):
                energy_i = energies[i]
                id_i = ids[i]
                for j in range(i + 1, count):
                    pair_energy = 0.5 * (energy_i + energies[j])
                    append(
                        Interaction(
                            member_a=id_i,
                            member_b=ids[j],
                            intensity=slice_hours * (0.5 + 0.5 * pair_energy),
                            context=context,
                        )
                    )
        for member, energy in zip(members, energies):
            member.energy = energy
        noise = 1.0 + noise_value
        progress = max(0.0, min(1.0, progress * max(0.1, noise)))
        return SessionResult(
            challenge_id=team.challenge.challenge_id,
            hours=hours,
            progress=progress,
            coverage=coverage,
            diversity_value=diversity_value,
            mean_energy_after=sum(energies) / count,
            interactions=interactions,
        )
