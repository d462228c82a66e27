"""The internal hackathon event — before / during / after orchestration.

This is the paper's contribution, end to end (Sec. V):

* **before** — the call for challenges goes out, case-study owners
  submit time-boxed challenges, tool providers subscribe;
* **during** — morning pitches, team formation, parallel time-boxed
  work sessions (the paper used 2 x 4 h);
* **after** — plenum demos, anonymous four-criteria voting, showcase
  selection, follow-up plans, and framework progress updates.

:class:`HackathonEvent` can run standalone (:meth:`run`) or be plugged
into a :class:`~repro.meetings.plenary.PlenaryMeeting` as its hackathon
handler (:meth:`as_handler` + :meth:`finalize`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.consortium.consortium import Consortium
from repro.consortium.member import Member
from repro.core.challenge import ChallengeCall, generate_challenges
from repro.core.followup import FollowUpRegistry
from repro.core.outcomes import Demo, HackathonOutcome, Pitch, build_demo
from repro.core.prerequisites import PrerequisiteChecker, PrerequisiteReport
from repro.core.session import SessionResult, WorkSession
from repro.core.subscription import SubscriptionBook, auto_subscribe
from repro.core.teams import (
    SubscriptionBasedFormation,
    Team,
    TeamFormationPolicy,
)
from repro.errors import ConfigurationError, SimulationError
from repro.evaluation.voting import (
    MAX_SCORE,
    ChallengeScore,
    Criterion,
)
from repro.framework.catalog import FrameworkModel
from repro.framework.integration import AdoptionState
from repro.meetings.agenda import AgendaItem
from repro.network.dynamics import Interaction
from repro.numeric import ordered_sum
from repro.rng import RngHub

__all__ = ["HackathonConfig", "HackathonEvent"]


@dataclass(frozen=True)
class HackathonConfig:
    """Tunable knobs of one hackathon event.

    Defaults reproduce the paper's setup: 4-hour time box, two working
    sessions, one challenge per case study, subscription-based teams,
    competition with small prizes, and follow-up plans for convincing
    demos.
    """

    event_id: str
    time_box_hours: float = 4.0
    sessions: int = 2
    per_owner_challenges: int = 1
    max_challenges: Optional[int] = None
    has_prizes: bool = True
    showcase_count: int = 3
    followup_enabled: bool = True
    followup_horizon_months: float = 6.0
    vote_noise_sd: float = 0.6
    strict_prerequisites: bool = False

    def __post_init__(self) -> None:
        if not self.event_id:
            raise ConfigurationError("event id must be non-empty")
        if self.time_box_hours <= 0:
            raise ConfigurationError(
                f"time_box_hours must be > 0, got {self.time_box_hours}"
            )
        if self.sessions < 1:
            raise ConfigurationError(f"sessions must be >= 1, got {self.sessions}")
        if self.showcase_count < 1:
            raise ConfigurationError(
                f"showcase_count must be >= 1, got {self.showcase_count}"
            )
        if self.vote_noise_sd < 0:
            raise ConfigurationError(
                f"vote_noise_sd must be >= 0, got {self.vote_noise_sd}"
            )


class HackathonEvent:
    """Orchestrates one internal hackathon over a consortium + framework."""

    def __init__(
        self,
        consortium: Consortium,
        framework: FrameworkModel,
        hub: RngHub,
        config: HackathonConfig,
        team_policy: Optional[TeamFormationPolicy] = None,
        work_session: Optional[WorkSession] = None,
        followups: Optional[FollowUpRegistry] = None,
        checker: Optional[PrerequisiteChecker] = None,
    ) -> None:
        self.consortium = consortium
        self.framework = framework
        self.config = config
        self._hub = hub
        self._rng = hub.stream(f"event.{config.event_id}")
        self.team_policy = team_policy or SubscriptionBasedFormation()
        self.work_session = work_session or WorkSession(hub)
        self.followups = followups if followups is not None else FollowUpRegistry()
        self.checker = checker or PrerequisiteChecker()

        self.call: Optional[ChallengeCall] = None
        self.book: Optional[SubscriptionBook] = None
        self.teams: Optional[List[Team]] = None
        self.prerequisite_reports: List[PrerequisiteReport] = []
        self._attendees: List[Member] = []
        self._sessions_by_team: Dict[str, List[SessionResult]] = {}
        self._rounds_run = 0
        self._outcome: Optional[HackathonOutcome] = None

    # -- before phase ---------------------------------------------------------

    def run_before(self) -> Tuple[ChallengeCall, SubscriptionBook]:
        """Issue the call, collect challenges and subscriptions."""
        if self.call is not None:
            raise SimulationError("before phase already ran")
        self.call = ChallengeCall(
            event_id=self.config.event_id,
            time_box_hours=self.config.time_box_hours,
            max_challenges=self.config.max_challenges,
        )
        generate_challenges(
            self.consortium,
            self.framework,
            self._hub,
            self.call,
            per_owner=self.config.per_owner_challenges,
        )
        self.call.close()
        self.book = SubscriptionBook(self.call, self.framework)
        auto_subscribe(self.consortium, self.framework, self.book, self._hub)
        return self.call, self.book

    # -- during phase ---------------------------------------------------------

    def form_teams(self, attendees: Sequence[Member]) -> List[Team]:
        """Morning of the event: pitches heard, teams formed."""
        if self.call is None or self.book is None:
            raise SimulationError("run_before() must run before team formation")
        if self.teams is not None:
            raise SimulationError("teams already formed")
        self._attendees = list(attendees)
        self.teams = self.team_policy.form(
            self.call.challenges, attendees, self.book, self._hub
        )
        self._sessions_by_team = {
            t.challenge.challenge_id: [] for t in self.teams
        }
        self.prerequisite_reports = self.checker.check_all(
            attendees=self._attendees,
            call=self.call,
            book=self.book,
            teams=self.teams,
            has_prizes=self.config.has_prizes,
            time_box_hours=self.config.time_box_hours,
        )
        if self.config.strict_prerequisites:
            self.checker.enforce(self.prerequisite_reports)
        return self.teams

    def run_session_round(self, hours: Optional[float] = None) -> List[Interaction]:
        """One parallel working session for every team.

        Returns the interactions generated, so a plenary meeting can
        feed them into the network/learning machinery it owns.
        """
        if self.teams is None:
            raise SimulationError("form_teams() must run before sessions")
        hours = hours if hours is not None else self.config.time_box_hours
        interactions: List[Interaction] = []
        results = self.work_session.run_many(self.teams, hours)
        for team, result in zip(self.teams, results):
            self._sessions_by_team[team.challenge.challenge_id].append(result)
            interactions.extend(result.interactions)
        self._rounds_run += 1
        return interactions

    # -- after phase ------------------------------------------------------------

    def finalize(self, voters: Optional[Sequence[Member]] = None) -> HackathonOutcome:
        """Plenum demos, voting, showcases, follow-ups, framework updates."""
        if self.teams is None:
            raise SimulationError("cannot finalize before teams were formed")
        if self._rounds_run == 0:
            raise SimulationError("cannot finalize before any work session ran")
        if self._outcome is not None:
            raise SimulationError("event already finalized")
        voters = list(voters) if voters is not None else list(self._attendees)

        outcome = HackathonOutcome(event_id=self.config.event_id)
        outcome.challenges = list(self.call.challenges)
        outcome.teams = list(self.teams)

        demos, pitches = self._build_demos()
        outcome.demos = demos
        outcome.pitches = pitches
        for results in self._sessions_by_team.values():
            outcome.session_results.extend(results)
            for result in results:
                outcome.interactions.extend(result.interactions)

        if demos:
            ranking = self._tally_votes(demos, voters)
            outcome.scores = ranking
            outcome.showcase_ids = [
                s.challenge_id
                for s in ranking[: min(self.config.showcase_count, len(demos))]
            ]

        self._apply_framework_progress(outcome)
        if self.config.followup_enabled:
            self._open_followups(outcome)
        self._outcome = outcome
        return outcome

    @property
    def outcome(self) -> HackathonOutcome:
        if self._outcome is None:
            raise SimulationError("event not finalized yet")
        return self._outcome

    # -- plenary integration ----------------------------------------------------

    def as_handler(self):
        """Adapter for :class:`~repro.meetings.plenary.PlenaryMeeting`.

        The returned callable lazily runs the before phase and team
        formation on the first hackathon agenda item, then runs one
        session round per item, returning its interactions.  Call
        :meth:`finalize` after the meeting completes.
        """

        def handler(item: AgendaItem, attendees: List[Member]) -> List[Interaction]:
            if self.call is None:
                self.run_before()
            if self.teams is None:
                self.form_teams(attendees)
            return self.run_session_round(item.hours)

        return handler

    def run(self, attendees: Sequence[Member]) -> HackathonOutcome:
        """Run the whole event standalone (no surrounding plenary)."""
        self.run_before()
        self.form_teams(attendees)
        for _ in range(self.config.sessions):
            self.run_session_round()
        return self.finalize(attendees)

    # -- internals ---------------------------------------------------------------

    def _build_demos(self) -> Tuple[List[Demo], List[Pitch]]:
        demos: List[Demo] = []
        pitches: List[Pitch] = []
        for team in self.teams:
            sessions = self._sessions_by_team[team.challenge.challenge_id]
            if not sessions:
                continue
            presenter = max(
                team.members, key=lambda m: (m.presentation_skill, m.member_id)
            )
            completion = min(1.0, ordered_sum(s.progress for s in sessions))
            pitch_quality = float(
                np.clip(
                    0.55 * presenter.presentation_skill
                    + 0.35 * completion
                    + self._rng.normal(0.0, 0.05),
                    0.0,
                    1.0,
                )
            )
            pitch = Pitch(
                challenge_id=team.challenge.challenge_id,
                presenter_id=presenter.member_id,
                quality=pitch_quality,
            )
            tools = [self.framework.tool(t) for t in team.tool_ids]
            mean_trl = (
                ordered_sum(t.trl for t in tools) / len(tools)
                if tools else 3.0
            )
            case_id = team.challenge.case_id
            novel = bool(tools) and all(
                self.framework.matrix.state(t.tool_id, case_id)
                is AdoptionState.NOT_STARTED
                for t in tools
            )
            demos.append(build_demo(team, sessions, pitch, mean_trl, novel))
            pitches.append(pitch)
        return demos, pitches

    def _tally_votes(
        self, demos: Sequence[Demo], voters: Sequence[Member]
    ) -> List[ChallengeScore]:
        """Anonymous four-criteria voting: every ballot sheet in one draw.

        Bit-equal to casting each voter's sheet into a
        :class:`~repro.evaluation.voting.VotingSystem` and ranking it:
        a ``(V, D, C)`` normal draw consumes the event stream exactly as
        V sequential ``(D, C)`` draws would, the integer score sheets
        (``np.rint`` rounds half-to-even like builtin ``round``) are
        tallied as exact integer sums, and each criterion mean is the
        same single ``total / ballots`` division the ballot box performs
        on its sum of int scores.  ``tests/oracles.py`` keeps the ballot
        box version as the reference.
        """
        criteria = list(Criterion)
        base = np.array(
            [
                [demo.quality(criterion) * 5.0 for criterion in criteria]
                for demo in demos
            ]
        )
        votes = len(voters)
        if votes:
            raw = self._rng.normal(
                0.0, self.config.vote_noise_sd, size=(votes,) + base.shape
            )
            raw += base
            np.rint(raw, out=raw)
            np.clip(raw, 0, MAX_SCORE, out=raw)
            totals = raw.astype(int).sum(axis=0).tolist()
        else:
            totals = None
        row_of = {demo.challenge_id: i for i, demo in enumerate(demos)}
        scores = []
        for challenge_id in sorted(row_of):
            if totals is None:
                means = {criterion: 0.0 for criterion in criteria}
            else:
                row = totals[row_of[challenge_id]]
                means = {
                    criterion: row[index] / votes
                    for index, criterion in enumerate(criteria)
                }
            scores.append(
                ChallengeScore(
                    challenge_id=challenge_id, ballots=votes, means=means
                )
            )
        scores.sort(key=lambda s: (-s.overall, s.challenge_id))
        return scores

    def _apply_framework_progress(self, outcome: HackathonOutcome) -> None:
        """Demos advance the tool/case matrix, requirements and TRLs."""
        for demo in outcome.demos:
            team = next(
                t for t in outcome.teams
                if t.challenge.challenge_id == demo.challenge_id
            )
            case_id = team.challenge.case_id
            case = self.framework.case_study(case_id)
            for tool_id in team.tool_ids:
                self.framework.matrix.advance(
                    tool_id, case_id, AdoptionState.EXPLORED
                )
                outcome.applications_advanced.append((tool_id, case_id))
                if demo.is_convincing:
                    self.framework.matrix.advance(
                        tool_id, case_id, AdoptionState.PILOTED
                    )
                    if demo.readiness > 0.7:
                        self.framework.tool(tool_id).mature()
            case.advance_baseline(0.2 * demo.completion)
            if demo.is_convincing:
                tool_domains = set()
                for tool_id in team.tool_ids:
                    tool_domains.update(self.framework.tool(tool_id).domains)
                satisfied = self.framework.requirements.satisfy_matching(
                    case_id,
                    tool_domains,
                    count=int(round(2 * demo.completion)),
                )
                outcome.requirements_satisfied.extend(satisfied)

    def _open_followups(self, outcome: HackathonOutcome) -> None:
        for demo in outcome.convincing_demos():
            team = next(
                t for t in outcome.teams
                if t.challenge.challenge_id == demo.challenge_id
            )
            plan = self.followups.open_for_team(
                team, demo, horizon_months=self.config.followup_horizon_months
            )
            outcome.followup_pairs.extend(sorted(plan.member_pairs))
