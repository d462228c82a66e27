"""Reference kernels: the straightforward versions of the fast paths.

The simulator runs one engine whose hot kernels are written for speed:
``WorkSession.run_many`` (one noise draw per round, local energy
lists), ``HackathonEvent._tally_votes`` (every ballot sheet in one
draw), ``PlenarySurvey.collect`` (one stacked draw and ``exp``) and the
incremental :func:`~repro.network.metrics.compute_metrics`.  Each is
bit-equal to a plainer formulation by construction; this module keeps
those formulations as oracles, and :class:`ReferenceRunner` swaps all of
them into a :class:`~repro.simulation.runner.LongitudinalRunner`, so a
whole run can be checked against the production engine KPI for KPI.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, List, Sequence
from unittest import mock

import networkx as nx
import numpy as np

import repro.simulation.runner as runner_module
from repro.consortium.member import Member
from repro.core.event import HackathonEvent
from repro.core.outcomes import Demo
from repro.core.session import SessionResult, WorkSession
from repro.core.teams import Team
from repro.errors import ConfigurationError
from repro.evaluation.survey import PlenarySurvey, SurveyOutcome
from repro.evaluation.voting import (
    MAX_SCORE,
    ChallengeScore,
    Criterion,
    VotingSystem,
)
from repro.meetings.engagement import EngagementRecord
from repro.meetings.plenary import MeetingResult
from repro.network.dynamics import Interaction
from repro.network.graph import CollaborationNetwork
from repro.network.metrics import NetworkMetrics
from repro.simulation.experiment import extract_metrics
from repro.simulation.runner import LongitudinalRunner
from repro.simulation.scenario import PlenarySpec, Scenario

# -- work sessions ----------------------------------------------------------


def work_session_run(
    session: WorkSession, team: Team, hours: float
) -> SessionResult:
    """One team's session, hour by hour through the member objects."""
    if hours <= 0:
        raise ConfigurationError(f"session hours must be > 0, got {hours}")
    progress = 0.0
    interactions: List[Interaction] = []
    coverage = team.coverage()
    diversity_value = session.learning.learning_value(team.diversity())
    for hour in range(int(math.ceil(hours))):
        slice_hours = min(1.0, hours - hour)
        progress += session.hourly_productivity(team, hour) * slice_hours
        for member in team.members:
            member.drain_energy(session.energy_drain_per_hour * slice_hours)
        members = team.members
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                pair_energy = 0.5 * (members[i].energy + members[j].energy)
                interactions.append(
                    Interaction(
                        member_a=members[i].member_id,
                        member_b=members[j].member_id,
                        intensity=slice_hours * (0.5 + 0.5 * pair_energy),
                        context=f"hackathon:{team.challenge.challenge_id}",
                    )
                )
    noise = 1.0 + session._rng.normal(0.0, session.noise_sd)
    progress = max(0.0, min(1.0, progress * max(0.1, noise)))
    return SessionResult(
        challenge_id=team.challenge.challenge_id,
        hours=hours,
        progress=progress,
        coverage=coverage,
        diversity_value=diversity_value,
        mean_energy_after=team.mean_energy(),
        interactions=interactions,
    )


class ReferenceWorkSession(WorkSession):
    def run_many(self, teams: List[Team], hours: float) -> List[SessionResult]:
        return [work_session_run(self, team, hours) for team in teams]


# -- voting -----------------------------------------------------------------


def run_voting(
    event: HackathonEvent, demos: Sequence[Demo], voters: Sequence[Member]
) -> VotingSystem:
    """Cast every voter's sheet into the anonymous ballot box."""
    voting = VotingSystem(
        event_id=event.config.event_id,
        challenge_ids=[d.challenge_id for d in demos],
    )
    criteria = list(Criterion)
    base = np.array(
        [
            [demo.quality(criterion) * 5.0 for criterion in criteria]
            for demo in demos
        ]
    )
    for voter in voters:
        raw = event._rng.normal(
            0.0, event.config.vote_noise_sd, size=base.shape
        )
        raw += base
        np.rint(raw, out=raw)
        np.clip(raw, 0, MAX_SCORE, out=raw)
        sheet = raw.astype(int).tolist()
        for demo, row in zip(demos, sheet):
            voting.cast(voter.member_id, demo.challenge_id,
                        dict(zip(criteria, row)))
    return voting


class ReferenceHackathonEvent(HackathonEvent):
    def _tally_votes(
        self, demos: Sequence[Demo], voters: Sequence[Member]
    ) -> List[ChallengeScore]:
        return run_voting(self, demos, voters).ranking()


# -- surveys ----------------------------------------------------------------


def _pick_best_parts(
    survey: PlenarySurvey, records: List[EngagementRecord]
) -> List[str]:
    titles = [r.item_title for r in records]
    weights = np.exp(
        survey.sharpness * np.array([r.engagement for r in records])
    )
    k = min(survey.votes_per_respondent, len(titles))
    chosen: List[str] = []
    for _ in range(k):
        total = weights.sum()
        if total <= 0:
            break
        cdf = (weights / total).cumsum()
        cdf /= cdf[-1]
        idx = int(cdf.searchsorted(survey._rng.random(), side="right"))
        chosen.append(titles[idx])
        weights[idx] = 0.0
    return chosen


def survey_collect(
    survey: PlenarySurvey, result: MeetingResult
) -> SurveyOutcome:
    """Survey respondent by respondent, one scalar draw at a time."""
    per_member: Dict[str, List[EngagementRecord]] = {}
    for rec in result.engagement_records:
        per_member.setdefault(rec.member_id, []).append(rec)
    votes: Counter = Counter()
    significant_yes = 0
    continue_yes = 0
    for member_id in sorted(per_member):
        records = per_member[member_id]
        for title in _pick_best_parts(survey, records):
            votes[title] += 1
        mean_engagement = sum(r.engagement for r in records) / len(records)
        peak_engagement = max(r.engagement for r in records)
        p_yes = survey._opinion_probability(
            0.5 * mean_engagement + 0.5 * peak_engagement
        )
        if survey._rng.random() < p_yes:
            significant_yes += 1
        if survey._rng.random() < p_yes:
            continue_yes += 1
    respondents = len(per_member)
    return SurveyOutcome(
        respondents=respondents,
        best_part_votes=dict(votes),
        progress_significant_fraction=(
            significant_yes / respondents if respondents else 0.0
        ),
        continue_fraction=(continue_yes / respondents if respondents else 0.0),
    )


class ReferencePlenarySurvey(PlenarySurvey):
    def collect(self, result: MeetingResult) -> SurveyOutcome:
        return survey_collect(self, result)


# -- network metrics --------------------------------------------------------


def compute_metrics_oracle(network: CollaborationNetwork) -> NetworkMetrics:
    """The networkx implementation of ``compute_metrics``."""
    ties = network.ties()
    g = nx.Graph()
    g.add_nodes_from(network.member_ids)
    for a, b, w in ties:
        g.add_edge(a, b, weight=w)
    n = g.number_of_nodes()
    inter = network.inter_org_ties()
    components = list(nx.connected_components(g)) if n else []
    largest = max((len(c) for c in components), default=0)
    return NetworkMetrics(
        members=n,
        ties=len(ties),
        inter_org_ties=len(inter),
        density=nx.density(g) if n > 1 else 0.0,
        components=len(components),
        largest_component_fraction=(largest / n) if n else 0.0,
        mean_tie_strength=(
            sum(w for _, _, w in ties) / len(ties) if ties else 0.0
        ),
        inter_org_fraction=(len(inter) / len(ties)) if ties else 0.0,
        clustering=nx.average_clustering(g) if n else 0.0,
    )


# -- the whole runner ---------------------------------------------------------


class ReferenceRunner(LongitudinalRunner):
    """A freshly built runner with every reference kernel swapped in.

    The kernel objects are re-classed rather than rebuilt, so no RNG
    substream is created twice and the draw sequence is untouched.
    """

    def __init__(self, scenario: Scenario) -> None:
        super().__init__(scenario)
        self.survey.__class__ = ReferencePlenarySurvey

    def _build_hackathon(self, spec: PlenarySpec) -> HackathonEvent:
        event = super()._build_hackathon(spec)
        event.__class__ = ReferenceHackathonEvent
        event.work_session.__class__ = ReferenceWorkSession
        return event

    def run(self):
        with mock.patch.object(runner_module, "compute_metrics",
                               compute_metrics_oracle):
            return super().run()


def reference_kpis(scenario: Scenario) -> Dict[str, float]:
    """KPI dictionary of one seeded scenario on the reference kernels."""
    return extract_metrics(ReferenceRunner(scenario).run())
