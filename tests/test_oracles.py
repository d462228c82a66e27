"""The production engine against the reference kernels of ``oracles.py``.

Every fast kernel is bit-equal to its reference by construction; these
tests are the proof.  Whole runs go through :class:`oracles.ReferenceRunner`
(reference sessions, ballot-box voting, per-respondent surveys, networkx
metrics, a freshly built world) and must match the production runner's
KPIs exactly — ``==`` on the raw dictionaries, no tolerance — for the
paper's timelines and one scenario of each plugin family.  The kernels
are also checked one by one on small worlds.
"""

import pytest

from repro.consortium.presets import small_consortium
from repro.core.event import HackathonConfig, HackathonEvent
from repro.core.teams import RandomFormation
from repro.evaluation.survey import PlenarySurvey
from repro.framework.catalog import build_framework
from repro.meetings.agenda import hackathon_agenda, interleaved_agenda
from repro.meetings.plenary import PlenaryMeeting
from repro.network.graph import CollaborationNetwork
from repro.registry import CATALOG
from repro.rng import RngHub
from repro.simulation.experiment import extract_metrics, replicate

from oracles import (
    ReferenceHackathonEvent,
    ReferenceWorkSession,
    reference_kpis,
    survey_collect,
)

SEEDS = [0, 1, 2]


class TestRunnerEquivalence:
    @pytest.mark.parametrize("name", [
        "hackathon", "traditional", "hackathon-everywhere", "interleaved",
        "virtual",
        # one per plugin family: virtual, hybrid, adversarial
        "virtual-constrained", "hybrid-balanced", "free-riders",
    ])
    def test_production_runner_matches_reference_runner(self, name):
        scenario = CATALOG.resolve(name, seed=0)
        production = [extract_metrics(h) for h in replicate(scenario, SEEDS)]
        assert production == [
            reference_kpis(scenario.with_seed(seed)) for seed in SEEDS
        ]


class TestKernelEquivalence:
    @pytest.mark.parametrize("agenda", [hackathon_agenda, interleaved_agenda])
    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_survey_collect_matches_reference(self, agenda, seed):
        def survey_after_meeting():
            hub = RngHub(seed)
            meeting = PlenaryMeeting(small_consortium(hub),
                                     CollaborationNetwork(), hub)
            return meeting.run(agenda(), "meeting"), PlenarySurvey(hub)

        result, survey = survey_after_meeting()
        reference_result, reference_survey = survey_after_meeting()
        assert survey.collect(result) == survey_collect(
            reference_survey, reference_result
        )
        # Both consumed the survey stream identically.
        assert survey._rng.random() == reference_survey._rng.random()

    @pytest.mark.parametrize("seed", [2024, 2025, 2026])
    def test_event_voting_and_sessions_match_reference(self, seed):
        def run_event(event_class):
            hub = RngHub(seed)
            consortium = small_consortium(hub)
            framework = build_framework(consortium, hub, n_tools=8)
            event = event_class(
                consortium, framework, hub, HackathonConfig(event_id="e"),
                team_policy=RandomFormation(),
            )
            if event_class is ReferenceHackathonEvent:
                event.work_session.__class__ = ReferenceWorkSession
            return event.run(consortium.members), consortium

        outcome, consortium = run_event(HackathonEvent)
        reference, reference_consortium = run_event(ReferenceHackathonEvent)
        assert outcome.scores and outcome.scores == reference.scores
        assert outcome.showcase_ids == reference.showcase_ids
        assert outcome.session_results == reference.session_results
        assert [m.energy for m in consortium.members] == [
            m.energy for m in reference_consortium.members
        ]
