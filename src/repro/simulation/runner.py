"""The longitudinal project simulator.

:class:`LongitudinalRunner` plays a :class:`~repro.simulation.scenario.Scenario`
over the full world model: it builds the consortium, framework and
collaboration network, schedules every plenary on the discrete-event
engine, applies tie decay / energy recovery / follow-up ageing between
events, and records a :class:`PlenaryRecord` per meeting plus end-of-run
totals.  This is the machinery behind the headline benchmark (hackathon
vs. traditional plenaries).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.analytics.knowledge_flow import KnowledgeFlowTracker
from repro.analytics.trajectory import Trajectory, TrajectoryPoint
from repro.consortium.consortium import Consortium
from repro.consortium.presets import megamart2
from repro.core.prerequisites import PrerequisiteReport
from repro.dissemination.review import ReviewMeeting, ReviewVerdict
from repro.dissemination.showcase import DisseminationRegistry
from repro.core.event import HackathonConfig, HackathonEvent
from repro.core.followup import FollowUpRegistry
from repro.core.outcomes import HackathonOutcome
from repro.core.risks import BurnoutModel
from repro.core.session import WorkSession
from repro.core.teams import (
    BalancedFormation,
    RandomFormation,
    SubscriptionBasedFormation,
    TeamFormationPolicy,
)
from repro.errors import ConfigurationError
from repro.evaluation.comments import Comment, CommentGenerator, sentiment_histogram
from repro.evaluation.questionnaire import (
    Questionnaire,
    QuestionnaireResult,
    plenary_acceptance_items,
)
from repro.evaluation.survey import PlenarySurvey, SurveyOutcome
from repro.framework.catalog import FrameworkModel, build_framework
from repro.meetings.agenda import (
    Agenda,
    SessionFormat,
    hackathon_agenda,
    interleaved_agenda,
    traditional_agenda,
)
from repro.meetings.mode import MODE_EFFECTS, MeetingMode, ModeEffects
from repro.meetings.plenary import MeetingResult, PlenaryMeeting
from repro.cognition.learning import LearningModel
from repro.network.dynamics import TieDynamics
from repro.network.graph import CollaborationNetwork
from repro.project.builder import build_workplan
from repro.project.workpackages import WorkPlan
from repro.network.metrics import NetworkMetrics, compute_metrics
from repro.obs import REGISTRY, span
from repro.simulation.engine import Engine
from repro.simulation.scenario import PlenarySpec, Scenario
from repro.rng import RngHub, choice_without_replacement

__all__ = [
    "PlenaryRecord",
    "ProjectHistory",
    "LongitudinalRunner",
    "adversarial_factors",
    "effective_mode_effects",
]

_SIM_RUNS = REGISTRY.counter(
    "sim_runs_total",
    help="Complete longitudinal runs finished in this process",
)
_SIM_RUN_SECONDS = REGISTRY.histogram(
    "sim_run_seconds",
    help="Wall time of one LongitudinalRunner.run()",
)

_POLICIES: Dict[str, Callable[[], TeamFormationPolicy]] = {
    "subscription": SubscriptionBasedFormation,
    "balanced": BalancedFormation,
    "random": RandomFormation,
}


def effective_mode_effects(
    scenario: Scenario, spec: PlenarySpec
) -> ModeEffects:
    """Compose the plenary's mode defaults with the scenario's scales.

    Classic scenarios (all scales at the identity, no per-participant
    lanes) get the exact ``MODE_EFFECTS`` object back, so nothing in the
    default arithmetic can drift.  With ``spec.remote_share`` set, the
    engagement/intensity attenuation moves to the per-participant lanes
    (see :class:`~repro.meetings.plenary.MeetingSession`); the session
    keeps a *blended* mixing/travel-relief/productivity profile — the
    share-weighted interpolation between the face-to-face reference and
    the virtual lane.
    """
    effects = MODE_EFFECTS[MeetingMode(spec.mode)]
    if spec.remote_share is not None:
        virtual = MODE_EFFECTS[MeetingMode.VIRTUAL]
        share = spec.remote_share
        effects = ModeEffects(
            mixing_factor=1.0 - share * (1.0 - virtual.mixing_factor),
            # Engagement/intensity are applied per participant by the
            # hybrid lanes, not uniformly by the session.
            intensity_factor=1.0,
            engagement_factor=1.0,
            attendance_cost_relief=share * virtual.attendance_cost_relief,
            productivity_factor=(
                1.0 - share * (1.0 - virtual.productivity_factor)
            ),
        )
    if scenario.mixing_scale != 1.0 or scenario.engagement_scale != 1.0:
        effects = ModeEffects(
            mixing_factor=effects.mixing_factor * scenario.mixing_scale,
            intensity_factor=effects.intensity_factor,
            engagement_factor=(
                effects.engagement_factor * scenario.engagement_scale
            ),
            attendance_cost_relief=effects.attendance_cost_relief,
            productivity_factor=effects.productivity_factor,
        )
    return effects


def adversarial_factors(
    scenario: Scenario, consortium: Consortium, hub: RngHub
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Seeded per-member factor maps for adversarial participants.

    Free-riders and knowledge-withholding members are drawn without
    replacement from dedicated substreams, so classic scenarios (both
    shares at zero) consume no randomness and return empty maps.
    """
    member_factors: Dict[str, float] = {}
    outbound_factors: Dict[str, float] = {}
    member_ids = [m.member_id for m in consortium.members]
    if scenario.free_rider_share > 0.0:
        k = int(round(scenario.free_rider_share * len(member_ids)))
        for mid in choice_without_replacement(
            hub.stream("free_riders"), member_ids, k
        ):
            member_factors[mid] = scenario.free_rider_factor
    if scenario.withholding_share > 0.0:
        k = int(round(scenario.withholding_share * len(member_ids)))
        for mid in choice_without_replacement(
            hub.stream("withholding"), member_ids, k
        ):
            outbound_factors[mid] = scenario.withholding_factor
    return member_factors, outbound_factors


@dataclass
class PlenaryRecord:
    """Everything observed at one plenary."""

    spec: PlenarySpec
    meeting: MeetingResult
    outcome: Optional[HackathonOutcome]
    survey: SurveyOutcome
    comments: List[Comment]
    sentiment: Dict[str, int]
    network_metrics: NetworkMetrics
    provider_owner_ties: int
    burnout_rate: float
    mean_energy: float
    applications_started: int
    requirements_coverage: float
    prerequisites: List[PrerequisiteReport] = field(default_factory=list)
    questionnaire: Optional[QuestionnaireResult] = None
    deliverables_completed: int = 0
    deliverable_delay: float = 0.0

    def acceptance_gap(self, item_id: str = "balance_adequate") -> float:
        """Technical-vs-managerial mean-score gap on one Likert item.

        Positive values mean technical staff agree more strongly than
        managers — the asymmetry that plagued traditional plenaries was
        the opposite sign ("the content was too administrative").
        """
        if self.questionnaire is None:
            raise ConfigurationError(
                f"{self.spec.name}: no questionnaire collected"
            )
        return self.questionnaire.group_gap(item_id, "technical", "managerial")


@dataclass
class ProjectHistory:
    """The full trace of one scenario run."""

    scenario: Scenario
    records: List[PlenaryRecord] = field(default_factory=list)
    final_network: Optional[NetworkMetrics] = None
    final_provider_owner_ties: int = 0
    totals: Dict[str, float] = field(default_factory=dict)
    trajectory: Trajectory = field(default_factory=Trajectory)
    knowledge: KnowledgeFlowTracker = field(default_factory=KnowledgeFlowTracker)
    dissemination: Optional[DisseminationRegistry] = None
    review_verdict: Optional[ReviewVerdict] = None
    workplan: Optional[WorkPlan] = None

    def record_for(self, plenary_name: str) -> PlenaryRecord:
        for record in self.records:
            if record.spec.name == plenary_name:
                return record
        raise ConfigurationError(f"no record for plenary {plenary_name!r}")

    def hackathon_records(self) -> List[PlenaryRecord]:
        return [r for r in self.records if r.outcome is not None]


class LongitudinalRunner:
    """Runs one scenario end to end."""

    def __init__(
        self,
        scenario: Scenario,
        consortium_factory: Optional[Callable[[RngHub], Consortium]] = None,
        framework_factory: Optional[
            Callable[[Consortium, RngHub], FrameworkModel]
        ] = None,
        dynamics: Optional[TieDynamics] = None,
        learning: Optional[LearningModel] = None,
    ) -> None:
        self.scenario = scenario
        with span("sim.setup", scenario=scenario.name, seed=scenario.seed):
            self.hub = RngHub(scenario.seed)
            factory = consortium_factory or (lambda hub: megamart2(hub))
            self.consortium = factory(self.hub)
            fw_factory = framework_factory or (
                lambda consortium, hub: build_framework(consortium, hub)
            )
            self.framework = fw_factory(self.consortium, self.hub)
            self.network = CollaborationNetwork()
            self.followups = FollowUpRegistry()
            self.burnout = BurnoutModel(
                recovery_per_month=scenario.recovery_per_month
            )
            member_factors, outbound_factors = adversarial_factors(
                scenario, self.consortium, self.hub
            )
            self.meeting = PlenaryMeeting(
                self.consortium,
                self.network,
                self.hub,
                dynamics=dynamics,
                learning=learning,
                member_factors=member_factors,
                outbound_factors=outbound_factors,
            )
            self.survey = PlenarySurvey(self.hub)
            self.comment_generator = CommentGenerator(self.hub)
            self.dissemination = DisseminationRegistry(self.hub)
            self.review_meeting = ReviewMeeting(self.hub)
            self.questionnaire = Questionnaire(
                plenary_acceptance_items(), self.hub
            )
            self.workplan = build_workplan(
                self.consortium,
                self.framework,
                self.hub,
                horizon_months=scenario.end_month,
            )
            self._history = ProjectHistory(
                scenario=scenario, dissemination=self.dissemination
            )
            self._history.knowledge.snapshot(self.consortium, "start")
            self._history.workplan = self.workplan
            self._last_event_month = 0.0
            self._events_run = 0

    # -- public -----------------------------------------------------------

    def run(self) -> ProjectHistory:
        """Simulate the whole timeline and return the history."""
        with span("sim.run", scenario=self.scenario.name,
                  seed=self.scenario.seed):
            with _SIM_RUN_SECONDS.time():
                engine = Engine()
                for spec in self.scenario.plenaries:
                    engine.schedule_at(
                        spec.month,
                        f"plenary:{spec.name}",
                        lambda eng, spec=spec: self._run_plenary(eng, spec),
                    )
                end = self.scenario.end_month
                engine.schedule_at(end, "horizon", self._close_horizon)
                engine.run(until=end)
                with span("sim.finalize"):
                    self._finalize_totals()
        _SIM_RUNS.inc()
        return self._history

    # -- event handlers -----------------------------------------------------

    def _run_plenary(self, engine: Engine, spec: PlenarySpec) -> None:
        REGISTRY.counter(
            "sim_plenaries_total",
            help="Plenary meetings simulated, by agenda kind",
            kind=spec.kind,
        ).inc()
        with span("sim.plenary", plenary=spec.name, kind=spec.kind):
            self._run_plenary_impl(engine.now, spec)

    def _run_plenary_impl(self, now: float, spec: PlenarySpec) -> None:
        self._apply_inter_event_period(now)
        agenda = self._agenda_for(spec)
        hackathon: Optional[HackathonEvent] = None
        handler = None
        if spec.is_hackathon:
            hackathon = self._build_hackathon(spec)
            handler = hackathon.as_handler()
        session = self.meeting.begin(
            agenda, spec.name, handler, mode=MeetingMode(spec.mode),
            effects=effective_mode_effects(self.scenario, spec),
            remote_share=spec.remote_share,
        )
        with span("sim.plenary.exchange", plenary=spec.name):
            for item in session.agenda:
                session.run_item(item)
        result = session.finish()
        outcome = None
        if hackathon is not None and hackathon.teams is not None:
            outcome = hackathon.finalize(
                self.consortium.subset_members(result.attendee_ids)
            )

        with span("sim.plenary.observe", plenary=spec.name):
            with span("sim.plenary.survey", plenary=spec.name):
                survey = self.survey.collect(result)
            questionnaire_result = self._collect_questionnaire(result)
            comments = self.comment_generator.generate_all(
                self._comment_engagements(result, spec), context=spec.name
            )
        if outcome is not None:
            # The paper's rule: audience-voted showcases feed the
            # project's dissemination activities through every channel.
            for showcase in self.dissemination.register_outcome(outcome):
                self.dissemination.publish_everywhere(showcase.showcase_id)

        members = self.consortium.members
        with span("sim.plenary.metrics", plenary=spec.name):
            network_metrics = compute_metrics(self.network)
        record = PlenaryRecord(
            spec=spec,
            meeting=result,
            outcome=outcome,
            survey=survey,
            comments=comments,
            sentiment=sentiment_histogram(comments),
            network_metrics=network_metrics,
            provider_owner_ties=self._provider_owner_tie_count(),
            burnout_rate=BurnoutModel.burnout_rate(members),
            mean_energy=BurnoutModel.mean_energy(members),
            applications_started=self.framework.matrix.applications_started(),
            requirements_coverage=self.framework.requirements.coverage(),
            prerequisites=(
                list(hackathon.prerequisite_reports) if hackathon else []
            ),
            questionnaire=questionnaire_result,
            deliverables_completed=sum(
                1 for d in self.workplan.deliverables() if d.is_complete
            ),
            deliverable_delay=self.workplan.mean_delay(now),
        )
        self._history.records.append(record)
        self._history.knowledge.snapshot(self.consortium, spec.name)
        self._record_trajectory_point(now, event=spec.name)
        self._events_run += 1

        # "Presented in the first official review meeting of the
        # project" (Sec. VI): the panel convenes after the first
        # hackathon plenary.
        if (
            outcome is not None
            and self._history.review_verdict is None
            and self.dissemination.showcases
        ):
            self._history.review_verdict = self.review_meeting.review(
                self.dissemination.showcases,
                record.prerequisites,
                record.applications_started,
            )

    def _close_horizon(self, engine: Engine) -> None:
        self._apply_inter_event_period(engine.now)

    # -- helpers --------------------------------------------------------------

    def _agenda_for(self, spec: PlenarySpec) -> Agenda:
        if spec.kind == "interleaved":
            return interleaved_agenda(
                days=spec.days,
                session_hours=spec.session_hours,
                sessions_per_day=spec.sessions,
            )
        if spec.kind == "hackathon":
            return hackathon_agenda(
                days=spec.days,
                session_hours=spec.session_hours,
                sessions=spec.sessions,
            )
        return traditional_agenda(days=spec.days)

    def _build_hackathon(self, spec: PlenarySpec) -> HackathonEvent:
        config = HackathonConfig(
            event_id=spec.name,
            time_box_hours=spec.session_hours,
            sessions=spec.sessions,
            per_owner_challenges=self.scenario.per_owner_challenges,
            followup_enabled=self.scenario.followup_enabled,
        )
        policy = _POLICIES[self.scenario.team_policy]()
        # A virtual/hybrid plenary slows down team work: scale the work
        # session's base productivity by the (possibly plugin-composed)
        # mode factor.
        effects = effective_mode_effects(self.scenario, spec)
        work_session = WorkSession(self.hub)
        if effects.productivity_factor < 1.0:
            work_session = WorkSession(
                self.hub,
                productivity_per_hour=(
                    work_session.productivity_per_hour
                    * effects.productivity_factor
                ),
            )
        return HackathonEvent(
            consortium=self.consortium,
            framework=self.framework,
            hub=self.hub,
            config=config,
            team_policy=policy,
            work_session=work_session,
            followups=self.followups,
        )

    def _apply_inter_event_period(self, now: float) -> None:
        """Age the world month by month up to ``now``.

        Decay is applied in monthly steps so that follow-up protection
        stops exactly when a plan's horizon expires, not at the end of
        the whole inter-plenary gap.
        """
        remaining = now - self._last_event_month
        current = self._last_event_month
        if remaining > 1e-9:
            with span("sim.inter_event", from_month=current, to_month=now):
                self._age_world(remaining, current)
        self._last_event_month = now

    def _age_world(self, remaining: float, current: float) -> None:
        while remaining > 1e-9:
            step = min(1.0, remaining)
            protected = (
                self.followups.protected_pairs()
                if self.scenario.followup_enabled
                else frozenset()
            )
            self.meeting.dynamics.decay_period(self.network, step, protected)
            self.burnout.recover(self.consortium.members, step)
            self.followups.advance(step)
            remaining -= step
            current += step
            self.workplan.advance_month(current, self.consortium, self.network)
            self._record_trajectory_point(current)

    def _record_trajectory_point(
        self, month: float, event: Optional[str] = None
    ) -> None:
        """Append one trajectory sample."""
        mean_energy = BurnoutModel.mean_energy(self.consortium.members)
        with span("sim.trajectory", month=month):
            self._history.trajectory.record(
                TrajectoryPoint(
                    month=month,
                    inter_org_ties=len(self.network.inter_org_ties()),
                    total_tie_strength=self.network.total_strength(),
                    mean_energy=mean_energy,
                    event=event,
                )
            )

    def _collect_questionnaire(
        self, result: MeetingResult
    ) -> QuestionnaireResult:
        """Administer the Sec. V-B acceptance questionnaire.

        Each attendee's disposition blends their mean and peak
        engagement (as in the yes/no survey); groups split technical
        versus managerial staff so the "adequacy of the plenary tuning
        among technical and managerial sections" can be read off.
        """
        per_member: Dict[str, List[float]] = {}
        for rec in result.engagement_records:
            per_member.setdefault(rec.member_id, []).append(rec.engagement)
        dispositions = {
            mid: 0.5 * (sum(vals) / len(vals)) + 0.5 * max(vals)
            for mid, vals in per_member.items()
        }
        groups = {
            mid: (
                "technical"
                if self.consortium.member(mid).is_technical
                else "managerial"
            )
            for mid in dispositions
        }
        return self.questionnaire.administer(dispositions, groups)

    @staticmethod
    def _comment_engagements(
        result: MeetingResult, spec: PlenarySpec
    ) -> Dict[str, float]:
        """Engagement levels driving each attendee's free-text comment.

        The paper's Fig. 4 collects comments *on the hackathon*, so at a
        hackathon plenary the comment tone follows each member's
        engagement during the hackathon sessions specifically; at a
        traditional plenary it follows the whole-meeting mean.
        """
        if spec.is_hackathon:
            per_member: Dict[str, List[float]] = {}
            for rec in result.engagement_records:
                if rec.format is SessionFormat.HACKATHON:
                    per_member.setdefault(rec.member_id, []).append(
                        rec.engagement
                    )
            if per_member:
                return {
                    mid: sum(v) / len(v) for mid, v in per_member.items()
                }
        return result.engagement_by_member()

    def _provider_owner_tie_count(self) -> int:
        providers = [o.org_id for o in self.consortium.tool_providers]
        owners = [o.org_id for o in self.consortium.case_study_owners]
        return len(self.network.ties_between_roles(providers, owners))

    def _finalize_totals(self) -> None:
        history = self._history
        history.final_network = compute_metrics(self.network)
        history.final_provider_owner_ties = self._provider_owner_tie_count()
        records = history.records
        history.totals = {
            "knowledge_transferred": sum(
                r.meeting.knowledge_transferred for r in records
            ),
            "new_ties": sum(len(r.meeting.new_ties) for r in records),
            "new_inter_org_ties": sum(
                len(r.meeting.new_inter_org_ties) for r in records
            ),
            "new_provider_owner_ties": sum(
                len(r.meeting.new_provider_owner_ties) for r in records
            ),
            "applications_started": (
                records[-1].applications_started if records else 0
            ),
            "requirements_coverage": (
                records[-1].requirements_coverage if records else 0.0
            ),
            "final_inter_org_ties": (
                history.final_network.inter_org_ties
                if history.final_network
                else 0
            ),
            "final_provider_owner_ties": history.final_provider_owner_ties,
            "mean_meeting_engagement": (
                sum(r.meeting.mean_engagement() for r in records) / len(records)
                if records
                else 0.0
            ),
            "final_burnout_rate": BurnoutModel.burnout_rate(
                self.consortium.members
            ),
            "demos_total": sum(
                len(r.outcome.demos) for r in records if r.outcome
            ),
            "convincing_demos": sum(
                len(r.outcome.convincing_demos()) for r in records if r.outcome
            ),
            "dissemination_reach": float(self.dissemination.total_reach()),
            "knowledge_growth": history.knowledge.total_growth(),
            "review_score": (
                history.review_verdict.mean_overall
                if history.review_verdict
                else 0.0
            ),
            "deliverables_completed": float(
                sum(1 for d in self.workplan.deliverables() if d.is_complete)
            ),
            "deliverable_on_time_rate": self.workplan.on_time_rate(),
            "deliverable_mean_delay": self.workplan.mean_delay(
                self.scenario.end_month
            ),
        }
