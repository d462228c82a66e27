"""The plenary-meeting simulator.

:class:`PlenaryMeeting` runs an agenda over a consortium: it samples who
attends, how engaged they are per session, and which cross-member
interactions happen; interactions strengthen network ties and exchange
knowledge through the inverted-U learning model.

Hackathon agenda items are special: the meeting delegates them to a
*hackathon handler* (normally :class:`repro.core.HackathonEvent` wired
in by the simulation runner), keeping this module independent of the
core package.  Without a handler, hackathon slots fall back to intense
generic mixing — useful for quick what-if runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.cognition.knowledge import KnowledgeVector
from repro.cognition.learning import LearningModel
from repro.consortium.consortium import Consortium
from repro.consortium.member import Member
from repro.culture.distance import CulturalDistanceModel
from repro.errors import ConfigurationError
from repro.meetings.agenda import Agenda, AgendaItem, SessionFormat
from repro.meetings.attendance import AttendancePolicy
from repro.meetings.engagement import EngagementModel, EngagementRecord
from repro.meetings.mode import MODE_EFFECTS, MeetingMode, ModeEffects
from repro.network.dynamics import Interaction, TieDynamics
from repro.network.graph import CollaborationNetwork
from repro.rng import RngHub

__all__ = ["MeetingResult", "MeetingSession", "PlenaryMeeting", "HackathonHandler"]

#: Signature of the pluggable hackathon handler: given the agenda item
#: and the attendees, produce the interactions the hackathon generated
#: (the handler may carry richer state of its own, e.g. demos and votes).
HackathonHandler = Callable[[AgendaItem, List[Member]], List[Interaction]]

#: Energy drained per generic meeting hour (hackathon drain is owned by
#: the hackathon engine, which is far more intense).
_GENERIC_FATIGUE_PER_HOUR = 0.01


@dataclass
class MeetingResult:
    """Everything one plenary produced."""

    meeting_name: str
    agenda_name: str
    attendee_ids: List[str]
    technical_share: float
    mode: MeetingMode = MeetingMode.FACE_TO_FACE
    engagement_records: List[EngagementRecord] = field(default_factory=list)
    interactions: List[Interaction] = field(default_factory=list)
    knowledge_transferred: float = 0.0
    new_ties: List[Tuple[str, str]] = field(default_factory=list)
    new_inter_org_ties: List[Tuple[str, str]] = field(default_factory=list)
    #: New ties pairing a case-study-owner member with a tool-provider
    #: member — the paper's "notably between tool providers and use
    #: case owners" observation, now reported per meeting.
    new_provider_owner_ties: List[Tuple[str, str]] = field(default_factory=list)
    #: Attendees who joined through the remote lane of a hybrid plenary
    #: with per-participant lanes (empty otherwise).
    remote_attendee_ids: List[str] = field(default_factory=list)

    def engagement_by_item(self) -> Dict[str, float]:
        return EngagementModel.by_item(self.engagement_records)

    def engagement_by_member(self) -> Dict[str, float]:
        return EngagementModel.by_member(self.engagement_records)

    def mean_engagement(self) -> float:
        if not self.engagement_records:
            return 0.0
        return sum(r.engagement for r in self.engagement_records) / len(
            self.engagement_records
        )


class MeetingSession:
    """One plenary in progress, steppable agenda item by agenda item.

    :meth:`PlenaryMeeting.run` and the longitudinal runner drive a
    session start to finish: :meth:`run_item` once per agenda item, then
    :meth:`finish`.
    """

    def __init__(
        self,
        meeting: "PlenaryMeeting",
        agenda: Agenda,
        meeting_name: str,
        hackathon_handler: Optional[HackathonHandler],
        mode: MeetingMode,
        effects: Optional[ModeEffects] = None,
        remote_share: Optional[float] = None,
    ) -> None:
        self.meeting = meeting
        self.agenda = agenda
        self.hackathon_handler = hackathon_handler
        self.mode = mode
        self.effects = effects if effects is not None else MODE_EFFECTS[mode]
        self._before = meeting.network.snapshot()
        delegations = meeting.attendance.delegations(
            meeting.consortium, agenda,
            pressure_relief=self.effects.attendance_cost_relief,
        )
        self.attendees = AttendancePolicy.attendees(
            meeting.consortium, delegations
        )
        if not self.attendees:
            raise ConfigurationError("no attendees — consortium has no members?")
        self.result = MeetingResult(
            meeting_name=meeting_name,
            agenda_name=agenda.name,
            attendee_ids=[m.member_id for m in self.attendees],
            technical_share=AttendancePolicy.technical_share(
                meeting.consortium, delegations
            ),
            mode=mode,
        )
        # Hybrid per-participant lanes: each attendee is dealt into the
        # remote or on-site lane from a dedicated substream, so enabling
        # lanes never perturbs any classic stream.  Remote members carry
        # the virtual mode's engagement/intensity depth, on-site members
        # the face-to-face reference; a cross-lane interaction runs at
        # the mean of its two endpoints' depths.
        self.lane_engagement: Dict[str, float] = {}
        self.lane_intensity: Dict[str, float] = {}
        if remote_share is not None:
            virtual = MODE_EFFECTS[MeetingMode.VIRTUAL]
            rng = meeting._hub.stream("hybrid_lanes")
            draws = rng.random(len(self.attendees))
            remote_ids = []
            for member, draw in zip(self.attendees, draws.tolist()):
                if draw < remote_share:
                    remote_ids.append(member.member_id)
                    self.lane_engagement[member.member_id] = (
                        virtual.engagement_factor
                    )
                    self.lane_intensity[member.member_id] = (
                        virtual.intensity_factor
                    )
            self.result.remote_attendee_ids = remote_ids
        # Per-member depth factors: lane factors (above) combined with
        # the meeting's free-rider factors.  Empty for classic runs, so
        # the hot path below stays byte-identical.
        self._member_engagement: Dict[str, float] = dict(self.lane_engagement)
        self._member_intensity: Dict[str, float] = dict(self.lane_intensity)
        for mid, factor in meeting.member_factors.items():
            self._member_engagement[mid] = (
                self._member_engagement.get(mid, 1.0) * factor
            )
            self._member_intensity[mid] = (
                self._member_intensity.get(mid, 1.0) * factor
            )

    def run_item(self, item: AgendaItem) -> None:
        """Sample engagement and interactions for one item, then run the
        knowledge exchange they produce."""
        meeting = self.meeting
        effects = self.effects
        records = meeting.engagement.sample_many(self.attendees, item)
        if effects.engagement_factor < 1.0:
            records = EngagementModel.scale_many(
                records, effects.engagement_factor
            )
        if self._member_engagement:
            member_engagement = self._member_engagement
            records = [
                EngagementRecord(
                    member_id=r.member_id,
                    item_title=r.item_title,
                    format=r.format,
                    engagement=(
                        r.engagement * member_engagement.get(r.member_id, 1.0)
                    ),
                )
                for r in records
            ]
        self.result.engagement_records.extend(records)

        if (
            item.format is SessionFormat.HACKATHON
            and self.hackathon_handler is not None
        ):
            interactions = self.hackathon_handler(item, self.attendees)
        else:
            interactions = meeting._generic_interactions(
                item, self.attendees, effects
            )
            for member in self.attendees:
                member.drain_energy(_GENERIC_FATIGUE_PER_HOUR * item.hours)

        if effects.intensity_factor < 1.0:
            interactions = [
                Interaction(
                    member_a=i.member_a,
                    member_b=i.member_b,
                    intensity=i.intensity * effects.intensity_factor,
                    context=i.context,
                )
                for i in interactions
            ]
        if self._member_intensity:
            member_intensity = self._member_intensity
            interactions = [
                Interaction(
                    member_a=i.member_a,
                    member_b=i.member_b,
                    intensity=i.intensity * 0.5 * (
                        member_intensity.get(i.member_a, 1.0)
                        + member_intensity.get(i.member_b, 1.0)
                    ),
                    context=i.context,
                )
                for i in interactions
            ]
        meeting._apply_interactions(interactions, self.result)
        self.result.interactions.extend(interactions)

    def finish(self) -> MeetingResult:
        """Classify the ties the meeting created and seal the result."""
        meeting, result = self.meeting, self.result
        result.new_ties = meeting.network.new_ties_since(self._before)
        owners = {o.org_id for o in meeting.consortium.case_study_owners}
        providers = {o.org_id for o in meeting.consortium.tool_providers}
        for a, b in result.new_ties:
            org_a, org_b = meeting.network.org_of(a), meeting.network.org_of(b)
            if org_a != org_b:
                result.new_inter_org_ties.append((a, b))
                if (org_a in owners and org_b in providers) or (
                    org_a in providers and org_b in owners
                ):
                    result.new_provider_owner_ties.append((a, b))
        return result


class PlenaryMeeting:
    """Simulates one plenary meeting end to end."""

    def __init__(
        self,
        consortium: Consortium,
        network: CollaborationNetwork,
        hub: RngHub,
        attendance: Optional[AttendancePolicy] = None,
        engagement: Optional[EngagementModel] = None,
        dynamics: Optional[TieDynamics] = None,
        learning: Optional[LearningModel] = None,
        culture: Optional[CulturalDistanceModel] = None,
        member_factors: Optional[Dict[str, float]] = None,
        outbound_factors: Optional[Dict[str, float]] = None,
    ) -> None:
        self.consortium = consortium
        self.network = network
        self._hub = hub
        self._rng = hub.stream("plenary")
        self.attendance = attendance or AttendancePolicy(hub)
        self.engagement = engagement or EngagementModel(hub)
        self.dynamics = dynamics or TieDynamics()
        self.learning = learning or LearningModel()
        self.culture = culture or CulturalDistanceModel()
        #: member_id -> engagement/intensity depth factor (free-riders);
        #: member_id -> outbound transfer factor (knowledge withholding).
        #: Both empty for classic runs — the kernels below special-case
        #: the empty dicts so default arithmetic is untouched.
        self.member_factors: Dict[str, float] = dict(member_factors or {})
        self.outbound_factors: Dict[str, float] = dict(outbound_factors or {})
        # Make sure every member has a network node.
        for member in consortium.members:
            network.add_member(member.member_id, member.org_id)
        # Member -> country is static for the consortium's lifetime;
        # resolve it once instead of per interaction in the hot loop.
        self._country_of: Dict[str, str] = {
            member.member_id: consortium.organization_of(member).country
            for member in consortium.members
        }

    # -- public API ---------------------------------------------------------

    def run(
        self,
        agenda: Agenda,
        meeting_name: str = "plenary",
        hackathon_handler: Optional[HackathonHandler] = None,
        mode: MeetingMode = MeetingMode.FACE_TO_FACE,
    ) -> MeetingResult:
        """Simulate the full plenary and return its result.

        ``mode`` selects face-to-face (the reference), virtual or
        hybrid; virtual meetings attract more attendees (no travel) but
        attenuate mixing, interaction depth and engagement — the
        trade-off the paper cites when arguing for co-located
        hackathons.
        """
        session = self.begin(agenda, meeting_name, hackathon_handler, mode)
        for item in agenda:
            session.run_item(item)
        return session.finish()

    def begin(
        self,
        agenda: Agenda,
        meeting_name: str = "plenary",
        hackathon_handler: Optional[HackathonHandler] = None,
        mode: MeetingMode = MeetingMode.FACE_TO_FACE,
        effects: Optional[ModeEffects] = None,
        remote_share: Optional[float] = None,
    ) -> MeetingSession:
        """Open a steppable session (attendance is sampled here).

        ``effects`` overrides the mode's default attenuation factors
        (scenario plugins compose mode defaults with their own scales);
        ``remote_share`` switches a hybrid plenary to per-participant
        face-to-face/remote lanes.
        """
        return MeetingSession(
            self, agenda, meeting_name, hackathon_handler, mode,
            effects=effects, remote_share=remote_share,
        )

    # -- internals ----------------------------------------------------------

    def _apply_interactions(
        self, interactions: List[Interaction], result: MeetingResult
    ) -> None:
        """Apply a whole item's interactions in one batched pass.

        The item's participants are stacked into one dense knowledge
        matrix and every exchange mutates rows in place, so the
        sequential dependency (each exchange shifts the cognitive
        distance the next one sees) is preserved while the per-exchange
        cost drops to a handful of fused array ops — no KnowledgeVector
        allocation until the batch write-back.  Tie strengthening is
        aggregated per pair: one network mutation per distinct pair
        instead of one per interaction, which also keeps the network's
        derived-view caches warm.
        """
        if not interactions:
            return
        consortium = self.consortium
        members: Dict[str, Member] = {}
        for interaction in interactions:
            for mid in (interaction.member_a, interaction.member_b):
                if mid not in members:
                    members[mid] = consortium.member(mid)
        index = {mid: i for i, mid in enumerate(members)}
        # The dense matrix rows are unboxed into plain Python lists for
        # the sequential loop below: profile widths (~14 domains) are far
        # below the break-even point where NumPy's per-call dispatch pays
        # for itself, and the loop is inherently serial (each exchange
        # shifts the cognitive distance the next one sees).
        rows = KnowledgeVector.stack(
            m.knowledge for m in members.values()
        ).tolist()
        norms = [math.sqrt(sum(x * x for x in row)) for row in rows]
        start_total = sum(map(sum, rows))

        learning = self.learning
        learning_value = learning.learning_value
        max_rate = learning.max_transfer_rate
        attenuation = learning.cultural_attenuation
        country_of = self._country_of
        culture_distance = self.culture.distance
        cultural_factor: Dict[Tuple[str, str], float] = {}
        pair_intensity: Dict[Tuple[str, str], float] = {}
        outbound = self.outbound_factors
        exp = math.exp
        for interaction in interactions:
            id_a, id_b = interaction.member_a, interaction.member_b
            pair = (id_a, id_b) if id_a <= id_b else (id_b, id_a)
            intensity = interaction.intensity
            pair_intensity[pair] = pair_intensity.get(pair, 0.0) + intensity
            ia, ib = index[id_a], index[id_b]
            row_a, row_b = rows[ia], rows[ib]
            na, nb = norms[ia], norms[ib]
            if na == 0.0 or nb == 0.0:
                # Empty profiles share no frame of reference — maximal
                # distance, matching cognitive_distance's convention.
                distance = 1.0
            else:
                dot = 0.0
                for x, y in zip(row_a, row_b):
                    dot += x * y
                distance = 1.0 - min(1.0, max(0.0, dot / (na * nb)))
            factor = cultural_factor.get(pair)
            if factor is None:
                factor = 1.0 - attenuation * culture_distance(
                    country_of[id_a], country_of[id_b]
                )
                cultural_factor[pair] = factor
            hours = intensity if intensity > 0.25 else 0.25
            # Saturating time response as in LearningModel.transfer_rate.
            rate = (
                max_rate
                * learning_value(distance)
                * factor
                * (1.0 - exp(-hours / 2.0))
            )
            if rate == 0.0:
                continue
            # Mutual absorb toward the domain-wise max (KnowledgeVector
            # .absorb): a' = a + rate*max(b-a, 0), b' = b + rate*max(a-b, 0).
            # A withholding participant caps what *others* absorb from
            # them: the rate toward a is scaled by b's outbound factor
            # and vice versa.  ``rate_a is rate`` on the classic path,
            # so default arithmetic is bitwise untouched.
            rate_a = rate_b = rate
            if outbound:
                rate_a = rate * outbound.get(id_b, 1.0)
                rate_b = rate * outbound.get(id_a, 1.0)
            for j, x in enumerate(row_a):
                y = row_b[j]
                if y > x:
                    row_a[j] = x + rate_a * (y - x)
                elif x > y:
                    row_b[j] = y + rate_b * (x - y)
            sq = 0.0
            for x in row_a:
                sq += x * x
            norms[ia] = math.sqrt(sq)
            sq = 0.0
            for x in row_b:
                sq += x * x
            norms[ib] = math.sqrt(sq)

        # Absorption only ever raises proficiencies, so the item's total
        # knowledge gain is the matrix-sum delta.
        result.knowledge_transferred += sum(map(sum, rows)) - start_total
        for mid, i in index.items():
            members[mid].knowledge = KnowledgeVector._from_array(
                np.array(rows[i])
            )
        consortium.bump_knowledge_version()
        rate = self.dynamics.strengthen_rate
        strengthen = self.network.strengthen
        for (id_a, id_b), intensity in pair_intensity.items():
            strengthen(id_a, id_b, rate * intensity)

    def _generic_interactions(
        self,
        item: AgendaItem,
        attendees: List[Member],
        effects: ModeEffects = MODE_EFFECTS[MeetingMode.FACE_TO_FACE],
    ) -> List[Interaction]:
        """Sample corridor/session interactions for a non-team session."""
        if len(attendees) < 2:
            return []
        expected = (
            item.format.mixing_rate
            * effects.mixing_factor
            * item.hours
            * len(attendees)
            / 2.0
        )
        count = int(self._rng.poisson(expected))
        by_org: Dict[str, List[Member]] = {}
        for m in attendees:
            by_org.setdefault(m.org_id, []).append(m)
        # Candidate pools and noise-free engagement are fixed for the
        # whole item (energy only drains after sampling), so build them
        # once instead of per sampled interaction.
        cross_org: Dict[str, List[Member]] = {
            org: [m for m in attendees if m.org_id != org] for org in by_org
        }
        expected_engagement = {
            m.member_id: self.engagement.expected(m, item.format)
            for m in attendees
        }

        interactions: List[Interaction] = []
        intensity_scale = item.format.interaction_intensity
        for _ in range(count):
            a = attendees[int(self._rng.integers(0, len(attendees)))]
            b = self._pick_partner(a, by_org, cross_org, item.format.same_org_bias)
            if b is None:
                continue
            mean_engagement = 0.5 * (
                expected_engagement[a.member_id]
                + expected_engagement[b.member_id]
            )
            interactions.append(
                Interaction(
                    member_a=a.member_id,
                    member_b=b.member_id,
                    intensity=intensity_scale * mean_engagement,
                    context=item.title,
                )
            )
        return interactions

    def _pick_partner(
        self,
        a: Member,
        by_org: Dict[str, List[Member]],
        cross_org: Dict[str, List[Member]],
        same_org_bias: float,
    ) -> Optional[Member]:
        same_org = [m for m in by_org.get(a.org_id, []) if m is not a]
        other_org = cross_org.get(a.org_id, [])
        use_same = self._rng.random() < same_org_bias
        pool = same_org if (use_same and same_org) else other_org
        if not pool:
            pool = same_org or other_org
        if not pool:
            return None
        return pool[int(self._rng.integers(0, len(pool)))]

