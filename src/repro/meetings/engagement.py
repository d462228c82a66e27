"""Per-session engagement of attendees.

The complaint that triggered the whole intervention — "the content was
too administrative or managerial... many participants feel disengaged
and consider plenary meetings as a waste of time" — becomes a measurable
quantity here: engagement in [0, 1] per member per agenda item, driven
by the match between the session format and the member's role.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.consortium.member import Member
from repro.errors import ConfigurationError
from repro.meetings.agenda import AgendaItem, SessionFormat
from repro.numeric import ordered_sum
from repro.rng import RngHub

__all__ = ["EngagementModel", "EngagementRecord"]

#: Mean engagement by (format, is_technical).  Technical staff disengage
#: in administrative slots and light up in hands-on sessions; managers
#: the other way around (paper Secs. III-B, V).
_BASE_ENGAGEMENT: Dict[SessionFormat, Dict[bool, float]] = {
    SessionFormat.ADMINISTRATIVE: {False: 0.70, True: 0.25},
    SessionFormat.PRESENTATION: {False: 0.55, True: 0.35},
    SessionFormat.TECHNICAL_WORKSHOP: {False: 0.35, True: 0.70},
    SessionFormat.HACKATHON: {False: 0.45, True: 0.90},
    SessionFormat.SOCIAL: {False: 0.60, True: 0.60},
}


@dataclass(frozen=True)
class EngagementRecord:
    """Realised engagement of one member in one agenda item."""

    member_id: str
    item_title: str
    format: SessionFormat
    engagement: float


class EngagementModel:
    """Samples engagement values.

    Parameters
    ----------
    noise_sd:
        Standard deviation of the per-sample Gaussian noise.
    energy_weight:
        How strongly a member's remaining energy scales engagement —
        a burned-out member cannot engage even in a format they love.
    """

    def __init__(
        self, hub: RngHub, noise_sd: float = 0.08, energy_weight: float = 0.5
    ) -> None:
        if noise_sd < 0:
            raise ConfigurationError(f"noise_sd must be >= 0, got {noise_sd}")
        if not 0.0 <= energy_weight <= 1.0:
            raise ConfigurationError(
                f"energy_weight must be in [0,1], got {energy_weight}"
            )
        self._rng = hub.stream("engagement")
        self.noise_sd = noise_sd
        self.energy_weight = energy_weight

    def expected(self, member: Member, fmt: SessionFormat) -> float:
        """Noise-free expected engagement."""
        base = _BASE_ENGAGEMENT[fmt][member.is_technical]
        energy_factor = 1.0 - self.energy_weight * (1.0 - member.energy)
        return base * energy_factor

    def sample(self, member: Member, item: AgendaItem) -> EngagementRecord:
        """Sample realised engagement for one member in one session."""
        value = self.expected(member, item.format) + self._rng.normal(
            0.0, self.noise_sd
        )
        return EngagementRecord(
            member_id=member.member_id,
            item_title=item.title,
            format=item.format,
            engagement=min(1.0, max(0.0, float(value))),
        )

    def sample_many(
        self, members: List[Member], item: AgendaItem
    ) -> List[EngagementRecord]:
        """Sample one record per member with a single batched noise draw.

        Bit-identical to calling :meth:`sample` per member in order:
        NumPy generators fill vectorized draws from the same stream
        sequence as repeated scalar draws.
        """
        if not members:
            return []
        fmt, title = item.format, item.title
        base = _BASE_ENGAGEMENT[fmt]
        base_t, base_f = base[True], base[False]
        # expected() computed for the whole roster in one array pass:
        # base * (1 - energy_weight * (1 - energy)), identical op order.
        bases = np.fromiter(
            (base_t if m._is_technical else base_f for m in members),
            dtype=float,
            count=len(members),
        )
        energies = np.fromiter(
            (m.energy for m in members), dtype=float, count=len(members)
        )
        values = self._rng.normal(0.0, self.noise_sd, size=len(members))
        values += bases * (1.0 - self.energy_weight * (1.0 - energies))
        np.clip(values, 0.0, 1.0, out=values)
        return [
            EngagementRecord(
                member_id=member.member_id,
                item_title=title,
                format=fmt,
                engagement=engagement,
            )
            for member, engagement in zip(members, values.tolist())
        ]

    @staticmethod
    def scale_many(
        records: List[EngagementRecord], factor: float
    ) -> List[EngagementRecord]:
        """Rebuild ``records`` with engagement scaled by ``factor``.

        One vectorized multiply for the whole roster; elementwise
        ``engagement * factor`` is the same IEEE operation either way,
        so the result is bit-identical to scaling record by record.
        """
        if not records:
            return []
        scaled = np.fromiter(
            (r.engagement for r in records), dtype=float, count=len(records)
        )
        scaled *= factor
        return [
            EngagementRecord(
                member_id=record.member_id,
                item_title=record.item_title,
                format=record.format,
                engagement=engagement,
            )
            for record, engagement in zip(records, scaled.tolist())
        ]

    @staticmethod
    def by_item(records: List[EngagementRecord]) -> Dict[str, float]:
        """Mean engagement per agenda item title."""
        sums: Dict[str, List[float]] = {}
        for rec in records:
            sums.setdefault(rec.item_title, []).append(rec.engagement)
        return {title: ordered_sum(v) / len(v) for title, v in sums.items()}

    @staticmethod
    def by_member(records: List[EngagementRecord]) -> Dict[str, float]:
        """Mean engagement per member across the whole meeting."""
        sums: Dict[str, List[float]] = {}
        for rec in records:
            sums.setdefault(rec.member_id, []).append(rec.engagement)
        return {mid: ordered_sum(v) / len(v) for mid, v in sums.items()}
