"""Plenary meeting agendas.

The paper's intervention is, at bottom, an *agenda change*: instead of
filling plenaries with administrative slots and one-way presentations,
one day becomes a hackathon.  Agendas are therefore first-class values:
a list of :class:`AgendaItem` with formats and durations, plus factory
functions for the traditional and hackathon-style agendas.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Tuple

from repro.errors import ConfigurationError
from repro.numeric import ordered_sum

__all__ = [
    "SessionFormat",
    "AgendaItem",
    "Agenda",
    "traditional_agenda",
    "hackathon_agenda",
    "interleaved_agenda",
]


class SessionFormat(enum.Enum):
    """Kinds of plenary sessions, with very different interaction profiles."""

    ADMINISTRATIVE = "administrative"  # status reporting, planning
    PRESENTATION = "presentation"  # one-way WP presentations
    TECHNICAL_WORKSHOP = "technical_workshop"  # discussion-style technical slot
    HACKATHON = "hackathon"  # challenge-based team work
    SOCIAL = "social"  # dinners, coffee, corridor time

    @property
    def is_technical(self) -> bool:
        return self in (SessionFormat.TECHNICAL_WORKSHOP, SessionFormat.HACKATHON)

    @property
    def mixing_rate(self) -> float:
        """Expected cross-member interactions per attendee per hour."""
        return {
            SessionFormat.ADMINISTRATIVE: 0.15,
            SessionFormat.PRESENTATION: 0.25,
            SessionFormat.TECHNICAL_WORKSHOP: 0.8,
            SessionFormat.HACKATHON: 1.2,
            SessionFormat.SOCIAL: 1.0,
        }[self]

    @property
    def interaction_intensity(self) -> float:
        """Depth of a single interaction in this format."""
        return {
            SessionFormat.ADMINISTRATIVE: 0.3,
            SessionFormat.PRESENTATION: 0.3,
            SessionFormat.TECHNICAL_WORKSHOP: 0.7,
            SessionFormat.HACKATHON: 1.0,
            SessionFormat.SOCIAL: 0.5,
        }[self]

    @property
    def same_org_bias(self) -> float:
        """Probability an interaction stays within one organisation.

        Presentations and admin sessions keep colleagues sitting
        together; hackathon teams are deliberately cross-organisation.
        """
        return {
            SessionFormat.ADMINISTRATIVE: 0.7,
            SessionFormat.PRESENTATION: 0.65,
            SessionFormat.TECHNICAL_WORKSHOP: 0.35,
            SessionFormat.HACKATHON: 0.15,
            SessionFormat.SOCIAL: 0.45,
        }[self]


@dataclass(frozen=True)
class AgendaItem:
    """One slot of the plenary agenda."""

    title: str
    format: SessionFormat
    hours: float

    def __post_init__(self) -> None:
        if not self.title:
            raise ConfigurationError("agenda item title must be non-empty")
        if self.hours <= 0:
            raise ConfigurationError(
                f"{self.title!r}: duration must be positive, got {self.hours}"
            )


class Agenda:
    """An ordered sequence of agenda items."""

    def __init__(self, name: str, items: List[AgendaItem]) -> None:
        if not items:
            raise ConfigurationError(f"agenda {name!r} must have at least one item")
        self.name = name
        self._items = list(items)

    @property
    def items(self) -> List[AgendaItem]:
        return list(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self):
        return iter(self._items)

    def total_hours(self) -> float:
        return ordered_sum(item.hours for item in self._items)

    def hours_by_format(self) -> dict:
        out = {fmt: 0.0 for fmt in SessionFormat}
        for item in self._items:
            out[item.format] += item.hours
        return out

    def technical_fraction(self) -> float:
        """Fraction of agenda hours in technical formats.

        This is the "balance of managerial and technical staff across
        meeting days" dial the organisers turned after Rome.
        """
        technical = ordered_sum(
            item.hours for item in self._items if item.format.is_technical
        )
        return technical / self.total_hours()

    def has_hackathon(self) -> bool:
        return any(item.format is SessionFormat.HACKATHON for item in self._items)

    def hackathon_items(self) -> List[AgendaItem]:
        return [i for i in self._items if i.format is SessionFormat.HACKATHON]

    def parts(self) -> List[Tuple[str, SessionFormat]]:
        """(title, format) pairs — the options of the "best part" survey."""
        return [(item.title, item.format) for item in self._items]


def traditional_agenda(days: int = 2) -> Agenda:
    """The Rome-style plenary: administrative slots and presentations.

    Each day holds 4 h of administration/reporting and 3 h of one-way
    work-package presentations, plus a social evening slot.
    """
    if days < 1:
        raise ConfigurationError(f"days must be >= 1, got {days}")
    items: List[AgendaItem] = []
    for day in range(1, days + 1):
        items.append(
            AgendaItem(f"Day {day}: project status & planning",
                       SessionFormat.ADMINISTRATIVE, 4.0)
        )
        items.append(
            AgendaItem(f"Day {day}: work-package presentations",
                       SessionFormat.PRESENTATION, 3.0)
        )
        items.append(
            AgendaItem(f"Day {day}: social dinner", SessionFormat.SOCIAL, 1.5)
        )
    return Agenda(name=f"traditional-{days}d", items=items)


def hackathon_agenda(
    days: int = 2,
    session_hours: float = 4.0,
    sessions: int = 2,
) -> Agenda:
    """The Helsinki/Paris-style plenary with a hackathon day.

    Day 1 keeps a reduced administrative programme; day 2 is the
    hackathon: morning pitches, then ``sessions`` working sessions of
    ``session_hours`` each (the paper used 2 x 4 h), then the plenum
    presentation and voting slot.
    """
    if days < 2:
        raise ConfigurationError(
            f"a hackathon plenary needs at least 2 days, got {days}"
        )
    if sessions < 1:
        raise ConfigurationError(f"sessions must be >= 1, got {sessions}")
    items = [
        AgendaItem("Day 1: project status & planning",
                   SessionFormat.ADMINISTRATIVE, 3.0),
        AgendaItem("Day 1: work-package presentations",
                   SessionFormat.PRESENTATION, 2.0),
        AgendaItem("Day 1: technical alignment workshop",
                   SessionFormat.TECHNICAL_WORKSHOP, 2.0),
        AgendaItem("Day 1: social dinner", SessionFormat.SOCIAL, 1.5),
        AgendaItem("Day 2: challenge pitches", SessionFormat.PRESENTATION, 1.0),
    ]
    for s in range(1, sessions + 1):
        items.append(
            AgendaItem(
                f"Day 2: hackathon session {s}",
                SessionFormat.HACKATHON,
                session_hours,
            )
        )
    items.append(
        AgendaItem("Day 2: demo plenum & voting", SessionFormat.PRESENTATION, 1.5)
    )
    # Remaining days (if any) return to coordination work.
    for day in range(3, days + 1):
        items.append(
            AgendaItem(f"Day {day}: coordination sessions",
                       SessionFormat.ADMINISTRATIVE, 4.0)
        )
    return Agenda(name=f"hackathon-{days}d", items=items)


def interleaved_agenda(
    days: int = 2,
    session_hours: float = 2.0,
    sessions_per_day: int = 2,
) -> Agenda:
    """The paper's proposed evolution (Sec. VI, mitigation).

    "We are considering to adjust the hackathon sessions over several
    days of the plenaries, and interleaving them with the project
    coordination sessions to make the two technical and administrative
    aspects more cohesive."

    Every day alternates a coordination block, a hackathon session, a
    reporting block and another hackathon session.  With the defaults
    (2 days x 2 sessions x 2 h) the total hackathon time stays at the
    canonical 8 hours of the 2 x 4 h single-day format, so the two
    layouts are directly comparable.
    """
    if days < 1:
        raise ConfigurationError(f"days must be >= 1, got {days}")
    if sessions_per_day < 1:
        raise ConfigurationError(
            f"sessions_per_day must be >= 1, got {sessions_per_day}"
        )
    items: List[AgendaItem] = []
    for day in range(1, days + 1):
        items.append(
            AgendaItem(f"Day {day}: coordination block",
                       SessionFormat.ADMINISTRATIVE, 2.0)
        )
        for s in range(1, sessions_per_day + 1):
            items.append(
                AgendaItem(
                    f"Day {day}: hackathon session {s}",
                    SessionFormat.HACKATHON,
                    session_hours,
                )
            )
            if s < sessions_per_day:
                items.append(
                    AgendaItem(f"Day {day}: progress reporting {s}",
                               SessionFormat.PRESENTATION, 1.0)
                )
        items.append(
            AgendaItem(f"Day {day}: social dinner", SessionFormat.SOCIAL, 1.0)
        )
    items.append(
        AgendaItem("Final demo plenum & voting", SessionFormat.PRESENTATION, 1.5)
    )
    return Agenda(name=f"interleaved-{days}d", items=items)
