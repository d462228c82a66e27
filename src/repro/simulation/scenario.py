"""Scenario configuration for longitudinal project simulations.

A :class:`Scenario` is a seedable description of a project timeline: a
sequence of plenary meetings (traditional or hackathon-style) at given
months, plus the behavioural knobs (follow-up on/off, team policy,
session lengths).  Factories provide the paper's timeline — Rome
(traditional), then Helsinki and Paris (hackathon) — and the
all-traditional counterfactual used as the baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro.errors import ConfigurationError

__all__ = [
    "PlenarySpec",
    "Scenario",
    "megamart_timeline",
    "baseline_timeline",
    "interleaved_timeline",
    "virtual_timeline",
    "hackathon_everywhere_timeline",
]

#: Instance attribute (not a dataclass field, so outside ``==``, ``hash``,
#: ``asdict`` and ``replace``) where the store keeps a scenario's
#: fingerprint once computed.
FINGERPRINT_ATTR = "_fingerprint"

#: Ceilings on the values a run's cost grows with.  Each is far above
#: any timeline in the repository (at most 8 h sessions, 4 sessions,
#: 3 days and a 42-month horizon); a value beyond one would hold a
#: worker for minutes or, when infinite, forever.
MAX_SESSION_HOURS = 24.0
MAX_SESSIONS = 16
MAX_DAYS = 14
MAX_END_MONTH = 1200.0


@dataclass(frozen=True)
class PlenarySpec:
    """One plenary on the project timeline.

    ``kind`` selects the agenda family: ``traditional`` (Rome-style),
    ``hackathon`` (the paper's single-day format) or ``interleaved``
    (the paper's proposed evolution: hackathon sessions spread over the
    plenary days, alternating with coordination blocks).  ``mode``
    selects face-to-face / virtual / hybrid delivery.
    """

    name: str
    month: float
    kind: str  # "traditional" | "hackathon" | "interleaved"
    days: int = 2
    session_hours: float = 4.0
    sessions: int = 2
    mode: str = "face_to_face"  # "face_to_face" | "virtual" | "hybrid"
    #: Fraction of attendees joining through the remote lane of a hybrid
    #: plenary.  ``None`` keeps the classic uniform-mode behaviour; a
    #: value splits the roster per participant: remote members engage
    #: and interact at virtual-lane depth, on-site members at
    #: face-to-face depth, and cross-lane interactions land in between.
    remote_share: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in ("traditional", "hackathon", "interleaved"):
            raise ConfigurationError(
                f"{self.name}: kind must be 'traditional', 'hackathon' or "
                f"'interleaved', got {self.kind!r}"
            )
        if self.mode not in ("face_to_face", "virtual", "hybrid"):
            raise ConfigurationError(
                f"{self.name}: mode must be 'face_to_face', 'virtual' or "
                f"'hybrid', got {self.mode!r}"
            )
        if not math.isfinite(self.month):
            raise ConfigurationError(
                f"{self.name}: month must be finite, got {self.month}"
            )
        if self.month < 0:
            raise ConfigurationError(
                f"{self.name}: month must be >= 0, got {self.month}"
            )
        if self.session_hours <= 0 or self.sessions < 1:
            raise ConfigurationError(
                f"{self.name}: invalid session plan "
                f"({self.sessions} x {self.session_hours} h)"
            )
        # ``not x <= ceiling`` also refuses NaN.
        if not (self.session_hours <= MAX_SESSION_HOURS
                and self.sessions <= MAX_SESSIONS):
            raise ConfigurationError(
                f"{self.name}: session plan {self.sessions} x "
                f"{self.session_hours} h exceeds {MAX_SESSIONS} x "
                f"{MAX_SESSION_HOURS} h"
            )
        if self.days > MAX_DAYS:
            raise ConfigurationError(
                f"{self.name}: days must be <= {MAX_DAYS}, got {self.days}"
            )
        if self.remote_share is not None:
            if not 0.0 <= self.remote_share <= 1.0:
                raise ConfigurationError(
                    f"{self.name}: remote_share must be in [0,1], "
                    f"got {self.remote_share}"
                )
            if self.mode != "hybrid":
                raise ConfigurationError(
                    f"{self.name}: remote_share needs mode='hybrid', "
                    f"got mode={self.mode!r}"
                )

    @property
    def is_hackathon(self) -> bool:
        """True for any agenda containing hackathon sessions."""
        return self.kind in ("hackathon", "interleaved")


@dataclass(frozen=True)
class Scenario:
    """A complete longitudinal simulation configuration."""

    name: str
    seed: int = 0
    plenaries: Tuple[PlenarySpec, ...] = ()
    followup_enabled: bool = True
    team_policy: str = "subscription"  # subscription | balanced | random
    per_owner_challenges: int = 1
    recovery_per_month: float = 0.25
    horizon_months: Optional[float] = None
    #: Global modifiers a scenario plugin can turn on.  All of them
    #: default to the identity, so classic scenarios keep bit-identical
    #: KPIs.
    #:
    #: ``engagement_scale`` / ``mixing_scale`` attenuate session
    #: engagement and spontaneous mixing on top of the meeting mode —
    #: the socio-technical constraints of online events (Mendes et al.
    #: 2022) that the plain virtual mode does not capture.
    engagement_scale: float = 1.0
    mixing_scale: float = 1.0
    #: Adversarial participants: a seeded ``free_rider_share`` of the
    #: roster engages and interacts at ``free_rider_factor`` depth; a
    #: seeded ``withholding_share`` still absorbs knowledge but lets
    #: others absorb from *them* only at ``withholding_factor`` of the
    #: normal transfer rate.
    free_rider_share: float = 0.0
    free_rider_factor: float = 0.35
    withholding_share: float = 0.0
    withholding_factor: float = 0.2
    #: Registry provenance: which plugin (or spec file) defined the
    #: scenario, and under which spec-schema version.  Part of the
    #: store fingerprint, so cached KPIs never alias across plugins or
    #: plugin versions that happen to reuse a scenario name.
    plugin: str = "builtin"
    spec_version: str = "1"

    def __post_init__(self) -> None:
        if not self.plenaries:
            raise ConfigurationError(f"scenario {self.name!r} has no plenaries")
        months = [p.month for p in self.plenaries]
        if months != sorted(months):
            raise ConfigurationError(
                f"scenario {self.name!r}: plenaries must be in month order"
            )
        names = [p.name for p in self.plenaries]
        if len(names) != len(set(names)):
            raise ConfigurationError(
                f"scenario {self.name!r}: duplicate plenary names"
            )
        if not self.end_month <= MAX_END_MONTH:  # also refuses NaN
            raise ConfigurationError(
                f"scenario {self.name!r}: end month must be <= "
                f"{MAX_END_MONTH}, got {self.end_month}"
            )
        if self.team_policy not in ("subscription", "balanced", "random"):
            raise ConfigurationError(
                f"unknown team policy {self.team_policy!r}"
            )
        if self.per_owner_challenges < 1:
            raise ConfigurationError(
                f"per_owner_challenges must be >= 1, got {self.per_owner_challenges}"
            )
        for knob in ("engagement_scale", "mixing_scale", "free_rider_factor"):
            value = getattr(self, knob)
            if not 0.0 < value <= 1.0:
                raise ConfigurationError(
                    f"{knob} must be in (0,1], got {value}"
                )
        if not 0.0 <= self.withholding_factor <= 1.0:
            raise ConfigurationError(
                f"withholding_factor must be in [0,1], "
                f"got {self.withholding_factor}"
            )
        for knob in ("free_rider_share", "withholding_share"):
            value = getattr(self, knob)
            if not 0.0 <= value < 1.0:
                raise ConfigurationError(
                    f"{knob} must be in [0,1), got {value}"
                )
        if not self.plugin:
            raise ConfigurationError("plugin provenance must be non-empty")
        if not self.spec_version:
            raise ConfigurationError("spec_version must be non-empty")

    @property
    def end_month(self) -> float:
        explicit = self.horizon_months
        last = self.plenaries[-1].month
        return max(explicit, last) if explicit is not None else last

    def with_seed(self, seed: int) -> "Scenario":
        """Copy of this scenario under a different master seed.

        The seed is not part of the store fingerprint, so the copy keeps
        the fingerprint :func:`~repro.store.fingerprint.scenario_fingerprint`
        stored on this instance, if any.  No other copy carries it.
        """
        copy = replace(self, seed=seed)
        stored = self.__dict__.get(FINGERPRINT_ATTR)
        if stored is not None:
            object.__setattr__(copy, FINGERPRINT_ATTR, stored)
        return copy

    def __getstate__(self) -> dict:
        # Pickles and copy.copy/deepcopy carry the fields only, never a
        # stored fingerprint.
        state = dict(self.__dict__)
        state.pop(FINGERPRINT_ATTR, None)
        return state

    def hackathon_count(self) -> int:
        return sum(1 for p in self.plenaries if p.is_hackathon)


def megamart_timeline(
    seed: int = 0,
    followup_enabled: bool = True,
    team_policy: str = "subscription",
) -> Scenario:
    """The paper's observed sequence: Rome, then Helsinki and Paris.

    Rome (month 0) was the traditional plenary whose feedback triggered
    the intervention; Helsinki (month 6) and Paris (month 12) ran the
    internal hackathon.
    """
    return Scenario(
        name="megamart-hackathon",
        seed=seed,
        plenaries=(
            PlenarySpec("Rome", month=0.0, kind="traditional"),
            PlenarySpec("Helsinki", month=6.0, kind="hackathon"),
            PlenarySpec("Paris", month=12.0, kind="hackathon"),
        ),
        followup_enabled=followup_enabled,
        team_policy=team_policy,
        horizon_months=18.0,
    )


def baseline_timeline(seed: int = 0) -> Scenario:
    """The counterfactual: every plenary stays traditional."""
    return Scenario(
        name="megamart-traditional",
        seed=seed,
        plenaries=(
            PlenarySpec("Rome", month=0.0, kind="traditional"),
            PlenarySpec("Helsinki", month=6.0, kind="traditional"),
            PlenarySpec("Paris", month=12.0, kind="traditional"),
        ),
        horizon_months=18.0,
    )


def interleaved_timeline(seed: int = 0) -> Scenario:
    """The paper's proposed evolution applied to the same timeline.

    Helsinki and Paris use the interleaved layout (hackathon sessions
    spread across both plenary days, alternating with coordination
    blocks) with the same total hackathon hours as the single-day
    format, enabling a direct layout ablation.
    """
    return Scenario(
        name="megamart-interleaved",
        seed=seed,
        plenaries=(
            PlenarySpec("Rome", month=0.0, kind="traditional"),
            PlenarySpec("Helsinki", month=6.0, kind="interleaved",
                        session_hours=2.0, sessions=2),
            PlenarySpec("Paris", month=12.0, kind="interleaved",
                        session_hours=2.0, sessions=2),
        ),
        horizon_months=18.0,
    )


def virtual_timeline(seed: int = 0) -> Scenario:
    """The hackathon timeline delivered over video calls.

    Used by the ABL-VIRTUAL bench to quantify the paper's face-to-face
    argument: same agendas, same cadence, virtual mode.
    """
    return Scenario(
        name="megamart-virtual",
        seed=seed,
        plenaries=(
            PlenarySpec("Rome", month=0.0, kind="traditional",
                        mode="virtual"),
            PlenarySpec("Helsinki", month=6.0, kind="hackathon",
                        mode="virtual"),
            PlenarySpec("Paris", month=12.0, kind="hackathon",
                        mode="virtual"),
        ),
        horizon_months=18.0,
    )


def hackathon_everywhere_timeline(
    seed: int = 0, interval_months: float = 1.0, count: int = 12
) -> Scenario:
    """A stress scenario: hackathons at every short interval.

    Used by the frequency ablation to reproduce the paper's burnout
    warning — "hackathons cannot be used as a day-to-day practice".
    """
    if count < 1:
        raise ConfigurationError(f"count must be >= 1, got {count}")
    if interval_months <= 0:
        raise ConfigurationError(
            f"interval_months must be > 0, got {interval_months}"
        )
    plenaries = tuple(
        PlenarySpec(f"hack{i:02d}", month=i * interval_months, kind="hackathon")
        for i in range(count)
    )
    return Scenario(
        name=f"hackathon-every-{interval_months}m",
        seed=seed,
        plenaries=plenaries,
        horizon_months=count * interval_months + 6.0,
    )
