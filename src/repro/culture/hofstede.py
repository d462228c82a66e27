"""Hofstede's six cultural dimensions, with published country scores.

The paper (Sec. III-A, Fig. 1) uses the Hofstede Insights country
comparison to argue that the six MegaM@Rt2 countries differ culturally
in ways that affect collaboration.  This module encodes the model: the
six dimensions, their definitions, and the published 0–100 scores for
the project countries plus a few extras used in examples.

Scores are the commonly cited Hofstede Insights values (accessed values
match the chart reproduced in the paper's Fig. 1 era, 2018).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Tuple

from repro.errors import UnknownCountryError
from repro.numeric import ordered_sum

__all__ = [
    "Dimension",
    "HofstedeProfile",
    "COUNTRY_SCORES",
    "profile_for",
    "known_countries",
    "MEGAMART_COUNTRIES",
]


class Dimension(enum.Enum):
    """The six Hofstede dimensions as enumerated in the paper."""

    POWER_DISTANCE = "pdi"
    INDIVIDUALISM = "idv"
    MASCULINITY = "mas"
    UNCERTAINTY_AVOIDANCE = "uai"
    LONG_TERM_ORIENTATION = "lto"
    INDULGENCE = "ivr"

    @property
    def description(self) -> str:
        return _DESCRIPTIONS[self]


_DESCRIPTIONS: Dict[Dimension, str] = {
    Dimension.POWER_DISTANCE: (
        "Extent to which the less powerful members of society accept that "
        "power is distributed unequally."
    ),
    Dimension.INDIVIDUALISM: (
        "Individualist versus collectivist: whether people look after "
        "themselves and their immediate family only, or belong to in-groups."
    ),
    Dimension.MASCULINITY: (
        "Dominant values are achievement and success versus caring for "
        "others and quality of life."
    ),
    Dimension.UNCERTAINTY_AVOIDANCE: (
        "Extent to which people feel threatened by uncertainty and ambiguity "
        "and try to avoid such situations."
    ),
    Dimension.LONG_TERM_ORIENTATION: (
        "Extent to which people show a pragmatic, future-oriented perspective "
        "rather than a normative, short-term point of view."
    ),
    Dimension.INDULGENCE: (
        "Extent to which people try to control their desires and impulses."
    ),
}


@dataclass(frozen=True)
class HofstedeProfile:
    """A country's six dimension scores, each on the 0–100 scale."""

    country: str
    pdi: int
    idv: int
    mas: int
    uai: int
    lto: int
    ivr: int

    def __post_init__(self) -> None:
        for dim in Dimension:
            score = getattr(self, dim.value)
            if not 0 <= score <= 100:
                raise ValueError(
                    f"{self.country}: {dim.value} score must be in [0,100], "
                    f"got {score}"
                )

    def score(self, dimension: Dimension) -> int:
        """Score on ``dimension``."""
        return int(getattr(self, dimension.value))

    def as_dict(self) -> Dict[str, int]:
        return {dim.value: self.score(dim) for dim in Dimension}

    def as_vector(self) -> Tuple[int, ...]:
        """Scores in canonical :class:`Dimension` order."""
        return tuple(self.score(dim) for dim in Dimension)


#: Published Hofstede Insights scores.  The first six are the MegaM@Rt2
#: consortium countries (paper Sec. III-A); the rest appear in examples.
COUNTRY_SCORES: Dict[str, HofstedeProfile] = {
    profile.country: profile
    for profile in (
        HofstedeProfile("Finland", pdi=33, idv=63, mas=26, uai=59, lto=38, ivr=57),
        HofstedeProfile("Sweden", pdi=31, idv=71, mas=5, uai=29, lto=53, ivr=78),
        HofstedeProfile(
            "Czech Republic", pdi=57, idv=58, mas=57, uai=74, lto=70, ivr=29
        ),
        HofstedeProfile("Italy", pdi=50, idv=76, mas=70, uai=75, lto=61, ivr=30),
        HofstedeProfile("Spain", pdi=57, idv=51, mas=42, uai=86, lto=48, ivr=44),
        HofstedeProfile("France", pdi=68, idv=71, mas=43, uai=86, lto=63, ivr=48),
        # Extras for examples / the Innopolis coordinator affiliation.
        HofstedeProfile("Russia", pdi=93, idv=39, mas=36, uai=95, lto=81, ivr=20),
        HofstedeProfile("Germany", pdi=35, idv=67, mas=66, uai=65, lto=83, ivr=40),
        HofstedeProfile(
            "Netherlands", pdi=38, idv=80, mas=14, uai=53, lto=67, ivr=68
        ),
        HofstedeProfile(
            "United Kingdom", pdi=35, idv=89, mas=66, uai=35, lto=51, ivr=69
        ),
    )
}

#: The six consortium countries as listed in the paper (Sec. III-A).
MEGAMART_COUNTRIES: Tuple[str, ...] = (
    "Finland",
    "Sweden",
    "Czech Republic",
    "Italy",
    "Spain",
    "France",
)


def profile_for(country: str) -> HofstedeProfile:
    """Look up the profile for ``country``.

    Raises
    ------
    UnknownCountryError
        If no scores are recorded for ``country``.
    """
    try:
        return COUNTRY_SCORES[country]
    except KeyError:
        raise UnknownCountryError(country) from None


def known_countries() -> List[str]:
    """Countries with recorded scores, sorted alphabetically."""
    return sorted(COUNTRY_SCORES)


def dimension_variance(countries: Iterable[str] = MEGAMART_COUNTRIES) -> Dict[
    Dimension, float
]:
    """Sample variance of each dimension over ``countries``.

    Used by the Kogut–Singh index, which normalises squared score
    differences by the per-dimension variance.
    """
    profiles = [profile_for(c) for c in countries]
    if len(profiles) < 2:
        raise ValueError("need at least two countries to compute variance")
    variances: Dict[Dimension, float] = {}
    for dim in Dimension:
        scores = [p.score(dim) for p in profiles]
        mean = ordered_sum(scores) / len(scores)
        squares = ordered_sum((s - mean) ** 2 for s in scores)
        variances[dim] = squares / (len(scores) - 1)
    return variances


def comparison_table(
    countries: Iterable[str] = MEGAMART_COUNTRIES,
) -> List[Tuple[str, Mapping[str, int]]]:
    """Rows of ``(country, {dimension_code: score})`` — the Fig. 1 data."""
    return [(c, profile_for(c).as_dict()) for c in countries]
