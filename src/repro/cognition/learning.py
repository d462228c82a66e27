"""The inverted-U learning model.

Nooteboom's theory — which the paper leans on to explain why very large
consortia under-perform — says the *value* of an interaction between two
parties is the product of

* **novelty**, which grows with cognitive distance (there is something
  new to learn), and
* **understanding**, which shrinks with cognitive distance (they can
  still communicate).

The product ``d * (1 - d)`` peaks at intermediate distance: the
inverted U.  :class:`LearningModel` generalises this with a tunable
exponent and converts interaction events into knowledge-transfer rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.cognition.distance import cognitive_distance
from repro.cognition.knowledge import KnowledgeVector
from repro.errors import ConfigurationError

__all__ = ["LearningModel", "optimal_distance"]


@dataclass(frozen=True)
class LearningModel:
    """Maps cognitive distance to learning value and transfer rates.

    Parameters
    ----------
    novelty_exponent:
        Exponent ``a`` on the novelty term: value = d**a * (1-d)**b.
    understanding_exponent:
        Exponent ``b`` on the understanding term.
    max_transfer_rate:
        Transfer rate (fraction of proficiency gap absorbed per hour of
        joint work) achieved at the peak of the inverted U.
    cultural_attenuation:
        How strongly cultural distance suppresses transfer, in [0, 1].
        0 means culture is ignored; 1 means a maximal cultural distance
        reduces transfer to zero.  The paper lists cultural heritage as
        one of the distances hackathons must bridge.
    """

    novelty_exponent: float = 1.0
    understanding_exponent: float = 1.0
    max_transfer_rate: float = 0.12
    cultural_attenuation: float = 0.5

    def __post_init__(self) -> None:
        if self.novelty_exponent <= 0 or self.understanding_exponent <= 0:
            raise ConfigurationError(
                "learning exponents must be positive, got "
                f"a={self.novelty_exponent}, b={self.understanding_exponent}"
            )
        if not 0.0 < self.max_transfer_rate <= 1.0:
            raise ConfigurationError(
                f"max_transfer_rate must be in (0,1], got {self.max_transfer_rate}"
            )
        if not 0.0 <= self.cultural_attenuation <= 1.0:
            raise ConfigurationError(
                "cultural_attenuation must be in [0,1], "
                f"got {self.cultural_attenuation}"
            )
        # The inverted-U normalisation peak depends only on the (frozen)
        # exponents; precompute it once instead of on every call.
        a, b = self.novelty_exponent, self.understanding_exponent
        peak_d = a / (a + b)
        object.__setattr__(
            self, "_peak", (peak_d**a) * ((1.0 - peak_d) ** b)
        )

    def learning_value(self, distance: float) -> float:
        """Inverted-U value of an interaction at ``distance``, in [0, 1].

        Normalised so the peak value is exactly 1.0.
        """
        if not 0.0 <= distance <= 1.0:
            raise ValueError(f"distance must be in [0,1], got {distance}")
        raw = (distance**self.novelty_exponent) * (
            (1.0 - distance) ** self.understanding_exponent
        )
        peak = self._peak
        return raw / peak if peak > 0 else 0.0

    def transfer_rate(
        self,
        a: KnowledgeVector,
        b: KnowledgeVector,
        hours: float = 1.0,
        cultural_distance: float = 0.0,
    ) -> float:
        """Fraction of the proficiency gap absorbed during joint work.

        The rate saturates with hours (diminishing returns within a
        single working session) and is attenuated by cultural distance.
        """
        if hours < 0:
            raise ValueError(f"hours must be non-negative, got {hours}")
        if not 0.0 <= cultural_distance <= 1.0:
            raise ValueError(
                f"cultural_distance must be in [0,1], got {cultural_distance}"
            )
        value = self.learning_value(cognitive_distance(a, b))
        cultural_factor = 1.0 - self.cultural_attenuation * cultural_distance
        # Saturating time response: 1h -> ~0.39 of asymptote, 4h -> ~0.86.
        time_factor = 1.0 - math.exp(-hours / 2.0)
        return self.max_transfer_rate * value * cultural_factor * time_factor

    def exchange(
        self,
        a: KnowledgeVector,
        b: KnowledgeVector,
        hours: float = 1.0,
        cultural_distance: float = 0.0,
    ) -> tuple:
        """Mutual learning: both parties absorb from each other.

        Returns the pair of updated vectors ``(a', b')``.
        """
        rate = self.transfer_rate(a, b, hours, cultural_distance)
        return a.absorb(b, rate), b.absorb(a, rate)


def optimal_distance(model: LearningModel) -> float:
    """Cognitive distance at which ``model`` attains peak learning value."""
    a, b = model.novelty_exponent, model.understanding_exponent
    return a / (a + b)
