"""Tie formation and decay dynamics.

Relationships strengthen through interaction and decay between events.
The paper's follow-up risk ("the longer-term focus can be missed without
proper follow-up") is exactly a decay phenomenon: ties formed in a
4-hour hackathon fade unless sustained by follow-up work.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.network.graph import CollaborationNetwork

__all__ = ["TieDynamics", "Interaction"]


@dataclass(frozen=True)
class Interaction:
    """One realised interaction between two members.

    ``intensity`` encodes the format: a hallway chat during a
    presentation session is weak; four hours of joint hacking is strong.
    """

    member_a: str
    member_b: str
    intensity: float
    context: str = "meeting"

    def __post_init__(self) -> None:
        if self.member_a == self.member_b:
            raise ConfigurationError("an interaction needs two distinct members")
        if self.intensity < 0:
            raise ConfigurationError(
                f"intensity must be non-negative, got {self.intensity}"
            )


class TieDynamics:
    """Applies interactions and inter-event decay to a network.

    Parameters
    ----------
    strengthen_rate:
        Tie strength gained per unit of interaction intensity.
    monthly_decay:
        Multiplicative survival factor applied per month without
        reinforcement (e.g. 0.85 keeps 85 % of strength each month).
    followup_decay:
        Gentler survival factor used for ties covered by an active
        follow-up plan.
    """

    def __init__(
        self,
        strengthen_rate: float = 0.25,
        monthly_decay: float = 0.85,
        followup_decay: float = 0.97,
    ) -> None:
        if strengthen_rate <= 0:
            raise ConfigurationError(
                f"strengthen_rate must be positive, got {strengthen_rate}"
            )
        for label, factor in (
            ("monthly_decay", monthly_decay),
            ("followup_decay", followup_decay),
        ):
            if not 0.0 <= factor <= 1.0:
                raise ConfigurationError(
                    f"{label} must be in [0,1], got {factor}"
                )
        if followup_decay < monthly_decay:
            raise ConfigurationError(
                "follow-up decay must be gentler (>=) than plain decay: "
                f"{followup_decay} < {monthly_decay}"
            )
        self.strengthen_rate = strengthen_rate
        self.monthly_decay = monthly_decay
        self.followup_decay = followup_decay

    def apply_interaction(
        self, network: CollaborationNetwork, interaction: Interaction
    ) -> float:
        """Strengthen the tie for one interaction; returns new strength."""
        return network.strengthen(
            interaction.member_a,
            interaction.member_b,
            self.strengthen_rate * interaction.intensity,
        )

    def decay_period(
        self,
        network: CollaborationNetwork,
        months: float,
        followed_up_pairs: frozenset = frozenset(),
    ) -> int:
        """Apply ``months`` of decay; returns count of ties dropped.

        Pairs listed in ``followed_up_pairs`` (as sorted 2-tuples) decay
        at the gentler follow-up rate — implemented by first applying
        the plain decay globally, then topping the followed-up pairs
        back up to their follow-up-decayed strength.
        """
        if months < 0:
            raise ConfigurationError(f"months must be non-negative, got {months}")
        if months == 0:
            return 0
        plain = self.monthly_decay**months
        gentle = self.followup_decay**months
        # Record followed-up strengths before global decay, in sorted
        # pair order, not set order: a protected pair that weaken_all
        # drops is re-added below, at the end of the adjacency dicts, and
        # that order fixes total_strength()'s summation order.
        protected = {}
        for pair in sorted(followed_up_pairs):
            a, b = pair
            strength = network.strength(a, b)
            if strength > 0:
                protected[pair] = strength * gentle
        dropped = network.weaken_all(plain)
        for (a, b), target in protected.items():
            current = network.strength(a, b)
            if target > current:
                network.strengthen(a, b, target - current)
        return dropped
