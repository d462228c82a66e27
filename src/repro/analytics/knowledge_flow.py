"""Knowledge-flow analytics across the consortium.

The paper's mechanism story is *knowledge exchange*: hackathons make
expertise flow between organisations that presentations never connected.
These helpers quantify that flow from consortium snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.analytics.inequality import gini
from repro.cognition.knowledge import KnowledgeVector
from repro.consortium.consortium import Consortium
from repro.errors import ConfigurationError
from repro.numeric import ordered_sum

__all__ = [
    "org_knowledge_totals",
    "domain_coverage",
    "KnowledgeFlowTracker",
]


def org_knowledge_totals(consortium: Consortium) -> Dict[str, float]:
    """Total knowledge (sum of member proficiencies) per organisation."""
    totals: Dict[str, float] = {}
    for org in consortium.organizations:
        totals[org.org_id] = ordered_sum(
            m.knowledge.total() for m in consortium.members_of(org.org_id)
        )
    return totals


def domain_coverage(consortium: Consortium) -> Dict[str, float]:
    """Best proficiency available anywhere in the consortium, per domain.

    Measures the consortium's joint capability: a domain at 0.9 means
    *someone* can do it well, wherever they sit.
    """
    pooled = KnowledgeVector.pooled(m.knowledge for m in consortium.members)
    return pooled.as_dict()


@dataclass(frozen=True)
class FlowSnapshot:
    """Org totals at one labelled point in time."""

    label: str
    totals: Dict[str, float]

    def consortium_total(self) -> float:
        return ordered_sum(self.totals.values())


class KnowledgeFlowTracker:
    """Ordered snapshots of per-organisation knowledge.

    Take a snapshot before and after each plenary; the deltas tell you
    which organisations learned, and the Gini of the totals tells you
    whether knowledge is concentrating or spreading.
    """

    def __init__(self) -> None:
        self._snapshots: List[FlowSnapshot] = []

    def snapshot(self, consortium: Consortium, label: str) -> FlowSnapshot:
        snap = FlowSnapshot(label=label, totals=org_knowledge_totals(consortium))
        self._snapshots.append(snap)
        return snap

    @property
    def snapshots(self) -> List[FlowSnapshot]:
        return list(self._snapshots)

    def delta(self, from_label: str, to_label: str) -> Dict[str, float]:
        """Per-organisation knowledge change between two snapshots."""
        a = self._find(from_label)
        b = self._find(to_label)
        orgs = set(a.totals) | set(b.totals)
        return {
            org: b.totals.get(org, 0.0) - a.totals.get(org, 0.0)
            for org in sorted(orgs)
        }

    def total_growth(self) -> float:
        """Consortium-wide knowledge growth from first to last snapshot."""
        if len(self._snapshots) < 2:
            return 0.0
        return (
            self._snapshots[-1].consortium_total()
            - self._snapshots[0].consortium_total()
        )

    def top_learners(self, from_label: str, to_label: str, k: int = 5
                     ) -> List[Tuple[str, float]]:
        """Organisations that gained the most knowledge, descending."""
        if k < 1:
            raise ConfigurationError(f"k must be >= 1, got {k}")
        deltas = self.delta(from_label, to_label)
        ranked = sorted(deltas.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:k]

    def concentration(self, label: str) -> float:
        """Gini of org knowledge totals at a snapshot (0 = evenly spread)."""
        return gini(list(self._find(label).totals.values()))

    def _find(self, label: str) -> FlowSnapshot:
        for snap in self._snapshots:
            if snap.label == label:
                return snap
        raise ConfigurationError(f"no snapshot labelled {label!r}")
