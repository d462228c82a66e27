"""Community structure of the collaboration network.

The paper's diagnosis of large consortia is, in graph terms, *silos*:
before the intervention, collaboration clusters coincide with
organisational boundaries ("it is not likely that all the staff from two
partners ever meet in the project").  A successful hackathon dissolves
that alignment: communities should start cutting across organisations.

:func:`detect_communities` uses greedy modularity maximisation
(networkx, imported on first call); :func:`silo_index` quantifies how
strongly communities align with organisations (1.0 = perfect silos,
0.0 = fully mixed).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import List, Set

from repro.errors import ConfigurationError
from repro.network.graph import CollaborationNetwork

__all__ = ["CommunityStructure", "detect_communities", "silo_index"]


@dataclass(frozen=True)
class CommunityStructure:
    """Detected communities plus their organisational makeup."""

    communities: List[Set[str]]  # member ids, largest first
    modularity: float

    @property
    def count(self) -> int:
        return len(self.communities)

    def community_of(self, member_id: str) -> int:
        """Index of the community containing ``member_id`` (-1 if none)."""
        for i, community in enumerate(self.communities):
            if member_id in community:
                return i
        return -1

    def sizes(self) -> List[int]:
        return [len(c) for c in self.communities]


def detect_communities(network: CollaborationNetwork) -> CommunityStructure:
    """Greedy-modularity communities over the tie graph.

    Members with no ties form no communities of interest and are
    excluded.  An empty tie graph yields zero communities.
    """
    import networkx as nx

    graph = nx.Graph()
    for a, b, weight in network.ties():
        graph.add_edge(a, b, weight=weight)
    if graph.number_of_edges() == 0:
        return CommunityStructure(communities=[], modularity=0.0)
    communities = list(
        nx.community.greedy_modularity_communities(graph, weight="weight")
    )
    communities.sort(key=lambda c: (-len(c), sorted(c)[0]))
    modularity = nx.community.modularity(
        graph, communities, weight="weight"
    )
    return CommunityStructure(
        communities=[set(c) for c in communities],
        modularity=float(modularity),
    )


def silo_index(
    network: CollaborationNetwork,
    structure: CommunityStructure = None,
) -> float:
    """How strongly communities align with organisations, in [0, 1].

    For each community, take the share of its members belonging to the
    community's dominant organisation; the index is the member-weighted
    mean of those shares.  1.0 means every community is a single
    organisation (perfect silos); values near the inverse community
    size mean organisations are fully mixed.

    Raises if the network has no communities to assess.
    """
    if structure is None:
        structure = detect_communities(network)
    if not structure.communities:
        raise ConfigurationError(
            "network has no communities (no ties above threshold)"
        )
    weighted_sum = 0.0
    total_members = 0
    for community in structure.communities:
        orgs = Counter(network.org_of(member) for member in community)
        dominant_share = orgs.most_common(1)[0][1] / len(community)
        weighted_sum += dominant_share * len(community)
        total_members += len(community)
    return weighted_sum / total_members


def cross_org_community_fraction(
    network: CollaborationNetwork,
    structure: CommunityStructure = None,
) -> float:
    """Fraction of communities spanning more than one organisation."""
    if structure is None:
        structure = detect_communities(network)
    if not structure.communities:
        return 0.0
    spanning = sum(
        1
        for community in structure.communities
        if len({network.org_of(m) for m in community}) > 1
    )
    return spanning / len(structure.communities)
