"""Structural metrics over the collaboration network.

The paper's "distance" story has a graph reading: in a huge consortium
the network starts as disconnected organisational clusters, and the
hackathon's job is to create *bridging* inter-organisation ties.  These
metrics quantify that.

:func:`compute_metrics` reads the incrementally maintained tie-graph
state (:mod:`repro.network.incremental`) and derives every float with
the exact operation sequence of the networkx implementation, which
``tests/oracles.py`` keeps verbatim as ``compute_metrics_oracle`` — the
property tests in ``tests/test_incremental_metrics.py`` pin the two
bit-equal under randomized tie add/decay histories.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set

import networkx as nx

from repro.network.graph import CollaborationNetwork

__all__ = ["NetworkMetrics", "compute_metrics"]


@dataclass(frozen=True)
class NetworkMetrics:
    """A snapshot of network structure."""

    members: int
    ties: int
    inter_org_ties: int
    density: float
    components: int
    largest_component_fraction: float
    mean_tie_strength: float
    inter_org_fraction: float
    clustering: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "members": self.members,
            "ties": self.ties,
            "inter_org_ties": self.inter_org_ties,
            "density": self.density,
            "components": self.components,
            "largest_component_fraction": self.largest_component_fraction,
            "mean_tie_strength": self.mean_tie_strength,
            "inter_org_fraction": self.inter_org_fraction,
            "clustering": self.clustering,
        }


def _tie_graph(network: CollaborationNetwork) -> nx.Graph:
    """Graph restricted to edges at/above the tie threshold."""
    g = nx.Graph()
    g.add_nodes_from(network.member_ids)
    for a, b, w in network.ties():
        g.add_edge(a, b, weight=w)
    return g


def compute_metrics(network: CollaborationNetwork) -> NetworkMetrics:
    """Compute the standard metric snapshot of ``network``.

    Bit-equal to the networkx implementation: the integer state
    (degrees, triangles, components) comes from the maintained tracker,
    and each float replicates the networkx formula — including
    ``nx.density``'s ``(m / (n * (n - 1))) * 2`` grouping, its integer
    ``0`` for edgeless graphs, and ``nx.average_clustering``'s
    per-node ``t / (d * (d - 1))`` terms summed in node-insertion
    (= sorted member) order.
    """
    ties = network.ties()
    inter = network.inter_org_ties()
    member_ids = network.member_ids
    n = len(member_ids)
    m = len(ties)
    tracker = network.metrics_tracker()
    if n:
        components, largest = tracker.component_stats()
    else:
        components, largest = 0, 0
    if n > 1:
        density = 0 if m == 0 else (m / (n * (n - 1))) * 2
    else:
        density = 0.0
    return NetworkMetrics(
        members=n,
        ties=m,
        inter_org_ties=len(inter),
        density=density,
        components=components,
        largest_component_fraction=(largest / n) if n else 0.0,
        mean_tie_strength=(
            sum(w for _, _, w in ties) / len(ties) if ties else 0.0
        ),
        inter_org_fraction=(len(inter) / len(ties)) if ties else 0.0,
        clustering=(tracker.clustering_sum(member_ids) / n) if n else 0.0,
    )


def organization_reach(network: CollaborationNetwork) -> Dict[str, Set[str]]:
    """For each organisation, the set of *other* organisations it ties to."""
    reach: Dict[str, Set[str]] = {}
    for member in network.member_ids:
        reach.setdefault(network.org_of(member), set())
    for a, b, _ in network.ties():
        oa, ob = network.org_of(a), network.org_of(b)
        if oa != ob:
            reach[oa].add(ob)
            reach[ob].add(oa)
    return reach


def bridge_members(network: CollaborationNetwork) -> List[str]:
    """Members whose removal would disconnect the tie graph.

    These are the paper's informal "key people" through whom entire
    organisations stay connected; a healthy post-hackathon network has
    fewer single points of failure.  Stays networkx-backed: articulation
    points are queried far too rarely to justify incremental upkeep.
    """
    g = _tie_graph(network)
    # Only consider nodes that have ties at all.
    g.remove_nodes_from([node for node in list(g) if g.degree(node) == 0])
    return sorted(nx.articulation_points(g)) if g.number_of_nodes() else []


def isolated_organizations(network: CollaborationNetwork) -> List[str]:
    """Organisations with no inter-organisation tie at all."""
    reach = organization_reach(network)
    return sorted(org for org, others in reach.items() if not others)
