"""The collaboration network.

Nodes are member ids; weighted edges are working relationships.  The
network is what the hackathon is supposed to change: the paper's
headline observation is "significant improvement on partner
interactions either among use cases and tools providers and between
tool providers" — i.e. new and stronger inter-organisation ties.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.network.incremental import IncrementalMetrics
from repro.numeric import ordered_sum

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["CollaborationNetwork"]


class CollaborationNetwork:
    """Weighted undirected graph of working relationships.

    Edge weights are non-negative "tie strengths"; a tie with strength
    below :attr:`tie_threshold` is considered latent (not yet a real
    collaboration).  Each node carries its member's organisation so
    inter-organisation metrics don't need the consortium object.

    Storage is two insertion-ordered dicts in the layout ``nx.Graph``
    uses: ``_org`` maps member -> organisation, and ``_adj`` maps
    member -> neighbour -> edge data, with one ``{"weight": w}`` dict
    shared by both directions of an edge.  Iteration orders (which fix
    the float summation order of :meth:`total_strength`) are therefore
    the ones a networkx graph built by the same calls would have, and
    the engine never imports networkx; :meth:`as_networkx` builds a
    real graph on demand.
    """

    def __init__(self, tie_threshold: float = 0.1) -> None:
        if tie_threshold <= 0:
            raise ConfigurationError(
                f"tie_threshold must be positive, got {tie_threshold}"
            )
        self._org: Dict[str, str] = {}
        self._adj: Dict[str, Dict[str, Dict[str, float]]] = {}
        self.tie_threshold = tie_threshold
        # Generation counter for the derived-view caches below: every
        # weight mutation bumps it, so ties()/inter_org_ties() rescan
        # and re-sort edges only after an actual change instead of on
        # every query (tie_count, metrics, trajectory points...).
        self._generation = 0
        self._ties_cache: List[Tuple[str, str, float]] = []
        self._ties_generation = -1
        self._inter_org_cache: List[Tuple[str, str, float]] = []
        self._inter_org_generation = -1
        self._org_pairs_cache: frozenset = frozenset()
        # Incremental tie-graph shape tracker (components, triangles).
        # None until the first metrics snapshot asks for it; from then
        # on strengthen/weaken_all keep it current, so snapshots never
        # rebuild the graph structure from scratch again.
        self._tracker: Optional[IncrementalMetrics] = None

    # -- construction -----------------------------------------------------

    def add_member(self, member_id: str, org_id: str) -> None:
        """Register a node; re-adding with the same org is a no-op."""
        if member_id in self._org:
            existing = self._org[member_id]
            if existing != org_id:
                raise ConfigurationError(
                    f"member {member_id!r} already registered with org "
                    f"{existing!r}, cannot re-register with {org_id!r}"
                )
            return
        self._org[member_id] = org_id
        self._adj[member_id] = {}
        if self._tracker is not None:
            self._tracker.add_node(member_id)

    def add_members(self, pairs: Iterable[Tuple[str, str]]) -> None:
        for member_id, org_id in pairs:
            self.add_member(member_id, org_id)

    def strengthen(self, a: str, b: str, amount: float) -> float:
        """Add ``amount`` to the tie between ``a`` and ``b``.

        Returns the new strength.  Self-ties are rejected.
        """
        if a == b:
            raise ConfigurationError(f"cannot create a self-tie on {a!r}")
        if amount < 0:
            raise ConfigurationError(f"amount must be non-negative, got {amount}")
        adj = self._adj
        for node in (a, b):
            if node not in adj:
                raise ConfigurationError(f"unknown member {node!r}")
        data = adj[a].get(b)
        old = data["weight"] if data is not None else 0.0
        new = old + amount
        if data is not None:
            data["weight"] = new
        else:
            adj[a][b] = adj[b][a] = {"weight": new}
        self._generation += 1
        if self._tracker is not None and old < self.tie_threshold <= new:
            self._tracker.tie_added(a, b)
        return new

    def weaken_all(self, factor: float, floor: float = 1e-3) -> int:
        """Multiply every tie by ``factor``; drop ties below ``floor``.

        Returns the number of edges removed.  This is the between-events
        decay used by :mod:`repro.network.dynamics`.
        """
        if not 0.0 <= factor <= 1.0:
            raise ConfigurationError(f"decay factor must be in [0,1], got {factor}")
        to_drop = []
        tracker = self._tracker
        threshold = self.tie_threshold
        # Raw adjacency iteration: an undirected edge appears once per
        # endpoint, so the a < b guard visits (and decays) it exactly once.
        adj = self._adj
        for a, nbrs in adj.items():
            for b, data in nbrs.items():
                if a < b:
                    old = data["weight"]
                    new = old * factor
                    data["weight"] = new
                    dropped = new < floor
                    if dropped:
                        to_drop.append((a, b))
                    if (
                        tracker is not None
                        and old >= threshold
                        and (new < threshold or dropped)
                    ):
                        tracker.tie_removed(a, b)
        for a, b in to_drop:
            del adj[a][b]
            del adj[b][a]
        self._generation += 1
        return len(to_drop)

    # -- queries ----------------------------------------------------------

    def metrics_tracker(self) -> IncrementalMetrics:
        """The incremental tie-graph tracker, created on first use.

        Once created it is fed by every subsequent ``strengthen`` /
        ``weaken_all`` threshold crossing, so metric snapshots read
        maintained state instead of rebuilding the graph.
        """
        if self._tracker is None:
            self._tracker = IncrementalMetrics(self._org, self.ties())
        return self._tracker

    def strength(self, a: str, b: str) -> float:
        nbrs = self._adj.get(a)
        if nbrs is None:
            return 0.0
        data = nbrs.get(b)
        return data["weight"] if data is not None else 0.0

    def has_tie(self, a: str, b: str) -> bool:
        """True when the pair's strength reaches the tie threshold."""
        return self.strength(a, b) >= self.tie_threshold

    def org_of(self, member_id: str) -> str:
        try:
            return self._org[member_id]
        except KeyError:
            raise ConfigurationError(f"unknown member {member_id!r}") from None

    @property
    def member_ids(self) -> List[str]:
        return sorted(self._org)

    def ties(self) -> List[Tuple[str, str, float]]:
        """Edges at/above threshold as sorted (a, b, strength) rows.

        The result is cached until the next weight mutation; treat the
        returned list as read-only.
        """
        if self._ties_generation != self._generation:
            threshold = self.tie_threshold
            rows = [
                (a, b, data["weight"])
                for a, nbrs in self._adj.items()
                for b, data in nbrs.items()
                if a < b and data["weight"] >= threshold
            ]
            rows.sort()
            self._ties_cache = rows
            self._ties_generation = self._generation
        return self._ties_cache

    def tie_count(self) -> int:
        return len(self.ties())

    def inter_org_ties(self) -> List[Tuple[str, str, float]]:
        """Ties whose endpoints belong to different organisations.

        Cached like :meth:`ties`; treat the returned list as read-only.
        """
        if self._inter_org_generation != self._generation:
            org = self._org
            rows = []
            pairs = set()
            for a, b, w in self.ties():
                oa = org[a]
                ob = org[b]
                if oa != ob:
                    rows.append((a, b, w))
                    pairs.add((oa, ob) if oa < ob else (ob, oa))
            self._inter_org_cache = rows
            self._org_pairs_cache = frozenset(pairs)
            self._inter_org_generation = self._generation
        return self._inter_org_cache

    def org_tie_pairs(self) -> frozenset:
        """Unordered organisation pairs connected by at least one tie.

        Derived in the same cached pass as :meth:`inter_org_ties`, so
        the monthly work-plan advance and the trajectory point share
        one scan per decay generation.
        """
        self.inter_org_ties()
        return self._org_pairs_cache

    def ties_between_roles(
        self, orgs_a: Iterable[str], orgs_b: Iterable[str]
    ) -> List[Tuple[str, str, float]]:
        """Ties connecting a member of ``orgs_a`` with one of ``orgs_b``.

        Used for the paper's key pairing: tool providers with case-study
        owners.
        """
        set_a, set_b = set(orgs_a), set(orgs_b)
        out = []
        for a, b, w in self.ties():
            oa, ob = self.org_of(a), self.org_of(b)
            if (oa in set_a and ob in set_b) or (oa in set_b and ob in set_a):
                out.append((a, b, w))
        return out

    def total_strength(self) -> float:
        return ordered_sum(
            data["weight"]
            for a, nbrs in self._adj.items()
            for b, data in nbrs.items()
            if a < b
        )

    def copy(self) -> "CollaborationNetwork":
        """An independent network with the same members, ties and orders."""
        clone = CollaborationNetwork(tie_threshold=self.tie_threshold)
        clone._org = dict(self._org)
        adj = clone._adj = {a: {} for a in self._adj}
        for a, nbrs in self._adj.items():
            for b, data in nbrs.items():
                copied = adj[b].get(a)
                adj[a][b] = copied if copied is not None else dict(data)
        return clone

    def as_networkx(self) -> "nx.Graph":
        """The network as an ``nx.Graph`` (``org`` node and ``weight``
        edge attributes) for external analysis."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from((m, {"org": org}) for m, org in self._org.items())
        # Both directions, as nx.Graph.copy() adds them: the adjacency
        # orders come out the same as a graph grown by networkx itself.
        g.add_edges_from(
            (a, b, data)
            for a, nbrs in self._adj.items()
            for b, data in nbrs.items()
        )
        return g

    def snapshot(self) -> Dict[Tuple[str, str], float]:
        """All edge strengths keyed by sorted pair (including sub-threshold)."""
        return {
            (a, b): data["weight"]
            for a, nbrs in self._adj.items()
            for b, data in nbrs.items()
            if a < b
        }

    def new_ties_since(
        self, snapshot: Dict[Tuple[str, str], float]
    ) -> List[Tuple[str, str]]:
        """Pairs that crossed the tie threshold since ``snapshot``."""
        out = []
        for a, b, w in self.ties():
            if snapshot.get((a, b), 0.0) < self.tie_threshold:
                out.append((a, b))
        return sorted(out)
