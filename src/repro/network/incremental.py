"""Incrementally maintained structural state of the tie graph.

:func:`repro.network.metrics.compute_metrics` used to rebuild a
networkx graph and recompute components and clustering from scratch at
every plenary snapshot, per seed lane — the single most expensive
observable in a longitudinal run.  :class:`IncrementalMetrics` keeps the
graph-shape state (tie adjacency, per-node triangle counts, connected
components) up to date as ties cross the threshold in either direction,
so a snapshot is O(nodes) instead of O(nodes + ties + triangles).

The tracker is owned by :class:`~repro.network.graph.CollaborationNetwork`
and fed by its two mutation points:

* :meth:`tie_added` when ``strengthen`` lifts a pair to/over the tie
  threshold,
* :meth:`tie_removed` when ``weaken_all`` decays a tie below it.

Components are maintained as a union-find that merges on tie adds; tie
removals only mark the partition dirty, and the next snapshot rebuilds
it with one traversal of the tie adjacency (removals arrive in monthly
decay batches, so one rebuild typically covers a whole inter-plenary
gap).

Bit-equality: the tracker stores only *integer* state (degrees, double-
counted triangles, component sizes).  All floating-point metric values
are derived at snapshot time by :func:`~repro.network.metrics.compute_metrics`,
replicating the networkx formulas operation by operation; the networkx
implementation is retained as the test oracle (``compute_metrics_oracle``
in ``tests/oracles.py``).
"""

from __future__ import annotations

from typing import Dict, Iterable, Set, Tuple

__all__ = ["IncrementalMetrics"]


class IncrementalMetrics:
    """Tie-graph shape state maintained under tie adds/removals.

    ``t2`` holds networkx's *double-counted* per-node triangle count
    (``_triangles_and_degree_iter`` counts each triangle through a node
    twice), so clustering can reuse its exact formula
    ``t / (d * (d - 1))`` without any correction factor.
    """

    __slots__ = (
        "_adj",
        "_t2",
        "_parent",
        "_size",
        "_components",
        "_largest",
        "_dirty",
    )

    def __init__(self, nodes: Iterable[str], ties: Iterable[Tuple[str, str, float]]) -> None:
        self._adj: Dict[str, Set[str]] = {v: set() for v in nodes}
        self._t2: Dict[str, int] = {v: 0 for v in self._adj}
        self._parent: Dict[str, str] = {}
        self._size: Dict[str, int] = {}
        self._components = 0
        self._largest = 0
        self._dirty = True
        for a, b, _w in ties:
            self._link(a, b)

    # -- mutation events ---------------------------------------------------

    def add_node(self, node: str) -> None:
        """A new member joined the network (always tie-less at first)."""
        if node not in self._adj:
            self._adj[node] = set()
            self._t2[node] = 0
            self._dirty = True

    def tie_added(self, a: str, b: str) -> None:
        """The pair ``(a, b)`` crossed the tie threshold upward."""
        self._link(a, b)
        if not self._dirty:
            self._union(a, b)

    def tie_removed(self, a: str, b: str) -> None:
        """The pair ``(a, b)`` decayed below the tie threshold."""
        adj = self._adj
        adj[a].discard(b)
        adj[b].discard(a)
        common = adj[a] & adj[b]
        if common:
            t2 = self._t2
            k2 = 2 * len(common)
            t2[a] -= k2
            t2[b] -= k2
            for c in common:
                t2[c] -= 2
        # A removal can split a component; rather than search for the
        # (rare) split, rebuild lazily at the next snapshot.
        self._dirty = True

    # -- snapshot queries --------------------------------------------------

    def degree(self, node: str) -> int:
        return len(self._adj[node])

    def triangles2(self, node: str) -> int:
        """Double-counted triangles through ``node`` (networkx convention)."""
        return self._t2[node]

    def component_stats(self) -> Tuple[int, int]:
        """(component count, largest component size) over all nodes."""
        if self._dirty:
            self._rebuild_components()
        return self._components, self._largest

    def clustering_sum(self, node_order: Iterable[str]) -> float:
        """Sum of per-node clustering coefficients in ``node_order``.

        Replicates ``sum(nx.clustering(g).values())`` exactly: each
        node contributes ``t / (d * (d - 1))`` with the double-counted
        triangle count, int ``0`` when triangle-free, accumulated in
        the given node order (networkx iterates the graph's insertion
        order, which for our tie graphs is the sorted member order).
        """
        adj = self._adj
        t2 = self._t2
        acc = 0
        for v in node_order:
            t = t2[v]
            if t != 0:
                d = len(adj[v])
                acc += t / (d * (d - 1))
        return acc

    # -- internals ---------------------------------------------------------

    def _link(self, a: str, b: str) -> None:
        """Adjacency + triangle bookkeeping for one new tie."""
        adj = self._adj
        sa, sb = adj[a], adj[b]
        common = sa & sb
        if common:
            t2 = self._t2
            k2 = 2 * len(common)
            t2[a] += k2
            t2[b] += k2
            for c in common:
                t2[c] += 2
        sa.add(b)
        sb.add(a)

    def _find(self, v: str) -> str:
        parent = self._parent
        root = v
        while parent[root] != root:
            root = parent[root]
        while parent[v] != root:
            parent[v], v = root, parent[v]
        return root

    def _union(self, a: str, b: str) -> None:
        ra, rb = self._find(a), self._find(b)
        if ra == rb:
            return
        size = self._size
        if size[ra] < size[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        size[ra] += size[rb]
        self._components -= 1
        if size[ra] > self._largest:
            self._largest = size[ra]

    def _rebuild_components(self) -> None:
        """One traversal of the tie adjacency refreshes the partition."""
        adj = self._adj
        parent = {v: v for v in adj}
        size = {v: 1 for v in adj}
        components = len(adj)
        largest = 1 if adj else 0
        seen: Set[str] = set()
        for start, nbrs in adj.items():
            if start in seen or not nbrs:
                continue
            seen.add(start)
            stack = [start]
            count = 1
            while stack:
                v = stack.pop()
                for w in adj[v]:
                    if w not in seen:
                        seen.add(w)
                        parent[w] = start
                        stack.append(w)
                        count += 1
            size[start] = count
            components -= count - 1
            if count > largest:
                largest = count
        self._parent = parent
        self._size = size
        self._components = components
        self._largest = largest
        self._dirty = False
