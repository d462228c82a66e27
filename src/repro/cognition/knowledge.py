"""Knowledge profiles of project members.

A :class:`KnowledgeVector` maps *knowledge domains* (model-based design,
runtime verification, avionics, telecoms...) to proficiency levels in
[0, 1].  The cognitive-distance machinery of Nooteboom — which the paper
cites as the theoretical ground for why large consortia struggle — is
built on top of these profiles in :mod:`repro.cognition.distance`.

Internally a vector is a dense ``float64`` array over a process-wide
:class:`DomainRegistry` (an append-only intern table mapping domain
names to array indices).  The mapping API is unchanged, but the hot
operations — cosine similarity, norm, absorb, pooling — are O(1)
vectorized NumPy calls with no per-call dict allocation, and the
scalar reductions (:meth:`norm`, :meth:`total`) are cached, which is
sound because vectors are immutable: every mutating operation returns
a new vector.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from repro.numeric import ordered_sum

__all__ = [
    "KnowledgeVector",
    "DomainRegistry",
    "DEFAULT_DOMAINS",
    "registered_domains",
]

#: Knowledge domains used by the MegaM@Rt2 preset.  They mirror the
#: project's technical scope (Sec. II): scalable model-based methods,
#: runtime V&V, traceability, plus the industrial application domains.
DEFAULT_DOMAINS: Tuple[str, ...] = (
    "model_based_design",
    "runtime_verification",
    "static_analysis",
    "traceability",
    "requirements_engineering",
    "performance_analysis",
    "embedded_systems",
    "telecom",
    "transportation",
    "logistics",
    "avionics",
    "testing",
)


class DomainRegistry:
    """Append-only intern table: domain name -> dense array index.

    All :class:`KnowledgeVector` instances in a process share one
    registry, so any two vectors agree on what each array slot means
    and binary operations never need name-based alignment — only
    zero-padding when the registry grew between their creations.
    """

    __slots__ = ("_index", "_names")

    def __init__(self, domains: Iterable[str] = ()) -> None:
        self._index: Dict[str, int] = {}
        self._names: List[str] = []
        for domain in domains:
            self.register(domain)

    def register(self, domain: str) -> int:
        """Intern ``domain`` and return its index, appending if new."""
        idx = self._index.get(domain)
        if idx is None:
            if not isinstance(domain, str) or not domain:
                raise ValueError(
                    f"domain must be a non-empty string, got {domain!r}"
                )
            idx = len(self._names)
            self._index[domain] = idx
            self._names.append(domain)
        return idx

    def index(self, domain: str) -> Optional[int]:
        """Index of ``domain`` without registering it; None if unknown."""
        return self._index.get(domain)

    def name(self, idx: int) -> str:
        return self._names[idx]

    def __len__(self) -> int:
        return len(self._names)


#: The process-wide registry.  Seeding it with the default domains means
#: almost every vector is born at full width, so binary ops rarely pad.
_REGISTRY = DomainRegistry(DEFAULT_DOMAINS)


def registered_domains() -> Tuple[str, ...]:
    """Snapshot of the process-wide domain intern order.

    Every vector is dense over this registry, so scalar reductions like
    :meth:`KnowledgeVector.total` depend on its current width (NumPy's
    pairwise summation groups differently as the array grows).  Code
    that caches derived floats across registry growth — notably the
    world-template cache (:mod:`repro.simulation.template`) — includes
    this snapshot in its cache key.
    """
    return tuple(_REGISTRY._names)


def _validate_level(domain: str, level: float) -> None:
    if not isinstance(domain, str) or not domain:
        raise ValueError(f"domain must be a non-empty string, got {domain!r}")
    if not 0.0 <= level <= 1.0:
        raise ValueError(
            f"proficiency for {domain!r} must be in [0,1], got {level}"
        )


def _aligned(a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Zero-pad the shorter of two registry-indexed arrays."""
    na, nb = a.shape[0], b.shape[0]
    if na == nb:
        return a, b
    if na < nb:
        a = np.concatenate([a, np.zeros(nb - na)])
    else:
        b = np.concatenate([b, np.zeros(na - nb)])
    return a, b


class KnowledgeVector:
    """A mapping from knowledge domain to proficiency in [0, 1].

    The class behaves like a read-mostly mapping with vector-space
    helpers (cosine similarity, blending, transfer).  Missing domains
    read as 0.0 proficiency.  Instances are immutable: all "mutating"
    helpers return new vectors, which is what makes the cached
    :meth:`norm`/:meth:`total` reductions safe.

    Examples
    --------
    >>> kv = KnowledgeVector({"testing": 0.8, "telecom": 0.3})
    >>> kv["testing"]
    0.8
    >>> kv["avionics"]
    0.0
    """

    __slots__ = ("_vec", "_norm", "_total", "_count")

    def __init__(self, levels: Mapping[str, float] = ()) -> None:
        pairs: List[Tuple[int, float]] = []
        for domain, level in dict(levels).items():
            _validate_level(domain, level)
            pairs.append((_REGISTRY.register(domain), float(level)))
        vec = np.zeros(len(_REGISTRY))
        for idx, level in pairs:
            vec[idx] = level
        self._vec = vec
        self._norm: Optional[float] = None
        self._total: Optional[float] = None
        self._count: Optional[int] = None

    @classmethod
    def _from_array(cls, vec: np.ndarray) -> "KnowledgeVector":
        """Trusted constructor: take ownership of a registry-indexed array."""
        self = object.__new__(cls)
        self._vec = vec
        self._norm = None
        self._total = None
        self._count = None
        return self

    def __getitem__(self, domain: str) -> float:
        idx = _REGISTRY.index(domain)
        if idx is None or idx >= self._vec.shape[0]:
            return 0.0
        return float(self._vec[idx])

    def __contains__(self, domain: str) -> bool:
        return self[domain] > 0.0

    def __iter__(self) -> Iterator[str]:
        return iter(self.domains())

    def __len__(self) -> int:
        if self._count is None:
            self._count = int(np.count_nonzero(self._vec))
        return self._count

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KnowledgeVector):
            return NotImplemented
        a, b = _aligned(self._vec, other._vec)
        return bool(np.array_equal(a, b))

    def __repr__(self) -> str:
        inner = ", ".join(f"{d}={v:.2f}" for d, v in self.items())
        return f"KnowledgeVector({inner})"

    def __reduce__(self):
        # Serialize by name, not by index: another process's registry
        # may have interned domains in a different order.
        return (KnowledgeVector, (self.as_dict(),))

    def domains(self) -> List[str]:
        """Domains with non-zero proficiency, sorted."""
        return sorted(_REGISTRY.name(i) for i in np.nonzero(self._vec)[0])

    def items(self) -> List[Tuple[str, float]]:
        return sorted(
            (_REGISTRY.name(i), float(self._vec[i]))
            for i in np.nonzero(self._vec)[0]
        )

    def as_dict(self) -> Dict[str, float]:
        """A plain-dict copy of the non-zero levels."""
        return dict(self.items())

    def as_array(self) -> np.ndarray:
        """Read-only view of the dense registry-indexed representation."""
        view = self._vec.view()
        view.flags.writeable = False
        return view

    def norm(self) -> float:
        """Euclidean norm of the proficiency vector (cached)."""
        if self._norm is None:
            v = self._vec
            self._norm = math.sqrt(float(np.dot(v, v)))
        return self._norm

    def total(self) -> float:
        """Sum of proficiencies — a scalar "amount of knowledge" (cached)."""
        if self._total is None:
            self._total = float(self._vec.sum())
        return self._total

    def cosine_similarity(self, other: "KnowledgeVector") -> float:
        """Cosine similarity in [0, 1]; 0.0 if either vector is empty."""
        na, nb = self.norm(), other.norm()
        if na == 0.0 or nb == 0.0:
            return 0.0
        a, b = _aligned(self._vec, other._vec)
        dot = float(np.dot(a, b))
        return min(1.0, max(0.0, dot / (na * nb)))

    def overlap(self, other: "KnowledgeVector") -> float:
        """Jaccard overlap of the supported domains, in [0, 1]."""
        a, b = _aligned(self._vec, other._vec)
        mine, theirs = a > 0.0, b > 0.0
        union = int(np.count_nonzero(mine | theirs))
        if union == 0:
            return 0.0
        return int(np.count_nonzero(mine & theirs)) / union

    def coverage_of(self, required: Iterable[str]) -> float:
        """Mean proficiency over ``required`` domains (0.0 if empty).

        Used to score how well a member (or a pooled team vector)
        covers a challenge's required domains.  The domains are summed
        in sorted order: callers pass frozensets, whose iteration order
        follows the process's string-hash seed.
        """
        req = sorted(required)
        if not req:
            return 0.0
        return ordered_sum(self[d] for d in req) / len(req)

    def updated(self, domain: str, level: float) -> "KnowledgeVector":
        """Return a copy with ``domain`` set to ``level``."""
        _validate_level(domain, float(level))
        idx = _REGISTRY.register(domain)
        vec = self._vec
        if idx >= vec.shape[0]:
            vec = np.concatenate([vec, np.zeros(idx + 1 - vec.shape[0])])
        else:
            vec = vec.copy()
        vec[idx] = float(level)
        return KnowledgeVector._from_array(vec)

    def absorb(self, other: "KnowledgeVector", rate: float) -> "KnowledgeVector":
        """Learn from ``other``: move each domain toward the max of the two.

        ``rate`` in [0, 1] is the fraction of the gap closed; it is the
        output of the learning model (inverted-U in cognitive distance).
        Returns a new vector; proficiency never decreases.
        """
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"absorb rate must be in [0,1], got {rate}")
        a, b = _aligned(self._vec, other._vec)
        gap = b - a
        np.maximum(gap, 0.0, out=gap)
        gap *= rate
        gap += a
        return KnowledgeVector._from_array(gap)

    @staticmethod
    def stack(vectors: Iterable["KnowledgeVector"]) -> np.ndarray:
        """Dense ``(n, width)`` matrix of ``vectors``, zero-padded to a
        common registry width.

        The rows are fresh copies in registry index order — callers may
        mutate them freely (the exchange loop in
        :mod:`repro.meetings.plenary` does exactly that).
        """
        arrays = [v._vec for v in vectors]
        if not arrays:
            return np.zeros((0, len(_REGISTRY)))
        width = max(a.shape[0] for a in arrays)
        out = np.zeros((len(arrays), width))
        for i, a in enumerate(arrays):
            out[i, : a.shape[0]] = a
        return out

    @staticmethod
    def pooled(vectors: Iterable["KnowledgeVector"]) -> "KnowledgeVector":
        """Domain-wise maximum over ``vectors`` — a team's joint profile."""
        arrays = [v._vec for v in vectors]
        if not arrays:
            return KnowledgeVector()
        width = max(a.shape[0] for a in arrays)
        out = np.zeros(width)
        for a in arrays:
            np.maximum(out[: a.shape[0]], a, out=out[: a.shape[0]])
        return KnowledgeVector._from_array(out)
