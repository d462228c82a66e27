"""Work packages and deliverables.

The paper's plenaries are organised around Work Packages ("a plenary is
divided in slots for presentation by various partners (e.g. Work
Package leaders)"), and its core complaint is that the people who
actually *produce the deliverables* — the technical staff — were absent
and disconnected.  This module closes the causal loop: deliverable
production advances monthly at a rate driven by (a) the WP partners'
joint knowledge over the WP's domains and (b) how well those partners
are actually connected in the collaboration network.  A hackathon that
builds ties and spreads knowledge therefore shows up as deliverables
landing on time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.cognition.knowledge import KnowledgeVector
from repro.consortium.consortium import Consortium
from repro.errors import ConfigurationError
from repro.network.graph import CollaborationNetwork
from repro.numeric import ordered_sum

__all__ = ["Deliverable", "WorkPackage", "WorkPlan"]


@dataclass
class Deliverable:
    """One contractual deliverable of a work package.

    ``effort`` is the abstract amount of progress required (1.0 =
    a nominal deliverable); ``progress`` accumulates monthly.
    """

    deliv_id: str
    wp_id: str
    due_month: float
    effort: float = 1.0
    progress: float = 0.0
    completed_month: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.deliv_id:
            raise ConfigurationError("deliverable id must be non-empty")
        if self.due_month < 0:
            raise ConfigurationError(
                f"{self.deliv_id}: due month must be >= 0, got {self.due_month}"
            )
        if self.effort <= 0:
            raise ConfigurationError(
                f"{self.deliv_id}: effort must be > 0, got {self.effort}"
            )

    @property
    def is_complete(self) -> bool:
        return self.completed_month is not None

    def is_on_time(self) -> bool:
        """Completed at or before its due month."""
        return self.is_complete and self.completed_month <= self.due_month

    def delay(self, as_of_month: float) -> float:
        """Months past due (0 if on time / not yet due)."""
        end = self.completed_month if self.is_complete else as_of_month
        return max(0.0, end - self.due_month)

    def add_progress(self, amount: float, month: float) -> None:
        if amount < 0:
            raise ConfigurationError(
                f"progress amount must be >= 0, got {amount}"
            )
        if self.is_complete:
            return
        self.progress = min(self.effort, self.progress + amount)
        if self.progress >= self.effort:
            self.completed_month = month


@dataclass
class WorkPackage:
    """A work package with its partner set and technical scope."""

    wp_id: str
    name: str
    leader_org_id: str
    partner_org_ids: FrozenSet[str]
    domains: FrozenSet[str]
    deliverables: List[Deliverable] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.wp_id:
            raise ConfigurationError("work package id must be non-empty")
        if self.leader_org_id not in self.partner_org_ids:
            raise ConfigurationError(
                f"{self.wp_id}: leader {self.leader_org_id!r} must be a partner"
            )
        if not self.domains:
            raise ConfigurationError(
                f"{self.wp_id}: work package needs at least one domain"
            )

    def open_deliverables(self) -> List[Deliverable]:
        """Incomplete deliverables, earliest due date first."""
        pending = [d for d in self.deliverables if not d.is_complete]
        pending.sort(key=lambda d: (d.due_month, d.deliv_id))
        return pending

    # -- production model ---------------------------------------------------

    def knowledge_coverage(self, consortium: Consortium) -> float:
        """Joint proficiency of the WP's technical staff over its domains.

        Memoized on the consortium's ``knowledge_version``: the monthly
        advancement loop queries coverage every simulated month, but
        knowledge only changes at plenaries, so most queries hit the
        cache.
        """
        version = consortium.knowledge_version
        cached = getattr(self, "_coverage_cache", None)
        if cached is not None and cached[0] is consortium and cached[1] == version:
            return cached[2]
        members = [
            m
            for org_id in self.partner_org_ids
            for m in consortium.technical_members(org_id)
        ]
        if not members:
            coverage = 0.0
        else:
            pooled = KnowledgeVector.pooled(m.knowledge for m in members)
            coverage = pooled.coverage_of(self.domains)
        self._coverage_cache = (consortium, version, coverage)
        return coverage

    def collaboration_factor(
        self,
        consortium: Consortium,
        network: CollaborationNetwork,
        org_pairs: Optional[frozenset] = None,
    ) -> float:
        """Fraction of WP partner-organisation pairs with a live tie.

        A WP whose partners never talk produces at the floor rate; a WP
        whose organisations are all connected produces at full speed —
        the "cooperation between partners" the paper found lacking.
        ``org_pairs`` may carry a precomputed
        :meth:`~repro.network.graph.CollaborationNetwork.org_tie_pairs`
        to avoid rescanning the network per work package.
        """
        orgs = sorted(self.partner_org_ids)
        if len(orgs) < 2:
            return 1.0
        if org_pairs is None:
            org_pairs = network.org_tie_pairs()
        connected, total = 0, 0
        for i in range(len(orgs)):
            for j in range(i + 1, len(orgs)):
                total += 1
                if (orgs[i], orgs[j]) in org_pairs:
                    connected += 1
        return connected / total

    def monthly_progress_rate(
        self,
        consortium: Consortium,
        network: CollaborationNetwork,
        base_rate: float,
        org_pairs: Optional[frozenset] = None,
    ) -> float:
        """Progress produced per month under current project state."""
        coverage = self.knowledge_coverage(consortium)
        collaboration = self.collaboration_factor(
            consortium, network, org_pairs
        )
        return base_rate * (0.3 + 0.7 * coverage) * (0.4 + 0.6 * collaboration)


class WorkPlan:
    """All work packages of the project, with monthly advancement."""

    def __init__(self, base_rate: float = 0.22) -> None:
        if base_rate <= 0:
            raise ConfigurationError(f"base_rate must be > 0, got {base_rate}")
        self.base_rate = base_rate
        self._wps: Dict[str, WorkPackage] = {}

    def add(self, wp: WorkPackage) -> None:
        if wp.wp_id in self._wps:
            raise ConfigurationError(f"duplicate work package {wp.wp_id!r}")
        self._wps[wp.wp_id] = wp

    @property
    def work_packages(self) -> List[WorkPackage]:
        return [self._wps[k] for k in sorted(self._wps)]

    def work_package(self, wp_id: str) -> WorkPackage:
        try:
            return self._wps[wp_id]
        except KeyError:
            raise ConfigurationError(f"unknown work package {wp_id!r}") from None

    def deliverables(self) -> List[Deliverable]:
        return [d for wp in self.work_packages for d in wp.deliverables]

    # -- dynamics -----------------------------------------------------------

    def advance_month(
        self,
        month: float,
        consortium: Consortium,
        network: CollaborationNetwork,
    ) -> List[str]:
        """One month of production; returns ids of deliverables completed.

        Each WP's monthly output goes to its earliest-due open
        deliverable; surplus spills into the next one (teams do not
        idle once a deliverable ships).
        """
        completed: List[str] = []
        org_pairs = network.org_tie_pairs()
        for wp in self.work_packages:
            budget = wp.monthly_progress_rate(
                consortium, network, self.base_rate, org_pairs
            )
            for deliverable in wp.open_deliverables():
                if budget <= 0:
                    break
                needed = deliverable.effort - deliverable.progress
                spend = min(budget, needed)
                deliverable.add_progress(spend, month)
                budget -= spend
                if deliverable.is_complete:
                    completed.append(deliverable.deliv_id)
        return completed

    # -- reporting ------------------------------------------------------------

    def completion_fraction(self) -> float:
        deliverables = self.deliverables()
        if not deliverables:
            return 0.0
        return sum(1 for d in deliverables if d.is_complete) / len(deliverables)

    def on_time_rate(self) -> float:
        """Fraction of *completed* deliverables that met their due month."""
        done = [d for d in self.deliverables() if d.is_complete]
        if not done:
            return 0.0
        return sum(1 for d in done if d.is_on_time()) / len(done)

    def mean_delay(self, as_of_month: float) -> float:
        """Mean months of delay across all deliverables due by now."""
        due = [
            d for d in self.deliverables() if d.due_month <= as_of_month
        ]
        if not due:
            return 0.0
        return ordered_sum(d.delay(as_of_month) for d in due) / len(due)

    def status_rows(
        self, as_of_month: float
    ) -> List[Tuple[str, str, float, float, str]]:
        """(deliverable, wp, due, progress, status) rows for reporting."""
        rows = []
        for d in self.deliverables():
            if d.is_complete:
                status = "on time" if d.is_on_time() else (
                    f"late +{d.delay(as_of_month):.0f} mo"
                )
            elif d.due_month < as_of_month:
                status = f"OVERDUE +{d.delay(as_of_month):.0f} mo"
            else:
                status = "in progress"
            rows.append((d.deliv_id, d.wp_id, d.due_month,
                         d.progress / d.effort, status))
        return rows
