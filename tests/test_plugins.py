"""Tests for the bundled scenario plugin families.

Three families, three distinct headline shapes:

* virtual-hackathons — engagement sinks *below* the plain uniform
  virtual mode (constraint stacking);
* hybrid-hackathons — engagement is monotone in the remote share,
  strictly between the all-on-site and all-remote endpoints;
* adversarial-participants — knowledge transfer drops while (for
  withholders) engagement stays intact.

Plus the cross-cutting guarantee: every pre-existing scenario name
still produces bit-identical KPIs against the recorded pre-PR fixture.
(``tests/test_oracles.py`` checks each family against the reference
kernels.)
"""

import json
import os

import pytest

from repro.plugins import adversarial, hybrid, virtual
from repro.registry import CATALOG
from repro.simulation.runner import LongitudinalRunner
from repro.simulation.scenario import (
    hackathon_everywhere_timeline,
    megamart_timeline,
    virtual_timeline,
)

SEED = 3

FIXTURE = os.path.join(
    os.path.dirname(__file__), "data", "pre_pr_kpis_seed3.json"
)


def _totals(scenario):
    return LongitudinalRunner(scenario).run().totals


# ---------------------------------------------------------------------------
# headline shapes


class TestVirtualFamily:
    def test_headline_engagement_below_uniform_virtual(self):
        check = virtual.headline_check(seed=SEED)
        assert check["ok"] is True
        assert check["kpi"] == "mean_meeting_engagement"
        assert check["plugin_value"] < check["reference_value"]

    def test_constrained_below_facilitated(self):
        constrained = _totals(CATALOG.resolve("virtual-constrained",
                                              seed=SEED))
        facilitated = _totals(CATALOG.resolve("virtual-facilitated",
                                              seed=SEED))
        assert (constrained["mean_meeting_engagement"]
                < facilitated["mean_meeting_engagement"])

    def test_engagement_sweep_is_monotone(self):
        means = [
            _totals(virtual.virtual_engagement_sweep(value, SEED))[
                "mean_meeting_engagement"
            ]
            for value in (0.5, 0.75, 1.0)
        ]
        assert means[0] < means[1] < means[2]

    def test_identity_value_matches_plain_virtual(self):
        # engagement_scale=1.0 through the sweep is the uniform virtual
        # timeline: bit-identical KPIs, not merely close ones
        swept = virtual.virtual_engagement_sweep(1.0, SEED)
        assert _totals(swept) == _totals(virtual_timeline(seed=SEED))


class TestHybridFamily:
    def test_headline_between_endpoints(self):
        check = hybrid.headline_check(seed=SEED)
        assert check["ok"] is True
        assert (check["remote_value"] < check["plugin_value"]
                < check["onsite_value"])

    def test_remote_share_monotone_in_engagement(self):
        means = [
            _totals(hybrid.hybrid_timeline(seed=SEED, remote_share=s))[
                "mean_meeting_engagement"
            ]
            for s in (0.0, 0.5, 1.0)
        ]
        assert means[2] < means[1] < means[0]

    def test_remote_attendees_recorded(self):
        scenario = CATALOG.resolve("hybrid-balanced", seed=SEED)
        history = LongitudinalRunner(scenario).run()
        hackathons = [r for r in history.records if r.spec.is_hackathon]
        for record in hackathons:
            remote = record.meeting.remote_attendee_ids
            assert remote  # some attendees drew the remote lane
            assert set(remote) <= set(record.meeting.attendee_ids)

    def test_lane_rosters_are_seeded(self):
        scenario = CATALOG.resolve("hybrid-balanced", seed=SEED)
        first = LongitudinalRunner(scenario).run()
        second = LongitudinalRunner(scenario).run()
        for rec_a, rec_b in zip(first.records, second.records):
            assert (rec_a.meeting.remote_attendee_ids
                    == rec_b.meeting.remote_attendee_ids)


class TestAdversarialFamily:
    def test_headline_transfer_drops_engagement_intact(self):
        check = adversarial.headline_check(seed=SEED)
        assert check["ok"] is True
        assert check["plugin_value"] < check["reference_value"]
        assert check["free_rider_value"] < check["reference_value"]

    def test_free_rider_share_monotone(self):
        transfers = [
            _totals(adversarial.free_rider_timeline(seed=SEED,
                                                    share=share))[
                "knowledge_transferred"
            ]
            for share in (0.0, 0.2, 0.4)
        ]
        assert transfers[2] < transfers[1] < transfers[0]

    def test_withholding_preserves_engagement_exactly(self):
        clean = _totals(megamart_timeline(seed=SEED))
        holding = _totals(adversarial.withholding_timeline(seed=SEED))
        # withholders only damp *outbound* transfer: the engagement
        # machinery never sees them, so the KPI is bit-identical
        assert (holding["mean_meeting_engagement"]
                == clean["mean_meeting_engagement"])
        assert (holding["knowledge_transferred"]
                < clean["knowledge_transferred"])


# ---------------------------------------------------------------------------
# the bit-equality contract for pre-existing names


class TestPrePrBitEquality:
    """Every scenario name that existed before the registry must keep
    bit-identical KPIs for a fixed seed (recorded fixture)."""

    @pytest.fixture(autouse=True)
    def _pristine_domain_registry(self, monkeypatch):
        # Earlier tests may intern ad-hoc domains ("x", "y", ...) into
        # the process-wide DomainRegistry, widening every vector built
        # afterwards; numpy's pairwise summation then splits at
        # different points and KPIs drift by one ulp.  The bit-equality
        # contract is per fresh process, so pin the registry to its
        # process-start width for these runs.
        from repro.cognition import knowledge

        monkeypatch.setattr(
            knowledge, "_REGISTRY",
            knowledge.DomainRegistry(knowledge.DEFAULT_DOMAINS),
        )

    @pytest.fixture(scope="class")
    def fixture_totals(self):
        with open(FIXTURE, "r", encoding="utf-8") as fh:
            return json.load(fh)

    @pytest.mark.parametrize("name", [
        "hackathon", "traditional", "interleaved", "virtual",
    ])
    def test_catalog_names_bit_equal(self, fixture_totals, name):
        totals = _totals(CATALOG.resolve(name, seed=SEED))
        assert totals == fixture_totals[name]

    def test_hackathon_everywhere_bit_equal(self, fixture_totals):
        scenario = hackathon_everywhere_timeline(
            seed=SEED, interval_months=2.0, count=4
        )
        totals = _totals(scenario)
        assert totals == fixture_totals["hackathon-everywhere"]
