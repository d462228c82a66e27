"""Tests for the collaboration network, metrics and dynamics."""

import pickle

import pytest

from repro.errors import ConfigurationError
from repro.network.dynamics import Interaction, TieDynamics
from repro.network.graph import CollaborationNetwork
from repro.network.metrics import (
    bridge_members,
    compute_metrics,
    isolated_organizations,
    organization_reach,
)


@pytest.fixture
def net():
    n = CollaborationNetwork(tie_threshold=0.1)
    for mid, org in [("a1", "A"), ("a2", "A"), ("b1", "B"), ("c1", "C")]:
        n.add_member(mid, org)
    return n


class TestGraph:
    def test_add_member_idempotent(self, net):
        net.add_member("a1", "A")  # no error
        with pytest.raises(ConfigurationError):
            net.add_member("a1", "B")  # org conflict

    def test_strengthen_accumulates(self, net):
        assert net.strengthen("a1", "b1", 0.05) == pytest.approx(0.05)
        assert net.strengthen("a1", "b1", 0.10) == pytest.approx(0.15)
        assert net.strength("a1", "b1") == pytest.approx(0.15)
        assert net.strength("b1", "a1") == pytest.approx(0.15)

    def test_self_tie_rejected(self, net):
        with pytest.raises(ConfigurationError):
            net.strengthen("a1", "a1", 0.1)

    def test_unknown_member_rejected(self, net):
        with pytest.raises(ConfigurationError):
            net.strengthen("a1", "ghost", 0.1)

    def test_negative_amount_rejected(self, net):
        with pytest.raises(ConfigurationError):
            net.strengthen("a1", "b1", -0.1)

    def test_tie_threshold(self, net):
        net.strengthen("a1", "b1", 0.05)
        assert not net.has_tie("a1", "b1")
        net.strengthen("a1", "b1", 0.05)
        assert net.has_tie("a1", "b1")

    def test_ties_only_above_threshold(self, net):
        net.strengthen("a1", "b1", 0.05)
        net.strengthen("a1", "c1", 0.5)
        assert net.ties() == [("a1", "c1", 0.5)]
        assert net.tie_count() == 1

    def test_inter_org_ties(self, net):
        net.strengthen("a1", "a2", 0.5)  # intra-org
        net.strengthen("a1", "b1", 0.5)  # inter-org
        assert len(net.inter_org_ties()) == 1
        assert net.inter_org_ties()[0][:2] == ("a1", "b1")

    def test_ties_between_roles(self, net):
        net.strengthen("a1", "b1", 0.5)
        net.strengthen("a1", "c1", 0.5)
        rows = net.ties_between_roles(["A"], ["B"])
        assert len(rows) == 1

    def test_weaken_all_drops_below_floor(self, net):
        net.strengthen("a1", "b1", 0.002)
        dropped = net.weaken_all(0.4)
        assert dropped == 1
        assert net.strength("a1", "b1") == 0.0

    def test_weaken_all_scales(self, net):
        net.strengthen("a1", "b1", 1.0)
        net.weaken_all(0.5)
        assert net.strength("a1", "b1") == pytest.approx(0.5)

    def test_weaken_validates_factor(self, net):
        with pytest.raises(ConfigurationError):
            net.weaken_all(1.5)

    def test_snapshot_and_new_ties(self, net):
        net.strengthen("a1", "b1", 0.05)
        snap = net.snapshot()
        net.strengthen("a1", "b1", 0.10)
        net.strengthen("a2", "c1", 0.3)
        new = net.new_ties_since(snap)
        assert ("a1", "b1") in new
        assert ("a2", "c1") in new

    def test_new_ties_ignores_existing(self, net):
        net.strengthen("a1", "b1", 0.5)
        snap = net.snapshot()
        net.strengthen("a1", "b1", 0.5)
        assert net.new_ties_since(snap) == []

    def test_copy_is_independent(self, net):
        net.strengthen("a1", "b1", 0.5)
        clone = net.copy()
        clone.strengthen("a1", "b1", 0.5)
        assert net.strength("a1", "b1") == pytest.approx(0.5)

    def test_pickle_copy_and_networkx_views_agree(self, net):
        """Pickling keeps adjacency order (it fixes total_strength's
        summation order); copy() keeps orgs, weights and order but
        shares no state; as_networkx() carries the same graph."""
        net.strengthen("b1", "c1", 0.3)
        net.strengthen("a1", "c1", 0.7)
        net.strengthen("a1", "b1", 0.2)
        net.strengthen("a2", "b1", 0.05)
        net.weaken_all(0.5, floor=0.03)  # drops a2-b1

        def layout(n):
            return (
                list(n._org.items()),
                [(a, list(nbrs.items())) for a, nbrs in n._adj.items()],
            )

        blob = pickle.dumps(net)
        assert b"networkx" not in blob
        restored = pickle.loads(blob)
        clone = net.copy()
        for other in (restored, clone):
            assert layout(other) == layout(net)
            assert other.total_strength() == net.total_strength()
            assert other.ties() == net.ties()

        clone.strengthen("a1", "b1", 0.5)
        clone.add_member("d1", "D")
        assert net.strength("a1", "b1") == pytest.approx(0.1)
        assert clone.strength("b1", "a1") == pytest.approx(0.6)
        assert "d1" not in net.member_ids

        g = net.as_networkx()
        assert list(g.nodes) == list(net._org)
        assert {m: g.nodes[m]["org"] for m in g} == net._org
        assert {
            tuple(sorted((a, b))): d["weight"] for a, b, d in g.edges(data=True)
        } == net.snapshot()
        g["a1"]["c1"]["weight"] = 9.0
        assert net.strength("a1", "c1") == pytest.approx(0.35)

    def test_org_of_unknown(self, net):
        with pytest.raises(ConfigurationError):
            net.org_of("ghost")

    def test_total_strength(self, net):
        net.strengthen("a1", "b1", 0.3)
        net.strengthen("a1", "c1", 0.2)
        assert net.total_strength() == pytest.approx(0.5)

    def test_invalid_threshold(self):
        with pytest.raises(ConfigurationError):
            CollaborationNetwork(tie_threshold=0.0)


class TestMetrics:
    def test_empty_network(self):
        n = CollaborationNetwork()
        m = compute_metrics(n)
        assert m.members == 0
        assert m.ties == 0
        assert m.density == 0.0

    def test_basic_metrics(self, net):
        net.strengthen("a1", "b1", 0.5)
        net.strengthen("b1", "c1", 0.5)
        m = compute_metrics(net)
        assert m.members == 4
        assert m.ties == 2
        assert m.inter_org_ties == 2
        assert m.inter_org_fraction == 1.0
        assert m.components == 2  # {a1,b1,c1} and {a2}
        assert m.largest_component_fraction == pytest.approx(0.75)
        assert m.mean_tie_strength == pytest.approx(0.5)

    def test_organization_reach(self, net):
        net.strengthen("a1", "b1", 0.5)
        reach = organization_reach(net)
        assert reach["A"] == {"B"}
        assert reach["B"] == {"A"}
        assert reach["C"] == set()

    def test_isolated_organizations(self, net):
        net.strengthen("a1", "b1", 0.5)
        assert isolated_organizations(net) == ["C"]

    def test_bridge_members(self, net):
        net.strengthen("a1", "b1", 0.5)
        net.strengthen("b1", "c1", 0.5)
        assert bridge_members(net) == ["b1"]

    def test_as_dict_roundtrip(self, net):
        d = compute_metrics(net).as_dict()
        assert set(d) >= {"members", "ties", "density", "clustering"}


class TestInteraction:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Interaction("a", "a", 1.0)
        with pytest.raises(ConfigurationError):
            Interaction("a", "b", -1.0)


class TestTieDynamics:
    def test_apply_interaction(self, net):
        dyn = TieDynamics(strengthen_rate=0.2)
        dyn.apply_interaction(net, Interaction("a1", "b1", intensity=2.0))
        assert net.strength("a1", "b1") == pytest.approx(0.4)

    def test_decay_period(self, net):
        dyn = TieDynamics(monthly_decay=0.5)
        net.strengthen("a1", "b1", 1.0)
        dyn.decay_period(net, months=2.0)
        assert net.strength("a1", "b1") == pytest.approx(0.25)

    def test_zero_months_noop(self, net):
        dyn = TieDynamics()
        net.strengthen("a1", "b1", 1.0)
        assert dyn.decay_period(net, 0.0) == 0
        assert net.strength("a1", "b1") == pytest.approx(1.0)

    def test_followup_protection(self, net):
        dyn = TieDynamics(monthly_decay=0.5, followup_decay=1.0)
        net.strengthen("a1", "b1", 1.0)
        net.strengthen("a1", "c1", 1.0)
        dyn.decay_period(net, 2.0, followed_up_pairs=frozenset({("a1", "b1")}))
        assert net.strength("a1", "b1") == pytest.approx(1.0)
        assert net.strength("a1", "c1") == pytest.approx(0.25)

    def test_followup_gentler_than_plain(self, net):
        dyn = TieDynamics(monthly_decay=0.7, followup_decay=0.95)
        net.strengthen("a1", "b1", 1.0)
        net.strengthen("a1", "c1", 1.0)
        dyn.decay_period(net, 3.0, followed_up_pairs=frozenset({("a1", "b1")}))
        assert net.strength("a1", "b1") > net.strength("a1", "c1")

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            TieDynamics(strengthen_rate=0.0)
        with pytest.raises(ConfigurationError):
            TieDynamics(monthly_decay=1.2)
        with pytest.raises(ConfigurationError):
            TieDynamics(monthly_decay=0.9, followup_decay=0.5)

    def test_negative_months_rejected(self, net):
        with pytest.raises(ConfigurationError):
            TieDynamics().decay_period(net, -1.0)
