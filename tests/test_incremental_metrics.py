"""Property tests for the incremental network-metrics tracker.

``compute_metrics`` derives every float from the incrementally
maintained tie-graph state (:mod:`repro.network.incremental`); the
original networkx implementation is retained as
``compute_metrics_oracle`` in ``tests/oracles.py``.  These tests pin
the two **bit-equal** under randomized tie add/decay histories — no
tolerance, ``==`` on the raw dataclasses — plus the same parity for the
networkx-backed helper views (``bridge_members``,
``isolated_organizations``) against brute force, the world-template
cache every default runner is cloned from, and the fast session kernel
against its reference.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cognition.knowledge import KnowledgeVector, registered_domains
from repro.network.graph import CollaborationNetwork
from repro.network.metrics import (
    bridge_members,
    compute_metrics,
    isolated_organizations,
)

from oracles import ReferenceRunner, compute_metrics_oracle, reference_kpis

MEMBERS = [(f"m{i:02d}", f"org{i % 4}") for i in range(10)]
PAIRS = [
    (a, b)
    for i, (a, _) in enumerate(MEMBERS)
    for b, _ in MEMBERS[i + 1:]
]


def _network() -> CollaborationNetwork:
    net = CollaborationNetwork()
    net.add_members(MEMBERS)
    return net


#: One mutation: either strengthen a pair by some amount (possibly
#: straddling the 0.1 tie threshold) or decay the whole network.
_steps = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from(range(len(PAIRS))),
            st.sampled_from([0.04, 0.07, 0.11, 0.5, 1.5]),
        ),
        st.sampled_from([0.3, 0.6, 0.9]).map(lambda f: ("decay", f)),
    ),
    min_size=0,
    max_size=40,
)


def _apply(net: CollaborationNetwork, step) -> None:
    kind, value = step
    if kind == "decay":
        net.weaken_all(value)
    else:
        a, b = PAIRS[kind]
        net.strengthen(a, b, value)


class TestTrackerVsOracle:
    @settings(max_examples=60, deadline=None)
    @given(steps=_steps)
    def test_snapshot_bit_equal_after_every_mutation(self, steps):
        net = _network()
        # Force the tracker into existence up front so every mutation
        # below exercises the maintained (not rebuilt) code path.
        net.metrics_tracker()
        for step in steps:
            _apply(net, step)
            assert compute_metrics(net) == compute_metrics_oracle(net)

    @settings(max_examples=60, deadline=None)
    @given(steps=_steps)
    def test_maintained_state_equals_fresh_rebuild(self, steps):
        """A tracker fed mutation by mutation must converge to the same
        snapshot as one built from the final graph alone."""
        maintained = _network()
        maintained.metrics_tracker()
        replay = _network()
        for step in steps:
            _apply(maintained, step)
            _apply(replay, step)
        # ``replay`` creates its tracker only now, from the final ties.
        assert compute_metrics(maintained) == compute_metrics(replay)

    def test_lazy_tracker_creation_sees_prior_mutations(self):
        net = _network()
        net.strengthen("m00", "m01", 1.0)
        net.strengthen("m01", "m02", 1.0)
        net.weaken_all(0.5)
        # First snapshot builds the tracker from the surviving ties.
        assert compute_metrics(net) == compute_metrics_oracle(net)


def _brute_force_articulation(net: CollaborationNetwork):
    """Articulation points of the tie graph, by deletion trial."""
    ties = [(a, b) for a, b, _ in net.ties()]
    nodes = sorted({v for edge in ties for v in edge})

    def components(skip=None):
        adj = {v: set() for v in nodes if v != skip}
        for a, b in ties:
            if skip not in (a, b):
                adj[a].add(b)
                adj[b].add(a)
        seen, count = set(), 0
        for start in adj:
            if start in seen:
                continue
            count += 1
            stack = [start]
            while stack:
                v = stack.pop()
                if v in seen:
                    continue
                seen.add(v)
                stack.extend(adj[v] - seen)
        return count

    base = components()
    return sorted(v for v in nodes if components(skip=v) > base)


class TestHelperViews:
    @settings(max_examples=40, deadline=None)
    @given(steps=_steps)
    def test_bridge_members_match_brute_force(self, steps):
        net = _network()
        for step in steps:
            _apply(net, step)
        assert bridge_members(net) == _brute_force_articulation(net)

    @settings(max_examples=40, deadline=None)
    @given(steps=_steps)
    def test_isolated_organizations_match_brute_force(self, steps):
        net = _network()
        for step in steps:
            _apply(net, step)
        connected = set()
        for a, b, _ in net.ties():
            oa, ob = net.org_of(a), net.org_of(b)
            if oa != ob:
                connected.add(oa)
                connected.add(ob)
        expected = sorted(
            {org for _, org in MEMBERS} - connected
        )
        assert isolated_organizations(net) == expected


class TestTemplateCache:
    """The pickled world templates every default runner is cloned from."""

    def _scenario(self, seed=0):
        from repro.simulation.scenario import megamart_timeline

        return megamart_timeline(seed=seed)

    def test_runtime_fields_share_a_fingerprint(self):
        from dataclasses import replace

        from repro.simulation.template import setup_fingerprint

        base = self._scenario()
        assert setup_fingerprint(base) == setup_fingerprint(
            replace(base, name="renamed", engagement_scale=0.5)
        )
        assert setup_fingerprint(base) != setup_fingerprint(
            base.with_seed(1)
        )

    def test_clone_replays_the_built_world_bit_exactly(self):
        from repro.simulation.runner import LongitudinalRunner
        from repro.simulation.template import (
            clear_template_cache,
            template_runner,
        )

        scenario = self._scenario(seed=11)
        clear_template_cache()
        built = template_runner(scenario)   # miss: freshly built
        clone = template_runner(scenario)   # hit: pickle clone
        reference = LongitudinalRunner(scenario)
        assert dict(clone.run().totals) == dict(reference.run().totals)
        assert built is not clone

    def test_cache_counters_and_size(self):
        from repro.obs import REGISTRY
        from repro.simulation.template import (
            clear_template_cache,
            template_cache_size,
            template_runner,
        )

        scenario = self._scenario(seed=12)
        clear_template_cache()
        assert template_cache_size() == 0

        def counters():
            snap = REGISTRY.snapshot()
            return (
                snap.get("batch_template_misses_total", 0.0),
                snap.get("batch_template_hits_total", 0.0),
            )

        misses0, hits0 = counters()
        template_runner(scenario)
        assert counters() == (misses0 + 1, hits0)
        assert template_cache_size() == 1
        template_runner(scenario)
        assert counters() == (misses0 + 1, hits0 + 1)
        clear_template_cache()
        assert template_cache_size() == 0

    def test_domain_registry_growth_splits_the_fingerprint(self):
        """Regression: templates bake registry-width float reductions
        (the initial knowledge snapshot) into the pickle, and NumPy's
        pairwise summation regroups as the process-wide domain registry
        grows — so a template cached before a registry append must not
        serve lanes after it (the 1-ULP ``knowledge_growth`` drift this
        caused was only visible with the full suite's registrations)."""
        from repro.simulation.experiment import extract_metrics, replicate
        from repro.simulation.template import (
            setup_fingerprint,
            template_runner,
        )

        scenario = self._scenario()
        template_runner(scenario)  # cache at the current registry width
        before = setup_fingerprint(scenario)
        fresh_domain = f"registry_growth_probe_{len(registered_domains())}"
        KnowledgeVector({fresh_domain: 0.5})  # interns a new domain
        assert setup_fingerprint(scenario) != before
        seeds = [0, 1]
        assert [
            extract_metrics(h) for h in replicate(scenario, seeds)
        ] == [reference_kpis(scenario.with_seed(s)) for s in seeds]


class TestFastPathKernels:
    """The fast per-plenary kernels against their tests-side references."""

    def test_work_session_run_many_matches_scalar_runs(self):
        from repro.consortium.presets import small_consortium
        from repro.core.challenge import ChallengeCall, generate_challenges
        from repro.core.session import WorkSession
        from repro.core.teams import RandomFormation

        from oracles import work_session_run
        from repro.framework.catalog import build_framework
        from repro.rng import RngHub

        def build(hub_):
            consortium = small_consortium(hub_)
            framework = build_framework(consortium, hub_, n_tools=8)
            call = ChallengeCall("evt")
            generate_challenges(consortium, framework, hub_, call)
            call.close()
            teams = RandomFormation().form(
                list(call.challenges), consortium.members, None, hub_
            )
            return teams, WorkSession(hub_)

        teams_a, session_a = build(RngHub(seed=77))
        teams_b, session_b = build(RngHub(seed=77))
        fast = session_a.run_many(teams_a, hours=4.0)
        slow = [work_session_run(session_b, team, hours=4.0)
                for team in teams_b]
        assert fast == slow
        # Member energy write-back must agree too.
        assert [m.energy for t in teams_a for m in t.members] == [
            m.energy for t in teams_b for m in t.members
        ]

    def test_fast_paths_runner_matches_reference_runner(self):
        """One full production run equals the reference runner —
        sessions, voting tally, surveys and network metrics together."""
        from repro.simulation.runner import LongitudinalRunner
        from repro.simulation.scenario import megamart_timeline

        scenario = megamart_timeline(seed=5)
        fast = LongitudinalRunner(scenario)
        reference = ReferenceRunner(scenario)
        fast_history = fast.run()
        reference_history = reference.run()
        assert dict(fast_history.totals) == dict(reference_history.totals)
        assert [r.survey for r in fast_history.records] == [
            r.survey for r in reference_history.records
        ]
        assert [
            r.outcome.scores
            for r in fast_history.records
            if r.outcome is not None
        ] == [
            r.outcome.scores
            for r in reference_history.records
            if r.outcome is not None
        ]
        assert [r.network_metrics for r in fast_history.records] == [
            r.network_metrics for r in reference_history.records
        ]
