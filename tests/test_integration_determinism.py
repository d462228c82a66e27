"""Integration tests: determinism and cross-module consistency."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.consortium.presets import small_consortium
from repro.core.event import HackathonConfig, HackathonEvent
from repro.framework.catalog import build_framework
from repro.rng import RngHub
from repro.simulation.experiment import extract_metrics
from repro.simulation.runner import LongitudinalRunner
from repro.simulation.scenario import (
    Scenario,
    PlenarySpec,
    hackathon_everywhere_timeline,
    megamart_timeline,
)


def small_runner(scenario):
    return LongitudinalRunner(
        scenario,
        consortium_factory=lambda hub: small_consortium(hub),
        framework_factory=lambda c, hub: build_framework(c, hub, n_tools=8),
    )


# ``hackathon`` seed 101 summed a challenge's required-domain frozenset
# in hash order, so its review_score moved by one ULP between hash seeds
# 0 and 2; the plugin cell adds a hybrid-mode timeline.
HASH_SEED_CELLS = """
import repro.api as api
print(repr(api.replicate("hackathon", [101])
           + api.replicate("hybrid-balanced", [244161])))
"""


class TestDeterminism:
    def test_kpis_do_not_depend_on_the_string_hash_seed(self):
        src = str(Path(repro.__file__).resolve().parents[1])
        outputs = set()
        for hash_seed in ("0", "1", "2", "3"):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
            done = subprocess.run(
                [sys.executable, "-c", HASH_SEED_CELLS], env=env,
                capture_output=True, text=True, timeout=300,
            )
            assert done.returncode == 0, done.stderr
            outputs.add(done.stdout)
        assert len(outputs) == 1

    def test_full_run_reproducible_to_the_bit(self):
        def run():
            history = small_runner(megamart_timeline(seed=31)).run()
            rec = history.record_for("Helsinki")
            return (
                history.totals,
                rec.sentiment,
                rec.survey.best_part_votes,
                [s.overall for s in rec.outcome.scores],
                [d.completion for d in rec.outcome.demos],
            )

        assert run() == run()

    def test_metrics_differ_across_seeds(self):
        a = extract_metrics(small_runner(megamart_timeline(seed=1)).run())
        b = extract_metrics(small_runner(megamart_timeline(seed=2)).run())
        assert a != b


class TestCrossModuleConsistency:
    @pytest.fixture()
    def history(self):
        return small_runner(megamart_timeline(seed=0)).run()

    def test_outcome_interactions_are_team_internal(self, history):
        for rec in history.hackathon_records():
            for team in rec.outcome.teams:
                ids = set(team.member_ids)
                for interaction in rec.outcome.interactions:
                    if interaction.context.endswith(team.challenge.challenge_id):
                        assert interaction.member_a in ids
                        assert interaction.member_b in ids

    def test_demo_team_members_attended(self, history):
        for rec in history.hackathon_records():
            attendees = set(rec.meeting.attendee_ids)
            for demo in rec.outcome.demos:
                assert set(demo.team_member_ids) <= attendees

    def test_requirements_satisfied_exist(self, history):
        runner_fw = None
        for rec in history.hackathon_records():
            for req_id in rec.outcome.requirements_satisfied:
                assert "." in req_id  # case-scoped id format

    def test_applications_advanced_reflected_in_matrix_counts(self, history):
        final = history.records[-1].applications_started
        advanced_pairs = set()
        for rec in history.hackathon_records():
            advanced_pairs.update(rec.outcome.applications_advanced)
        assert final == len(advanced_pairs)

    def test_followup_pairs_cross_org(self, history):
        runner = small_runner(megamart_timeline(seed=0))
        history = runner.run()
        for rec in history.hackathon_records():
            for a, b in rec.outcome.followup_pairs:
                assert (
                    runner.consortium.member(a).org_id
                    != runner.consortium.member(b).org_id
                )


class TestBurnoutDynamics:
    def test_monthly_hackathons_cause_burnout_or_exhaustion(self):
        """ABL-FREQ shape: day-to-day cadence drains the consortium."""
        frequent = hackathon_everywhere_timeline(
            seed=0, interval_months=0.25, count=10
        )
        sparse = megamart_timeline(seed=0)
        h_freq = small_runner(frequent).run()
        h_sparse = small_runner(sparse).run()
        energy_freq = min(r.mean_energy for r in h_freq.records)
        energy_sparse = min(r.mean_energy for r in h_sparse.records)
        assert energy_freq < energy_sparse

    def test_semiannual_cadence_recovers_fully(self):
        history = small_runner(megamart_timeline(seed=0)).run()
        assert history.totals["final_burnout_rate"] == 0.0


class TestFollowupDynamics:
    def test_followup_preserves_ties(self):
        """ABL-FOLLOW shape: follow-up keeps post-hackathon ties alive."""

        def final_ties(followup):
            scenario = Scenario(
                name=f"follow-{followup}",
                seed=0,
                plenaries=(
                    PlenarySpec("kick", 0.0, "hackathon"),
                ),
                followup_enabled=followup,
                horizon_months=18.0,
            )
            history = small_runner(scenario).run()
            return history.totals["final_inter_org_ties"]

        assert final_ties(True) > final_ties(False)
