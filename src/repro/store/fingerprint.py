"""Canonical fingerprints for scenarios and configuration mappings.

The run store keys cached results by *what was simulated*, not by how
the caller happened to spell it: two :class:`~repro.simulation.scenario.Scenario`
objects that describe the same timeline under the same knobs must hash
to the same fingerprint, and any change that can alter a run's output
(a plenary month, a session length, the team policy, the model version)
must change it.

The fingerprint deliberately **excludes the seed** — the store's unit of
work is ``(fingerprint, seed)``, so one fingerprint indexes the whole
replicate family of a scenario.

A fingerprint is computed once per scenario *instance*: it is stored on
the frozen object and carried to its :meth:`~Scenario.with_seed`
copies, so a grid fingerprints each of its points, not each of its
cells.  It is never looked up by scenario equality: ``4`` and ``4.0``
hours compare equal but spell different canonical JSON.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from typing import Any, Dict, Mapping

from repro.simulation.scenario import FINGERPRINT_ATTR, Scenario

__all__ = [
    "canonical_json",
    "config_fingerprint",
    "scenario_payload",
    "scenario_fingerprint",
    "scenario_summary",
]


def _model_version() -> str:
    # Imported lazily so repro.store never participates in an import
    # cycle with the repro package root.
    from repro import __version__

    return __version__


def canonical_json(payload: Any) -> str:
    """Serialize ``payload`` to a canonical, byte-stable JSON string.

    Keys are sorted and separators fixed, so mappings that differ only
    in insertion order serialize identically; floats use Python's
    shortest round-trip repr, so they parse back bit-identical.
    """
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )


def config_fingerprint(config: Mapping[str, Any]) -> str:
    """SHA-256 over the canonical JSON of an arbitrary config mapping."""
    return hashlib.sha256(canonical_json(config).encode("ascii")).hexdigest()


def scenario_payload(scenario: Scenario) -> Dict[str, Any]:
    """The scenario's semantic content: every knob except the seed.

    The model version rides along so results cached under one release
    are never served after the simulator's behaviour changes.
    """
    payload = asdict(scenario)
    payload.pop("seed", None)
    payload["model_version"] = _model_version()
    return payload


def scenario_fingerprint(scenario: Scenario) -> str:
    """Stable content hash identifying a scenario across processes.

    The first call stores ``(model version, fingerprint)`` on the
    instance; later calls under the same model version return it.
    """
    version = _model_version()
    stored = scenario.__dict__.get(FINGERPRINT_ATTR)
    if stored is not None and stored[0] == version:
        return stored[1]
    fingerprint = config_fingerprint(scenario_payload(scenario))
    object.__setattr__(scenario, FINGERPRINT_ATTR, (version, fingerprint))
    return fingerprint


def seeded(scenario: Scenario, seed: int) -> Scenario:
    """``scenario.with_seed(seed)``, fingerprinting ``scenario`` first.

    The copy carries the stored fingerprint, so a grid built with this
    as its ``make`` hashes each point once however many seeds it has.
    """
    scenario_fingerprint(scenario)
    return scenario.with_seed(seed)


def scenario_summary(scenario: Scenario) -> Dict[str, Any]:
    """Human-readable manifest entry for a fingerprint."""
    return {
        "name": scenario.name,
        "plenaries": len(scenario.plenaries),
        "hackathons": scenario.hackathon_count(),
        "team_policy": scenario.team_policy,
        "end_month": scenario.end_month,
        "plugin": scenario.plugin,
        "spec_version": scenario.spec_version,
        "model_version": _model_version(),
    }
