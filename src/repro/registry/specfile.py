"""``scenario-spec/v1``: scenario definitions as JSON or TOML files.

A spec file declares one scenario without writing Python::

    kind = "scenario-spec/v1"
    name = "quarterly-hackathons"
    description = "Hackathon plenary every quarter"

    [scenario]
    followup_enabled = true
    horizon_months = 18.0

    [[plenaries]]
    name = "Rome"
    month = 0.0
    kind = "traditional"

    [[plenaries]]
    name = "Helsinki"
    month = 6.0
    kind = "hackathon"

The same shape works as JSON (``plenaries`` a list of objects,
``scenario`` an object).  Field names and validation come straight from
:class:`~repro.simulation.scenario.Scenario` and
:class:`~repro.simulation.scenario.PlenarySpec` — anything those
dataclasses reject, the loader rejects with the file path prefixed, so
``repro-sim scenarios validate`` failures are one-line actionable.

Loaded specs carry ``plugin="file:<stem>"`` provenance (unless the file
sets ``plugin`` itself), so their cached KPIs never alias a builtin or
plugin scenario of the same name.
"""

from __future__ import annotations

import json
import os
from dataclasses import fields as dc_fields
from typing import Any, Dict, Mapping

from repro.errors import ConfigurationError
from repro.simulation.scenario import PlenarySpec, Scenario

__all__ = [
    "SPEC_KIND",
    "looks_like_spec_path",
    "load_spec_file",
    "load_spec_mapping",
    "scenario_from_spec_mapping",
]

SPEC_KIND = "scenario-spec/v1"

_PLENARY_FIELDS = {f.name for f in dc_fields(PlenarySpec)}
_SCENARIO_FIELDS = {f.name for f in dc_fields(Scenario)}
#: Scenario-table keys a spec file may set: every Scenario field except
#: the ones the spec's top level or the loader itself owns.
_SPEC_SCENARIO_FIELDS = _SCENARIO_FIELDS - {"name", "seed", "plenaries",
                                            "plugin", "spec_version"}
_TOP_LEVEL_KEYS = {"kind", "name", "description", "plugin",
                   "spec_version", "scenario", "plenaries"}


def looks_like_spec_path(spec: str) -> bool:
    """True when a string scenario spec denotes a file, not a name."""
    return (
        os.sep in spec
        or "/" in spec
        or spec.endswith(".json")
        or spec.endswith(".toml")
    )


def _load_toml(path: str) -> Dict[str, Any]:
    try:
        import tomllib
    except ImportError:  # Python < 3.11
        raise ConfigurationError(
            f"{path}: reading TOML scenario specs requires Python 3.11+ "
            f"(tomllib); convert the spec to JSON"
        )
    try:
        with open(path, "rb") as fh:
            return tomllib.load(fh)
    except tomllib.TOMLDecodeError as exc:
        raise ConfigurationError(f"{path}: invalid TOML: {exc}")


def _load_json(path: str) -> Dict[str, Any]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}: invalid JSON: {exc}")
    if not isinstance(loaded, dict):
        raise ConfigurationError(
            f"{path}: spec file must contain a JSON object, "
            f"got {type(loaded).__name__}"
        )
    return loaded


def load_spec_mapping(path: str) -> Dict[str, Any]:
    """Read and parse a spec file into its raw mapping."""
    if not os.path.exists(path):
        raise ConfigurationError(f"{path}: no such scenario spec file")
    if path.endswith(".toml"):
        return _load_toml(path)
    if path.endswith(".json"):
        return _load_json(path)
    raise ConfigurationError(
        f"{path}: scenario spec files must end in .json or .toml"
    )


def scenario_from_spec_mapping(
    mapping: Mapping[str, Any], *, source: str, seed: int = 0
) -> Scenario:
    """Validate a ``scenario-spec/v1`` mapping and build its Scenario.

    ``source`` names where the mapping came from (a file path or
    ``"inline spec"``) and prefixes every error message.
    """
    kind = mapping.get("kind")
    if kind != SPEC_KIND:
        raise ConfigurationError(
            f"{source}: expected kind = {SPEC_KIND!r}, got {kind!r}"
        )
    unknown = set(mapping) - _TOP_LEVEL_KEYS
    if unknown:
        raise ConfigurationError(
            f"{source}: unknown top-level key(s): "
            f"{', '.join(sorted(unknown))}"
        )
    name = mapping.get("name")
    if not isinstance(name, str) or not name:
        raise ConfigurationError(
            f"{source}: spec needs a non-empty string 'name'"
        )

    overrides = mapping.get("scenario", {})
    if not isinstance(overrides, Mapping):
        raise ConfigurationError(
            f"{source}: 'scenario' must be a table/object of "
            f"Scenario fields"
        )
    bad = set(overrides) - _SPEC_SCENARIO_FIELDS
    if bad:
        raise ConfigurationError(
            f"{source}: unknown scenario field(s): "
            f"{', '.join(sorted(bad))} "
            f"(allowed: {', '.join(sorted(_SPEC_SCENARIO_FIELDS))})"
        )

    plenaries_raw = mapping.get("plenaries")
    if not isinstance(plenaries_raw, list) or not plenaries_raw:
        raise ConfigurationError(
            f"{source}: spec needs a non-empty 'plenaries' list"
        )
    plenaries = []
    for index, entry in enumerate(plenaries_raw):
        if not isinstance(entry, Mapping):
            raise ConfigurationError(
                f"{source}: plenaries[{index}] must be a table/object"
            )
        bad = set(entry) - _PLENARY_FIELDS
        if bad:
            raise ConfigurationError(
                f"{source}: plenaries[{index}]: unknown field(s): "
                f"{', '.join(sorted(bad))}"
            )
        try:
            plenaries.append(PlenarySpec(**dict(entry)))
        except (TypeError, ValueError, ConfigurationError) as exc:
            raise ConfigurationError(
                f"{source}: plenaries[{index}]: {exc}"
            )

    plugin = mapping.get("plugin", _default_plugin(source))
    spec_version = str(mapping.get("spec_version", "1"))
    try:
        return Scenario(
            name=name,
            seed=seed,
            plenaries=tuple(plenaries),
            plugin=plugin,
            spec_version=spec_version,
            **dict(overrides),
        )
    except (TypeError, ValueError, ConfigurationError) as exc:
        raise ConfigurationError(f"{source}: {exc}")


def _default_plugin(source: str) -> str:
    stem = os.path.splitext(os.path.basename(source))[0]
    return f"file:{stem}" if stem else "file"


def load_spec_file(path: str) -> "ScenarioEntry":
    """Load a spec file into a catalog-shaped :class:`ScenarioEntry`.

    The entry is *not* registered in the global catalog — file specs
    resolve per use, so editing the file takes effect immediately.
    """
    from repro.registry.catalog import ScenarioEntry

    mapping = load_spec_mapping(path)
    scenario = scenario_from_spec_mapping(mapping, source=path)

    def factory(seed: int = 0) -> Scenario:
        return scenario.with_seed(seed)

    return ScenarioEntry(
        name=scenario.name,
        factory=factory,
        plugin=scenario.plugin,
        spec_version=scenario.spec_version,
        description=str(mapping.get("description", "")),
        source="file",
    )
