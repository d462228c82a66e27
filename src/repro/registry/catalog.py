"""The scenario catalog: declarative, registrable scenario specs.

Every way of naming a scenario — a builtin timeline, a plugin family, a
``scenario-spec/v1`` file — resolves through one :class:`ScenarioCatalog`.
The CLI, the HTTP API and :mod:`repro.api` all share the module-level
:data:`CATALOG`, so a scenario registered once (via the
:func:`register_scenario` decorator, an ``importlib.metadata`` entry
point, or the ``REPRO_PLUGINS`` path hook — see
:mod:`repro.registry.discovery`) is immediately usable everywhere a
timeline name was accepted before.

Sweepable parameters live in the same catalog
(:func:`register_sweep_parameter`), replacing the private dicts that the
CLI and the HTTP service used to duplicate.

Provenance is part of identity: every entry records the plugin that
registered it and its spec-schema version, both of which ride into the
run-store fingerprint — two plugins registering same-named scenarios
with different bodies (or the same body under different versions) can
never alias each other's cached KPIs.
"""

from __future__ import annotations

import difflib
import threading
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from repro.errors import ConfigurationError
from repro.obs import REGISTRY
from repro.simulation.scenario import Scenario

__all__ = [
    "CATALOG",
    "ScenarioCatalog",
    "ScenarioEntry",
    "SweepEntry",
    "register_scenario",
    "register_sweep_parameter",
]

_CATALOG_SIZE = REGISTRY.gauge(
    "scenario_catalog_size",
    help="Scenario entries currently registered in the catalog",
)


def _record_resolved(source: str) -> None:
    REGISTRY.counter(
        "scenario_resolved_total",
        help="Scenario specs resolved through the catalog, by source",
        source=source,
    ).inc()


@dataclass(frozen=True)
class ScenarioEntry:
    """One registered scenario family.

    ``factory(seed=N)`` must return a fully validated
    :class:`~repro.simulation.scenario.Scenario`; the entry stamps its
    own provenance (plugin name, spec version) onto the result so the
    store fingerprint reflects who defined the scenario.
    """

    name: str
    factory: Callable[..., Scenario]
    plugin: str = "builtin"
    spec_version: str = "1"
    description: str = ""
    source: str = "builtin"  # "builtin" | "plugin" | "file"

    def build(self, seed: int = 0) -> Scenario:
        scenario = self.factory(seed=seed)
        if not isinstance(scenario, Scenario):
            raise ConfigurationError(
                f"scenario {self.name!r}: factory returned "
                f"{type(scenario).__name__}, not a Scenario"
            )
        if (scenario.plugin, scenario.spec_version) != (
            self.plugin, self.spec_version
        ):
            scenario = replace(
                scenario, plugin=self.plugin, spec_version=self.spec_version
            )
        return scenario

    def describe(self) -> Dict[str, Any]:
        scenario = self.build()
        return {
            "name": self.name,
            "plugin": self.plugin,
            "spec_version": self.spec_version,
            "source": self.source,
            "description": self.description,
            "plenaries": len(scenario.plenaries),
            "hackathons": scenario.hackathon_count(),
            "end_month": scenario.end_month,
        }


@dataclass(frozen=True)
class SweepEntry:
    """One registered sweepable parameter.

    ``factory(value, seed)`` builds the scenario for one grid point;
    entries with ``supports_base=True`` additionally accept
    ``factory(value, seed, base=Scenario)`` so ``--scenario`` can point
    the sweep at any registered or file-defined base timeline.
    """

    name: str
    defaults: tuple
    factory: Callable[..., Scenario]
    label: Callable[[Any], str] = field(default=lambda v: f"{v:g}")
    plugin: str = "builtin"
    description: str = ""
    supports_base: bool = False

    def describe(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "plugin": self.plugin,
            "description": self.description,
            "default_values": list(self.defaults),
            "labels": [self.label(v) for v in self.defaults],
            "supports_base": self.supports_base,
        }


def _close_matches(name: str, known: Sequence[str]) -> str:
    matches = difflib.get_close_matches(name, known, n=3, cutoff=0.4)
    if matches:
        return f"; did you mean: {', '.join(matches)}?"
    return ""


class ScenarioCatalog:
    """Thread-safe registry of scenario and sweep-parameter entries."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._scenarios: Dict[str, ScenarioEntry] = {}
        self._sweeps: Dict[str, SweepEntry] = {}

    # -- registration -----------------------------------------------------

    def add_scenario(self, entry: ScenarioEntry) -> ScenarioEntry:
        with self._lock:
            existing = self._scenarios.get(entry.name)
            if existing is not None:
                if existing.factory is entry.factory:
                    return existing  # idempotent re-import
                raise ConfigurationError(
                    f"scenario {entry.name!r} is already registered by "
                    f"plugin {existing.plugin!r}; pick a different name or "
                    f"unregister it first"
                )
            self._scenarios[entry.name] = entry
            _CATALOG_SIZE.set(len(self._scenarios))
        return entry

    def add_sweep(self, entry: SweepEntry) -> SweepEntry:
        with self._lock:
            existing = self._sweeps.get(entry.name)
            if existing is not None:
                if existing.factory is entry.factory:
                    return existing
                raise ConfigurationError(
                    f"sweep parameter {entry.name!r} is already registered "
                    f"by plugin {existing.plugin!r}"
                )
            self._sweeps[entry.name] = entry
        return entry

    def remove(self, name: str) -> None:
        """Drop one scenario entry (tests and REPL experimentation)."""
        with self._lock:
            self._scenarios.pop(name, None)
            _CATALOG_SIZE.set(len(self._scenarios))

    # -- lookup -----------------------------------------------------------

    def scenario(self, name: str) -> ScenarioEntry:
        from repro.registry.discovery import ensure_loaded

        ensure_loaded()
        with self._lock:
            entry = self._scenarios.get(name)
            known = sorted(self._scenarios)
        if entry is None:
            raise ConfigurationError(
                f"unknown scenario {name!r}"
                f"{_close_matches(name, known)} "
                f"(known: {', '.join(known)})"
            )
        return entry

    def sweep_parameter(self, name: str) -> SweepEntry:
        from repro.registry.discovery import ensure_loaded

        ensure_loaded()
        with self._lock:
            entry = self._sweeps.get(name)
            known = sorted(self._sweeps)
        if entry is None:
            raise ConfigurationError(
                f"unknown sweep parameter {name!r}"
                f"{_close_matches(name, known)} "
                f"(known: {', '.join(known)})"
            )
        return entry

    def scenario_names(self) -> List[str]:
        from repro.registry.discovery import ensure_loaded

        ensure_loaded()
        with self._lock:
            return sorted(self._scenarios)

    def sweep_names(self) -> List[str]:
        from repro.registry.discovery import ensure_loaded

        ensure_loaded()
        with self._lock:
            return sorted(self._sweeps)

    def describe(self) -> Dict[str, Any]:
        """JSON-ready listing for ``GET /v1/scenarios`` and the CLI."""
        return {
            "scenarios": [
                self.scenario(name).describe()
                for name in self.scenario_names()
            ],
            "sweep_parameters": [
                self.sweep_parameter(name).describe()
                for name in self.sweep_names()
            ],
        }

    # -- resolution -------------------------------------------------------

    def resolve(self, spec: Any, seed: int = 0) -> Scenario:
        """Build a :class:`Scenario` from any scenario spec.

        * a registered name (builtin or plugin),
        * a path to a ``scenario-spec/v1`` JSON/TOML file (a string
          containing a path separator or ending in ``.json``/``.toml``),
        * a ``scenario-spec/v1`` mapping (``{"kind": "scenario-spec/v1",
          ...}``), or
        * a legacy inline scenario mapping (``{"plenaries": [...]}``).
        """
        from repro.registry.specfile import (
            looks_like_spec_path,
            scenario_from_spec_mapping,
            load_spec_file,
        )

        if isinstance(spec, str):
            if looks_like_spec_path(spec):
                entry = load_spec_file(spec)
                _record_resolved("file")
                return entry.build(seed=seed)
            entry = self.scenario(spec)
            _record_resolved(entry.source)
            return entry.build(seed=seed)
        if isinstance(spec, Mapping):
            if spec.get("kind") == "scenario-spec/v1":
                scenario = scenario_from_spec_mapping(
                    spec, source="inline spec", seed=seed
                )
                _record_resolved("file")
                return scenario
            scenario = _inline_scenario(spec, seed=seed)
            _record_resolved("inline")
            return scenario
        raise ConfigurationError(
            f"scenario spec must be a name, a spec-file path or a mapping, "
            f"got {type(spec).__name__}"
        )


def _inline_scenario(spec: Mapping[str, Any], seed: int = 0) -> Scenario:
    """Legacy inline scenario mapping -> Scenario (HTTP job payloads)."""
    from dataclasses import fields as dc_fields

    from repro.simulation.scenario import PlenarySpec

    plenary_fields = {f.name for f in dc_fields(PlenarySpec)}
    scenario_fields = {f.name for f in dc_fields(Scenario)}

    payload = dict(spec)
    plenaries_raw = payload.pop("plenaries", None)
    if not isinstance(plenaries_raw, list) or not plenaries_raw:
        raise ConfigurationError(
            "inline scenario needs a non-empty 'plenaries' list"
        )
    unknown = set(payload) - scenario_fields
    if unknown:
        raise ConfigurationError(
            f"unknown scenario field(s): {', '.join(sorted(unknown))}"
        )
    plenaries = []
    for entry in plenaries_raw:
        if not isinstance(entry, Mapping):
            raise ConfigurationError("each plenary must be a mapping")
        bad = set(entry) - plenary_fields
        if bad:
            raise ConfigurationError(
                f"unknown plenary field(s): {', '.join(sorted(bad))}"
            )
        try:
            plenaries.append(PlenarySpec(**entry))
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"invalid plenary: {exc}") from None
    payload.setdefault("name", "inline-scenario")
    payload.setdefault("seed", seed)
    try:
        return Scenario(plenaries=tuple(plenaries), **payload)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"invalid inline scenario: {exc}") from None


#: The process-wide catalog every surface resolves through.
CATALOG = ScenarioCatalog()


def register_scenario(
    name: str,
    *,
    plugin: str = "builtin",
    spec_version: str = "1",
    description: str = "",
    source: str = "plugin",
    catalog: Optional[ScenarioCatalog] = None,
) -> Callable[[Callable[..., Scenario]], Callable[..., Scenario]]:
    """Decorator registering a scenario factory under ``name``.

    >>> from repro.registry import register_scenario
    >>> @register_scenario("my-timeline", plugin="my-plugin")
    ... def my_timeline(seed=0):
    ...     ...
    """

    def decorate(factory: Callable[..., Scenario]) -> Callable[..., Scenario]:
        (catalog or CATALOG).add_scenario(ScenarioEntry(
            name=name,
            factory=factory,
            plugin=plugin,
            spec_version=spec_version,
            description=description or (factory.__doc__ or "").strip().split(
                "\n"
            )[0],
            source=source,
        ))
        return factory

    return decorate


def register_sweep_parameter(
    name: str,
    values: Sequence[Any],
    *,
    label: Optional[Callable[[Any], str]] = None,
    plugin: str = "builtin",
    description: str = "",
    supports_base: bool = False,
    catalog: Optional[ScenarioCatalog] = None,
) -> Callable[[Callable[..., Scenario]], Callable[..., Scenario]]:
    """Decorator registering a sweepable parameter with default grid."""

    def decorate(factory: Callable[..., Scenario]) -> Callable[..., Scenario]:
        entry = SweepEntry(
            name=name,
            defaults=tuple(values),
            factory=factory,
            plugin=plugin,
            description=description or (factory.__doc__ or "").strip().split(
                "\n"
            )[0],
            supports_base=supports_base,
        )
        if label is not None:
            entry = replace(entry, label=label)
        (catalog or CATALOG).add_sweep(entry)
        return factory

    return decorate
