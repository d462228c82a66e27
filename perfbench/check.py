"""Output check: bit-exact KPI comparison, cell extraction and digest.

A *cell* is one ``(scenario, seed)`` simulator run.  Its key is
``("scenario", name, seed)`` for a catalog scenario and
``("sweep", parameter, value, seed)`` for one point of a parameter
sweep; its value is the KPI dictionary the run produced.

Floats are compared by their IEEE-754 bits, which is ``==`` on every
value a JSON round-trip can produce except that it also tells ``-0.0``
from ``0.0`` and accepts a NaN equal to itself.  The check must be able
to fail: ``test_check.py`` shows it does on a one-ULP change, a missing
cell and swapped seeds.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from typing import Any, Dict, Iterable, List, Mapping, Tuple

CellKey = Tuple[Any, ...]
Cells = Dict[CellKey, Dict[str, Any]]


def same(a: Any, b: Any) -> bool:
    """Exact structural equality with bit-level float comparison."""
    if isinstance(a, float) or isinstance(b, float):
        if not (isinstance(a, (int, float)) and isinstance(b, (int, float))):
            return False
        if isinstance(a, bool) or isinstance(b, bool):
            return False
        return struct.pack("<d", float(a)) == struct.pack("<d", float(b))
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    return a == b


def _differences(a: Any, b: Any, path: str = "") -> List[str]:
    """Paths at which two KPI structures differ (first few only)."""
    if same(a, b):
        return []
    if isinstance(a, dict) and isinstance(b, dict):
        out = [f"{path}/{k}: missing" for k in sorted(a.keys() - b.keys())]
        out += [f"{path}/{k}: unexpected" for k in sorted(b.keys() - a.keys())]
        for key in sorted(a.keys() & b.keys()):
            out += _differences(a[key], b[key], f"{path}/{key}")
        return out[:5]
    note = ""
    if isinstance(a, float) and isinstance(b, float) \
            and math.nextafter(a, b) == b:
        note = " (1 ULP apart)"
    return [f"{path or '/'}: expected {a!r}, got {b!r}{note}"]


def cells_of_replicate(name: str, seeds: Iterable[int],
                       metrics: Iterable[Dict[str, Any]]) -> Cells:
    seeds, metrics = list(seeds), list(metrics)
    if len(seeds) != len(metrics):
        raise ValueError(f"{len(seeds)} seeds but {len(metrics)} results")
    return {("scenario", name, seed): kpis
            for seed, kpis in zip(seeds, metrics)}


def cells_of(payload: Mapping[str, Any]) -> Cells:
    """Every cell of a job result payload, keyed as described above."""
    kind = payload["kind"]
    if kind == "replicate":
        return cells_of_replicate(payload["scenario"], payload["seeds"],
                                  payload["metrics"])
    if kind == "compare":
        cells = cells_of_replicate(payload["name_a"], payload["seeds"],
                                   payload["metrics_a"])
        cells.update(cells_of_replicate(payload["name_b"], payload["seeds"],
                                        payload["metrics_b"]))
        return cells
    if kind == "sweep":
        cells = {}
        parameter = payload["parameter_name"]
        for value, point in zip(payload["values"],
                                payload["per_point_metrics"]):
            for seed, kpis in zip(payload["seeds"], point):
                cells[("sweep", parameter, value, seed)] = kpis
        return cells
    raise ValueError(f"unknown payload kind {kind!r}")


def compare_cells(expected: Mapping[CellKey, Any],
                  got: Mapping[CellKey, Any]) -> List[str]:
    """Problems found checking every expected cell against ``got``."""
    problems = []
    for key in sorted(expected, key=repr):
        if key not in got:
            problems.append(f"cell {key}: missing")
            continue
        for diff in _differences(expected[key], got[key]):
            problems.append(f"cell {key}: {diff}")
    return problems


def compare_payload(expected: Any, got: Any, label: str) -> List[str]:
    """Problems found comparing a served payload with the expected one."""
    return [f"{label}: {diff}" for diff in _differences(expected, got)]


def digest(cells: Mapping[CellKey, Any]) -> str:
    """SHA-256 over the cells in key order (floats in round-trip repr)."""
    blob = json.dumps(sorted(([list(k), v] for k, v in cells.items()),
                             key=lambda kv: repr(kv[0])),
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
