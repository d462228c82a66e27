"""The output check must be able to fail.

Run with ``python3 -m pytest perfbench -q`` from the checkout root.
These tests need no simulation: they feed ``check.py`` hand-made KPI
cells and payloads shaped like the service's.
"""

import copy
import json
import math
from pathlib import Path

import pytest

from check import cells_of, compare_cells, compare_payload, digest, same

KPIS = {
    "inter_org_ties": 41,
    "knowledge_growth": 0.1234567890123,
    "mean_energy": 0.87,
}


def kpis(offset):
    return {k: v + offset for k, v in KPIS.items()}


@pytest.fixture
def cells():
    return {
        ("scenario", "megamart-hackathon", 7): kpis(0.0),
        ("scenario", "megamart-hackathon", 8): kpis(1.5),
        ("sweep", "session-hours", 2.0, 7): kpis(3.25),
    }


def test_identical_cells_pass(cells):
    assert compare_cells(cells, copy.deepcopy(cells)) == []


def test_one_ulp_fails(cells):
    got = copy.deepcopy(cells)
    key = ("scenario", "megamart-hackathon", 8)
    value = got[key]["knowledge_growth"]
    got[key]["knowledge_growth"] = math.nextafter(value, math.inf)
    problems = compare_cells(cells, got)
    assert len(problems) == 1 and "knowledge_growth" in problems[0]
    assert "1 ULP apart" in problems[0]


def test_missing_cell_fails(cells):
    got = copy.deepcopy(cells)
    del got[("sweep", "session-hours", 2.0, 7)]
    problems = compare_cells(cells, got)
    assert len(problems) == 1 and "missing" in problems[0]


def test_missing_kpi_fails(cells):
    got = copy.deepcopy(cells)
    del got[("scenario", "megamart-hackathon", 7)]["mean_energy"]
    assert compare_cells(cells, got)


def test_swapped_seeds_fail(cells):
    got = copy.deepcopy(cells)
    a = ("scenario", "megamart-hackathon", 7)
    b = ("scenario", "megamart-hackathon", 8)
    got[a], got[b] = got[b], got[a]
    assert len(compare_cells(cells, got)) >= 2


def test_swapped_seeds_in_a_payload_fail():
    served = {"kind": "replicate", "scenario": "megamart-hackathon",
              "seeds": [7, 8], "metrics": [kpis(0.0), kpis(1.5)]}
    swapped = dict(served, seeds=[8, 7])
    assert compare_payload(served, swapped, "job")
    assert compare_cells(cells_of(served), cells_of(swapped))


def test_float_bits_not_just_equality():
    assert same(0.1, 0.1)
    assert not same(0.0, -0.0)
    assert same(float("nan"), float("nan"))
    assert not same(1, True)
    assert same({"a": [1.5, 2]}, {"a": [1.5, 2]})
    assert not same({"a": [1.5, 2]}, {"a": [1.5, 2, 3]})


def test_payload_round_trip_through_json_passes():
    served = {"kind": "compare", "name_a": "a", "name_b": "b",
              "seeds": [1, 2], "metrics_a": [kpis(0.1), kpis(0.2)],
              "metrics_b": [kpis(0.3), kpis(1 / 3)]}
    assert compare_payload(served, json.loads(json.dumps(served)), "j") == []
    assert len(cells_of(served)) == 4


def test_sweep_cells_keyed_by_value_and_seed():
    payload = {"kind": "sweep", "parameter_name": "cadence",
               "values": [1.0, 2.0], "labels": ["x", "y"], "seeds": [5],
               "per_point_metrics": [[kpis(0.0)], [kpis(1.0)]]}
    assert set(cells_of(payload)) == {("sweep", "cadence", 1.0, 5),
                                      ("sweep", "cadence", 2.0, 5)}


def test_digest_changes_with_one_ulp(cells):
    got = copy.deepcopy(cells)
    key = ("scenario", "megamart-hackathon", 7)
    got[key]["mean_energy"] = math.nextafter(got[key]["mean_energy"], 0.0)
    assert digest(cells) == digest(copy.deepcopy(cells))
    assert digest(cells) != digest(got)


def test_benchmark_json_names_what_run_prints():
    """BENCHMARK.json and the metric tables in the code agree."""
    from metrics import END_TO_END, PER_LAYER

    spec = json.loads(
        (Path(__file__).resolve().parent.parent / "BENCHMARK.json")
        .read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
