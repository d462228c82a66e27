"""KPIs must not depend on which CPython's builtin ``sum()`` runs them.

CPython 3.12 made ``sum()`` over floats Neumaier-compensated; 3.10 and
3.11 add left to right.  :func:`sum_312` below is a pure-Python copy of
3.12's ``builtin_sum_impl``, so the 3.12 behaviour can be patched in on
any interpreter and every catalog scenario checked for bit-equal KPIs.
"""

import builtins
import math
import sys

import pytest

from repro.numeric import ordered_sum
from repro.registry import CATALOG
from repro.simulation import LongitudinalRunner
from repro.simulation.experiment import replicate_metrics

SEEDS = (1, 3)


def sum_312(iterable, start=0):
    """CPython 3.12's ``sum()``, statement for statement."""
    items = iter(iterable)
    result = start
    if type(result) is int:
        for item in items:
            if type(item) is int or type(item) is bool:
                result += item
                continue
            result = result + item
            break
        else:
            return result
    if type(result) is float:
        total, compensation = result, 0.0
        for item in items:
            if type(item) is float:
                t = total + item
                if abs(total) >= abs(item):
                    compensation += (total - t) + item
                else:
                    compensation += (item - t) + total
                total = t
                continue
            if isinstance(item, int) and -2**63 <= item < 2**63:
                total += float(item)
                continue
            if compensation and math.isfinite(compensation):
                total += compensation
            result = total + item
            break
        else:
            if compensation and math.isfinite(compensation):
                total += compensation
            return total
    for item in items:
        result = result + item
    return result


def left_to_right(values):
    total = 0
    for value in values:
        total = total + value
    return total


class TestSumCopies:
    def test_sum_312_compensates(self):
        assert sum_312([0.1] * 10) == 1.0
        assert sum_312([1e100, 1.0, -1e100, 1.0]) == 2.0
        assert sum_312([]) == 0 and type(sum_312([])) is int
        assert sum_312([1, 2, 3]) == 6

    def test_sum_312_is_the_builtin_from_3_12(self):
        if sys.version_info < (3, 12):
            pytest.skip("builtin sum() is compensated from CPython 3.12")
        values = [0.1 * i for i in range(1, 200)] + [1e16, -1e16, 1.5]
        assert sum_312(values) == builtins.sum(values)

    def test_ordered_sum_adds_left_to_right(self):
        values = [0.1] * 10 + [1e100, 1.0, -1e100, 1.0]
        assert ordered_sum(values) == left_to_right(values)
        assert ordered_sum([0.1] * 10) == 0.9999999999999999
        assert ordered_sum([]) == 0 and type(ordered_sum([])) is int
        assert math.copysign(1.0, ordered_sum([-0.0])) == 1.0


@pytest.mark.parametrize("name", CATALOG.scenario_names())
def test_catalog_kpis_do_not_depend_on_builtin_sum(name, monkeypatch):
    """Every catalog scenario yields bit-equal KPIs under both sums."""
    scenario = CATALOG.resolve(name)
    # The default runner clones cached world templates, which would carry
    # setup computed under the first sum into the second run.
    plain = replicate_metrics(scenario, SEEDS, LongitudinalRunner)
    monkeypatch.setattr(builtins, "sum", sum_312)
    compensated = replicate_metrics(scenario, SEEDS, LongitudinalRunner)
    assert repr(compensated) == repr(plain)  # bit-equal, -0.0 included
