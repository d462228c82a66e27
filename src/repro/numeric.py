"""Float sums whose last bit does not depend on the interpreter version.

CPython 3.12 made builtin ``sum()`` over floats compensated (Neumaier
summation), so one list of floats can sum to a different last bit on
3.12 than on 3.10 and 3.11.  KPIs must be a pure function of
(scenario, seed, model version), so the KPI code sums floats with
:func:`ordered_sum` instead.
"""

from __future__ import annotations

from functools import reduce
from operator import add
from typing import Iterable

__all__ = ["ordered_sum"]


def ordered_sum(values: Iterable[float]) -> float:
    """``0 + v0 + v1 + ...`` left to right, with no compensation.

    That is what ``sum()`` computes on CPython 3.10 and 3.11, including
    the int ``0`` it returns for no values.
    """
    return reduce(add, values, 0)
