"""Pure helpers the benchmark aggregates with: order statistics, metric
names, and the output check that turns digests into a failure count.

Nothing here imports the program under test, so these helpers are tested
without running a simulation (``python3 -m pytest perfbench``).
"""

from __future__ import annotations

import re
import statistics
from typing import Dict, List, Optional, Sequence

#: A metric name: starts with a letter or digit, at most 64 characters of
#: letters, digits, ``_``, ``.`` and ``-``.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: A unit: at most 16 characters of letters, digits, ``_/%.-``.
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def valid_name(name: str) -> bool:
    """Whether ``name`` is a legal metric or workload name."""
    return bool(NAME_RE.match(name))


def valid_unit(unit: str) -> bool:
    """Whether ``unit`` is a legal metric unit."""
    return bool(UNIT_RE.match(unit))


def median(values: Sequence[float]) -> float:
    """The median; raises ``ValueError`` on an empty sequence."""
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def quartiles(values: Sequence[float]) -> List[float]:
    """First quartile, median, third quartile.

    The same cut points as ``statistics.quantiles(values, n=4)`` (the
    "exclusive" method); a single value is its own three quartiles.
    """
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 for one value)."""
    q1, mid, q3 = quartiles(values)
    if mid == 0:
        raise ValueError("spread is undefined for a zero median")
    return (q3 - q1) / mid


#: Prefix of a digest standing for an output that broke an invariant.
INVALID = "invalid:"


def count_failures(reference: Optional[List[str]],
                   observed: Optional[List[str]], ops: int) -> int:
    """Operations of one pass whose output is wrong.

    ``observed`` is the pass's per-operation digests, or ``None`` when the
    pass raised, in which case all ``ops`` operations failed.  A digest
    list of the wrong length fails every operation.  Otherwise an
    operation fails when its digest marks a broken invariant
    (:data:`INVALID`) or differs from the reference; ``reference=None``
    means no reference is known, so only broken invariants count.
    """
    if observed is None or len(observed) != ops:
        return ops
    if reference is not None and len(reference) != ops:
        return ops
    failed = 0
    for index, got in enumerate(observed):
        if got.startswith(INVALID):
            failed += 1
        elif reference is not None and got != reference[index]:
            failed += 1
    return failed


def metric(value: float, unit: str) -> Dict[str, object]:
    """One entry of the result line's ``metrics`` object."""
    return {"value": value, "unit": unit}
