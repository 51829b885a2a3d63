"""Mann-Whitney U and percent agreement."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .errors import (
    EmptySample,
    EmptyTable,
    LengthMismatch,
    NumericalFailure,
    Unsupported,
)

# Largest n1 * n2 the exact path counts. Its cost grows with the square of
# n1 * n2; 68 x 68 takes about 1 s (2-CPU x86 container, Python 3.11).
_EXACT_MAX_PAIRS = 68 * 68


@dataclass(frozen=True)
class UTestResult:
    """Two-sided Mann-Whitney U outcome for samples x (1) and y (2)."""

    u1: float
    u2: float
    z: float
    p_two_sided: float
    n1: int
    n2: int
    tie_groups: int
    continuity_applied: bool
    method: str


def _midranks(pooled: np.ndarray) -> Tuple[np.ndarray, int, float]:
    """Midranks of the pooled sample, tie-group count, and tie correction.

    The correction term is ``sum(t^3 - t)`` over groups of size t."""
    _, group, size = np.unique(pooled, return_inverse=True,
                               return_counts=True)
    # A group of t values after ``first`` smaller ones shares the ranks
    # first+1 .. first+t; each of its values gets their mean.
    first = np.cumsum(size) - size
    ties = size[size > 1].astype(np.float64)
    return ((first + (size + 1) / 2.0)[group], int(ties.size),
            float(np.sum(ties ** 3 - ties)))


def _normal_sf(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def _exact_bigu_tail(n1: int, n2: int, bigu: float) -> float:
    """P(U >= bigu) under the exact tie-free null for max(U1, U2).

    Counts k-subsets of ranks {1..n} by rank sum with an integer DP, then
    converts rank sums to U values. The tail of max(U1, U2) is the same for
    either sample, so the DP runs over the smaller one.
    """
    n1, n2 = min(n1, n2), max(n1, n2)
    n = n1 + n2
    max_sum = n1 * n + 1
    # ways[k, s] = number of k-subsets of {1..considered} summing to s. The
    # object dtype keeps Python ints, so the counts stay exact.
    ways = np.zeros((n1 + 1, max_sum), dtype=object)
    ways[0, 0] = 1
    for value in range(1, n + 1):
        # Descending k reads row k - 1 before this value is added to it.
        for k in range(min(value, n1), 0, -1):
            ways[k, value:] += ways[k - 1, :max_sum - value]
    u1 = np.arange(max_sum) - n1 * (n1 + 1) // 2
    in_tail = np.maximum(u1, n1 * n2 - u1) >= bigu
    return sum(ways[n1, in_tail]) / math.comb(n, n1)


def mann_whitney_u(x: Sequence[float], y: Sequence[float],
                   continuity: bool = True, method: str = "auto",
                   ) -> UTestResult:
    """Two-sided Mann-Whitney U test.

    ``method`` is ``"normal"`` (tie-corrected normal approximation,
    optionally with the 0.5 continuity correction), ``"exact"``
    (enumeration of the tie-free null; raises :class:`Unsupported` when the
    samples have ties or ``n1 * n2`` exceeds 68 * 68), or ``"auto"`` which
    picks the exact path for tie-free samples with ``n1, n2 <= 8`` and the
    normal approximation otherwise. A NaN in either sample raises
    :class:`NumericalFailure`; infinities rank like any other value.
    """
    xa = np.asarray(list(x), dtype=np.float64)
    ya = np.asarray(list(y), dtype=np.float64)
    if xa.size == 0 or ya.size == 0:
        raise EmptySample("both samples must be non-empty")
    if method not in ("auto", "normal", "exact"):
        raise ValueError(f"unknown method {method!r}")
    n1 = int(xa.size)
    n2 = int(ya.size)
    pooled = np.concatenate([xa, ya])
    if np.isnan(pooled).any():
        raise NumericalFailure("samples contain NaN, which has no rank")
    ranks, tie_groups, correction = _midranks(pooled)
    r1 = float(np.sum(ranks[:n1]))
    u1 = r1 - n1 * (n1 + 1) / 2.0
    u2 = n1 * n2 - u1
    bigu = max(u1, u2)

    use_exact = method == "exact" or (
        method == "auto" and tie_groups == 0 and n1 <= 8 and n2 <= 8)
    if use_exact and tie_groups > 0:
        raise Unsupported("exact method requires tie-free samples")
    if use_exact and n1 * n2 > _EXACT_MAX_PAIRS:
        raise Unsupported(f"exact method takes at most {_EXACT_MAX_PAIRS} "
                          f"sample pairs, got {n1} x {n2}")

    n = n1 + n2
    var = n1 * n2 / 12.0 * ((n + 1) - correction / (n * (n - 1)))
    # z is measured on the larger U. The continuity correction applies only
    # on the normal path; with it, z can dip slightly below zero when U1 and
    # U2 almost coincide.
    continuity_applied = continuity and not use_exact
    if var <= 0.0:
        z = 0.0
    else:
        numer = bigu - n1 * n2 / 2.0
        if continuity_applied:
            numer -= 0.5
        z = numer / math.sqrt(var)

    if use_exact:
        p = min(1.0, _exact_bigu_tail(n1, n2, bigu))
    else:
        p = 1.0 if var <= 0.0 else min(1.0, 2.0 * _normal_sf(z))
    return UTestResult(u1=u1, u2=u2, z=z, p_two_sided=p, n1=n1, n2=n2,
                       tie_groups=tie_groups,
                       continuity_applied=continuity_applied,
                       method="exact" if use_exact else "normal")


def percent_agreement(table) -> List[float]:
    """Share of 1-votes per column of a binary table, as percentages."""
    rows = [list(r) for r in table]
    if not rows or not rows[0]:
        raise EmptyTable("agreement table needs at least one row and column")
    width = len(rows[0])
    for r in rows:
        if len(r) != width:
            raise LengthMismatch("agreement table rows have unequal lengths")
        for v in r:
            if v not in (0, 1):
                raise ValueError(f"agreement cells must be 0 or 1, got {v!r}")
    out = []
    for col in range(width):
        ones = sum(r[col] for r in rows)
        out.append(100.0 * ones / len(rows))
    return out

