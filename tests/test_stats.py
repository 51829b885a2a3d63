"""Mann-Whitney U and percent agreement."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maiclass.errors import (
    EmptySample,
    EmptyTable,
    LengthMismatch,
    NumericalFailure,
    Unsupported,
)
from maiclass.stats import (
    _midranks,
    mann_whitney_u,
    percent_agreement,
)


def reference_mwu(x, y, continuity):
    """Independent scratch implementation: textbook midranks, tie-corrected
    variance, z on the larger U."""
    pooled = sorted((v, 0, i) for i, v in enumerate(x))
    pooled += sorted((v, 1, i) for i, v in enumerate(y))
    pooled.sort(key=lambda t: t[0])
    ranks = {}
    i = 0
    correction = 0.0
    while i < len(pooled):
        j = i
        while j < len(pooled) and pooled[j][0] == pooled[i][0]:
            j += 1
        mid = (i + 1 + j) / 2.0
        if j - i > 1:
            t = j - i
            correction += t ** 3 - t
        for k in range(i, j):
            ranks[(pooled[k][1], pooled[k][2])] = mid
        i = j
    n1, n2 = len(x), len(y)
    r1 = sum(ranks[(0, i)] for i in range(n1))
    u1 = r1 - n1 * (n1 + 1) / 2.0
    u2 = n1 * n2 - u1
    n = n1 + n2
    var = n1 * n2 / 12.0 * ((n + 1) - correction / (n * (n - 1)))
    bigu = max(u1, u2)
    numer = bigu - n1 * n2 / 2.0
    if continuity:
        numer -= 0.5
    z = numer / math.sqrt(var) if var > 0 else 0.0
    p = min(1.0, 2.0 * 0.5 * math.erfc(z / math.sqrt(2.0))) if var > 0 \
        else 1.0
    return u1, u2, z, p


def exact_enumeration_p(x, y):
    """Exhaustive null distribution over which pooled positions belong to
    the first sample; tie-free inputs only."""
    n1, n2 = len(x), len(y)
    pooled = sorted(x + y)
    assert len(set(pooled)) == len(pooled)
    obs_u1 = sum(1 for a in x for b in y if a > b)
    obs_big = max(obs_u1, n1 * n2 - obs_u1)
    hits = 0
    total = 0
    for first in itertools.combinations(range(n1 + n2), n1):
        chosen = set(first)
        u1 = sum(1 for i in chosen for j in range(n1 + n2)
                 if j not in chosen and pooled[i] > pooled[j])
        total += 1
        if max(u1, n1 * n2 - u1) >= obs_big:
            hits += 1
    return hits / total


def test_extreme_separation():
    res = mann_whitney_u([1.0, 2.0], [3.0, 4.0])
    assert res.u1 == 0.0
    assert res.u2 == 4.0


def test_identical_multisets():
    res = mann_whitney_u([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert res.u1 == 4.5  # n^2 / 2
    assert res.u2 == 4.5
    assert res.p_two_sided > 0.99
    assert res.tie_groups == 3


def test_empty_sample():
    with pytest.raises(EmptySample):
        mann_whitney_u([], [1.0])
    with pytest.raises(EmptySample):
        mann_whitney_u([1.0], [])


def test_unknown_method():
    with pytest.raises(ValueError):
        mann_whitney_u([1.0], [2.0], method="bootstrap")


def test_exact_method_requires_tie_free():
    with pytest.raises(Unsupported):
        mann_whitney_u([1.0, 1.0], [2.0], method="exact")


def test_exact_method_refuses_samples_above_the_size_limit():
    # 69 x 68 pairs is just past the bound; the refusal comes before any
    # counting, so this returns at once.
    x = [float(v) for v in range(69)]
    y = [v + 0.5 for v in range(68)]
    with pytest.raises(Unsupported):
        mann_whitney_u(x, y, method="exact")
    assert mann_whitney_u(x, y).method == "normal"


def test_exact_method_counts_over_the_smaller_sample():
    # The bound is on n1 * n2, so a long first sample against a short
    # second one must cost no more than the reverse order.
    x = [float(v) for v in range(150)]
    y = [40.5, 120.5]
    ab = mann_whitney_u(x, y, method="exact")
    ba = mann_whitney_u(y, x, method="exact")
    assert ab.method == ba.method == "exact"
    assert ab.p_two_sided == ba.p_two_sided


@pytest.mark.parametrize("method", ["auto", "normal", "exact"])
def test_nan_in_either_sample_is_numerical_failure(method):
    with pytest.raises(NumericalFailure):
        mann_whitney_u([1.0, 2.0, 3.0], [math.nan, 1.0], method=method)
    with pytest.raises(NumericalFailure):
        mann_whitney_u([math.nan], [1.0, 2.0], method=method)


def test_infinities_rank_at_the_ends():
    res = mann_whitney_u([-math.inf, 1.0], [2.0, math.inf])
    assert (res.u1, res.u2) == (0.0, 4.0)
    assert res.method == "exact"


def test_u_sum_fuzz_1000():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        n1 = int(rng.integers(1, 25))
        n2 = int(rng.integers(1, 25))
        x = rng.integers(0, 10, size=n1).astype(float).tolist()
        y = rng.integers(0, 10, size=n2).astype(float).tolist()
        res = mann_whitney_u(x, y, method="normal")
        assert res.u1 + res.u2 == pytest.approx(n1 * n2, abs=1e-9)
        assert 0.0 <= res.p_two_sided <= 1.0


@given(st.lists(st.integers(-5, 5), min_size=1, max_size=12),
       st.lists(st.integers(-5, 5), min_size=1, max_size=12))
def test_swap_symmetry(xs, ys):
    x = [float(v) for v in xs]
    y = [float(v) for v in ys]
    ab = mann_whitney_u(x, y, method="normal")
    ba = mann_whitney_u(y, x, method="normal")
    assert ab.u1 == ba.u2
    assert ab.u2 == ba.u1
    assert ab.p_two_sided == ba.p_two_sided


@given(st.lists(st.integers(-5, 5), min_size=1, max_size=12),
       st.lists(st.integers(-5, 5), min_size=1, max_size=12))
def test_monotone_transform_invariance(xs, ys):
    x = [float(v) for v in xs]
    y = [float(v) for v in ys]
    base = mann_whitney_u(x, y, method="normal")
    for t in (lambda v: 2.0 * v + 3.0, math.exp, lambda v: v ** 3):
        res = mann_whitney_u([t(v) for v in x], [t(v) for v in y],
                             method="normal")
        assert res.u1 == base.u1
        assert res.p_two_sided == pytest.approx(base.p_two_sided,
                                                abs=1e-12)


@settings(max_examples=30)
@given(st.lists(st.floats(-100, 100, allow_nan=False), min_size=1,
                max_size=15),
       st.lists(st.floats(-100, 100, allow_nan=False), min_size=1,
                max_size=15),
       st.booleans())
def test_agrees_with_scratch_implementation(xs, ys, continuity):
    res = mann_whitney_u(xs, ys, continuity=continuity, method="normal")
    u1, u2, z, p = reference_mwu(xs, ys, continuity)
    assert res.u1 == pytest.approx(u1, abs=1e-9)
    assert res.u2 == pytest.approx(u2, abs=1e-9)
    assert res.z == pytest.approx(z, abs=1e-9)
    assert res.p_two_sided == pytest.approx(p, abs=1e-12)


def loop_midranks(pooled):
    """Oracle: walk the stably sorted sample one tie group at a time."""
    order = np.argsort(pooled, kind="stable")
    ranks = np.empty(pooled.shape[0])
    tie_groups = 0
    correction = 0.0
    i = 0
    n = pooled.shape[0]
    while i < n:
        j = i
        while j + 1 < n and pooled[order[j + 1]] == pooled[order[i]]:
            j += 1
        # Positions i..j (0-based) share ranks i+1..j+1; assign the average.
        ranks[order[i:j + 1]] = (i + j + 2) / 2.0
        t = j - i + 1
        if t > 1:
            tie_groups += 1
            correction += t ** 3 - t
        i = j + 1
    return ranks, tie_groups, correction


@given(st.lists(st.sampled_from([-np.inf, -2.5, -0.0, 0.0, 1.0, 3.0,
                                 np.inf]) | st.floats(allow_nan=False),
                min_size=1, max_size=40))
def test_midranks_match_tie_group_loop(values):
    pooled = np.array(values, dtype=np.float64)
    ranks, tie_groups, correction = _midranks(pooled)
    want_ranks, want_groups, want_correction = loop_midranks(pooled)
    assert ranks.tobytes() == want_ranks.tobytes()
    assert tie_groups == want_groups
    assert correction == want_correction


@pytest.mark.parametrize("n1,n2,seed", [(3, 4, 0), (5, 5, 1), (8, 8, 2),
                                        (2, 8, 3), (6, 7, 4)])
def test_exact_p_matches_enumeration_oracle(n1, n2, seed):
    rng = np.random.default_rng(seed)
    values = rng.permutation(np.arange(n1 + n2, dtype=float) * 1.7 + 0.3)
    x = values[:n1].tolist()
    y = values[n1:].tolist()
    res = mann_whitney_u(x, y, continuity=False)
    assert res.method == "exact"
    assert abs(res.p_two_sided - exact_enumeration_p(x, y)) <= 0.005


def test_auto_switches_to_normal_for_large_or_tied():
    big = mann_whitney_u(list(range(9)), list(range(9, 18)))
    assert big.method == "normal"
    tied = mann_whitney_u([1.0, 1.0, 2.0], [2.0, 3.0])
    assert tied.method == "normal"
    small = mann_whitney_u([1.0, 4.0], [2.0, 3.0])
    assert small.method == "exact"
    assert not small.continuity_applied


def test_exact_path_z_has_no_continuity_correction():
    # U1 = U2 = 3, so the uncorrected z is 0; subtracting the 0.5 that only
    # the normal path applies would give -0.2887.
    res = mann_whitney_u([math.inf, -math.inf], [1.0, 2.0, 3.0])
    assert res.method == "exact"
    assert not res.continuity_applied
    assert res.z == 0.0
    normal = mann_whitney_u([math.inf, -math.inf], [1.0, 2.0, 3.0],
                            method="normal")
    assert normal.continuity_applied
    assert normal.z == pytest.approx(-0.5 / math.sqrt(3.0))


def test_continuity_flag_reported():
    on = mann_whitney_u([1.0, 5.0], [2.0, 3.0], method="normal")
    off = mann_whitney_u([1.0, 5.0], [2.0, 3.0], continuity=False,
                         method="normal")
    assert on.continuity_applied
    assert not off.continuity_applied
    assert on.p_two_sided >= off.p_two_sided


def test_percent_agreement_examples():
    assert percent_agreement([[1, 0], [1, 1]]) == [100.0, 50.0]
    assert percent_agreement([[1], [1], [1]]) == [100.0]
    column = [[1], [0], [1], [1], [0], [1], [1], [0], [0], [0]]
    assert percent_agreement(column) == [50.0]


def test_percent_agreement_row_permutation_invariant():
    rng = np.random.default_rng(1)
    table = rng.integers(0, 2, size=(10, 4)).tolist()
    perm = rng.permutation(10)
    assert percent_agreement(table) \
        == percent_agreement([table[i] for i in perm])


def test_percent_agreement_errors():
    with pytest.raises(EmptyTable):
        percent_agreement([])
    with pytest.raises(LengthMismatch):
        percent_agreement([[1, 0], [1]])
    with pytest.raises(ValueError):
        percent_agreement([[1, 2]])

