"""SMO dual solver: hand oracles, KKT conditions, a grid-search oracle, and
the solver as first written, on Q, as a bit-for-bit reference."""

import math
import tracemalloc

import numpy as np
import pytest

from maiclass.classifiers.kernels import KERNEL_KINDS, kernel_matrix
from maiclass.errors import DimensionMismatch, LengthMismatch
from maiclass.optim import _TAU, _index_sets, smo_solve


def linear_gram(X):
    X = np.asarray(X, dtype=np.float64)
    return X @ X.T


def dual_objective(alpha, Q):
    return float(alpha.sum() - 0.5 * alpha @ Q @ alpha)


def kkt_gap(alpha, Q, y, c):
    """Maximal-violating-pair gap m - M recomputed from scratch."""
    grad = Q @ alpha - 1.0
    yg = -y * grad
    pos = y > 0
    up = np.where(pos, alpha < c, alpha > 0.0)
    low = np.where(pos, alpha > 0.0, alpha < c)
    return float(yg[up].max() - yg[low].min())


def test_two_point_symmetric_oracle():
    # Points -1 and +1 with labels -1, +1: by symmetry the dual optimum is
    # alpha = (0.5, 0.5) and the separating function is f(x) = x, bias 0.
    K = linear_gram([[-1.0], [1.0]])
    sol = smo_solve(K, [-1.0, 1.0])
    assert np.allclose(sol.alphas, [0.5, 0.5], atol=1e-9)
    assert abs(sol.bias) < 1e-9
    assert sol.converged
    assert np.array_equal(np.flatnonzero(sol.alphas), [0, 1])


def test_two_point_shifted_oracle():
    # Points 0 and 2: margin-maximizing line is f(x) = x - 1.
    K = linear_gram([[0.0], [2.0]])
    sol = smo_solve(K, [-1.0, 1.0])
    w = float(sol.alphas[1] * 2.0 - sol.alphas[0] * 0.0)
    assert np.allclose(sol.alphas, [0.5, 0.5], atol=1e-9)
    assert abs(w - 1.0) < 1e-9
    assert abs(sol.bias - (-1.0)) < 1e-9


def test_identical_points_opposite_labels():
    # Irreducibly overlapping data: both multipliers hit the box bound.
    K = linear_gram([[1.0], [1.0]])
    sol = smo_solve(K, [-1.0, 1.0], c=1.0)
    assert np.array_equal(sol.alphas, [1.0, 1.0])
    assert sol.converged


def test_kkt_satisfied_on_random_problems():
    rng = np.random.default_rng(42)
    tol = 1e-3
    for _ in range(50):
        n = int(rng.integers(2, 21))
        X = rng.normal(size=(n, 2))
        y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        if np.all(y == y[0]):
            y[0] = -y[0]
        d2 = ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)
        K = np.exp(-0.7 * d2)
        c = float(rng.choice([0.3, 1.0, 4.0]))
        sol = smo_solve(K, y, c=c, tolerance=tol)
        Q = (y[:, None] * y[None, :]) * K
        assert sol.converged
        assert kkt_gap(sol.alphas, Q, y, c) <= tol + 1e-12
        assert np.all(sol.alphas >= 0.0) and np.all(sol.alphas <= c)
        assert abs(float(sol.alphas @ y)) <= 1e-8


def grid_search_dual(Q, y, c, levels=4, steps=11):
    """Zooming grid search over the feasible box, eliminating the equality
    constraint by solving for the last coordinate."""
    n = len(y)
    best_obj = -np.inf
    center = np.full(n - 1, c / 2.0)
    half = c / 2.0
    for _ in range(levels):
        axes = [np.clip(np.linspace(center[i] - half, center[i] + half,
                                    steps), 0.0, c) for i in range(n - 1)]
        mesh = np.meshgrid(*axes, indexing="ij")
        head = np.stack([m.ravel() for m in mesh], axis=1)
        last = -(head @ y[:-1]) / y[-1]
        ok = (last >= -1e-12) & (last <= c + 1e-12)
        if ok.any():
            full = np.concatenate(
                [head[ok], np.clip(last[ok], 0.0, c)[:, None]], axis=1)
            obj = full.sum(axis=1) \
                - 0.5 * np.einsum("ij,jk,ik->i", full, Q, full)
            k = int(np.argmax(obj))
            if obj[k] > best_obj:
                best_obj = float(obj[k])
                center = full[k][:-1]
        half = half * 2.0 / (steps - 1)
    return best_obj


@pytest.mark.parametrize("seed,n", [(0, 3), (1, 4), (2, 4), (3, 5), (4, 6),
                                    (5, 6)])
def test_dual_objective_matches_grid_oracle(seed, n):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 2))
    y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    if np.all(y == y[0]):
        y[0] = -y[0]
    K = linear_gram(X) if seed % 2 else np.exp(
        -((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2))
    sol = smo_solve(K, y, c=1.0, tolerance=1e-6)
    Q = (y[:, None] * y[None, :]) * K
    ours = dual_objective(sol.alphas, Q)
    oracle = grid_search_dual(Q, y, 1.0)
    assert abs(ours - oracle) <= 1e-3


def test_iteration_budget_returns_unconverged():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(30, 2))
    y = np.where(rng.random(30) < 0.5, -1.0, 1.0)
    K = linear_gram(X)
    sol = smo_solve(K, y, max_iterations=1)
    assert not sol.converged
    assert sol.iterations == 1


@pytest.mark.parametrize("labels,bias", [([1.0, 1.0, 1.0], 1.0),
                                         ([-1.0, -1.0], -1.0)])
def test_one_class_labels_stop_converged_at_iteration_0(labels, bias):
    # With one class, I_low (all +1) or I_up (all -1) is empty: no pair can
    # move, and the gap test against its all-infinite mask stops at once.
    sol = smo_solve(np.eye(len(labels)), labels)
    assert (sol.converged, sol.iterations) == (True, 0)
    assert np.array_equal(sol.alphas, np.zeros(len(labels)))
    assert sol.bias == bias


def test_empty_kernel_is_rejected():
    with pytest.raises(DimensionMismatch, match="non-empty"):
        smo_solve(np.zeros((0, 0)), [])


def test_validation_errors():
    with pytest.raises(DimensionMismatch):
        smo_solve(np.zeros((2, 3)), [1.0, -1.0])
    with pytest.raises(LengthMismatch):
        smo_solve(np.eye(3), [1.0, -1.0])
    with pytest.raises(ValueError):
        smo_solve(np.eye(2), [1.0, 2.0])
    with pytest.raises(ValueError):
        smo_solve(np.eye(2), [1.0, -1.0], c=0.0)
    with pytest.raises(ValueError):
        smo_solve(np.eye(2), [1.0, -1.0], tolerance=0.0)
    # A NaN setting compares false both ways, so it must fail every check.
    y = [1.0, -1.0, 1.0, -1.0]
    with pytest.raises(ValueError, match="c must be > 0"):
        smo_solve(np.eye(4), y, c=math.nan)
    with pytest.raises(ValueError, match="tolerance must be > 0"):
        smo_solve(np.eye(4), y, tolerance=math.nan)
    with pytest.raises(ValueError, match="max_iterations must be >= 0"):
        smo_solve(np.eye(4), y, max_iterations=-1)


def reference_smo(K, y, c, tolerance, max_iterations):
    """SMO as first written: it forms Q = (yy')*K and keeps the unscaled
    dual gradient Q @ alpha - 1, rescaling it by -y at every step."""
    Q = (y[:, None] * y[None, :]) * K
    n = Q.shape[0]
    alpha = np.zeros(n, dtype=np.float64)
    # The dual gradient Q @ alpha - 1, kept up to date pair by pair.
    grad = np.full(n, -1.0, dtype=np.float64)
    pos = y > 0.0
    converged = False
    iterations = 0
    while iterations < max_iterations:
        # Maximal-violating-pair selection on the scaled gradient -y*G.
        yg = -y * grad
        up, low = _index_sets(pos, alpha, c)
        if not up.any() or not low.any():
            converged = True
            break
        up_vals = np.where(up, yg, -np.inf)
        low_vals = np.where(low, yg, np.inf)
        i = int(np.argmax(up_vals))
        j = int(np.argmin(low_vals))
        if up_vals[i] - low_vals[j] <= tolerance:
            converged = True
            break

        Qi = Q[i]
        Qj = Q[j]
        old_ai = float(alpha[i])
        old_aj = float(alpha[j])
        if y[i] != y[j]:
            quad = Qi[i] + Qj[j] + 2.0 * Qi[j]
            if quad <= 0.0:
                quad = _TAU
            delta = (-grad[i] - grad[j]) / quad
            diff = old_ai - old_aj
            ai = old_ai + delta
            aj = old_aj + delta
            if diff > 0.0:
                if aj < 0.0:
                    aj = 0.0
                    ai = diff
                if ai > c:
                    ai = c
                    aj = c - diff
            else:
                if ai < 0.0:
                    ai = 0.0
                    aj = -diff
                if aj > c:
                    aj = c
                    ai = c + diff
        else:
            quad = Qi[i] + Qj[j] - 2.0 * Qi[j]
            if quad <= 0.0:
                quad = _TAU
            delta = (grad[i] - grad[j]) / quad
            total = old_ai + old_aj
            ai = old_ai - delta
            aj = old_aj + delta
            if total > c:
                if ai > c:
                    ai = c
                    aj = total - c
                if aj > c:
                    aj = c
                    ai = total - c
            else:
                if aj < 0.0:
                    aj = 0.0
                    ai = total
                if ai < 0.0:
                    ai = 0.0
                    aj = total
        alpha[i] = ai
        alpha[j] = aj
        grad += (ai - old_ai) * Qi
        grad += (aj - old_aj) * Qj
        iterations += 1
    alpha[alpha < 1e-12 * alpha.max(initial=0.0)] = 0.0
    alpha[alpha > c - 1e-12 * c] = c
    yg = -y * grad
    free = (alpha > 0.0) & (alpha < c)
    if free.any():
        bias = float(np.mean(yg[free]))
    else:
        up, low = _index_sets(pos, alpha, c)
        hi = float(np.max(yg[up])) if up.any() else math.nan
        lo = float(np.min(yg[low])) if low.any() else math.nan
        ends = [v for v in (hi, lo) if math.isfinite(v)]
        bias = (hi + lo) / 2.0 if len(ends) == 2 else ends[0] if ends else 0.0
    support = tuple(int(i) for i in np.nonzero(alpha > 0.0)[0])
    return alpha, bias, support, converged, iterations


def reference_problem(kind, seed):
    """A Gram of ``kind`` on 2-30 rows scaled by 1e-3 to 1e3 (a third of
    them rounded to whole multiples of the scale, so rows and entries tie),
    labels with both signs, C from 0.01 to 100, and a cap that sometimes
    stops the solver early."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 31))
    d = int(rng.integers(1, 6))
    X = rng.normal(size=(n, d)) * 2.0
    if rng.random() < 1.0 / 3.0:
        X = np.round(X)
    X *= 10.0 ** rng.uniform(-3.0, 3.0)
    y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    if np.all(y == y[0]):
        y[0] = -y[0]
    c = float(10.0 ** rng.uniform(-2.0, 2.0))
    tolerance = float(rng.choice([1e-3, 1e-6]))
    cap = int(rng.choice([1, 5, 40, 2_000, 2_000, 2_000]))
    return kernel_matrix(kind, 1.0 / d, X), y, c, tolerance, cap


@pytest.mark.parametrize("kind", KERNEL_KINDS)
def test_matches_the_q_based_reference_bit_for_bit(kind):
    # Every rescale by -y is a sign flip, and IEEE rounding is symmetric
    # in sign, so solving on K with -y*G as the state changes no bit.
    for seed in range(30):
        K, y, c, tolerance, cap = reference_problem(kind, seed)
        sol = smo_solve(K, y, c=c, tolerance=tolerance, max_iterations=cap)
        alpha, bias, support, converged, iterations = reference_smo(
            K, y, c, tolerance, cap)
        assert sol.alphas.tobytes() == alpha.tobytes(), seed
        assert repr(sol.bias) == repr(bias), seed
        assert tuple(np.flatnonzero(sol.alphas)) == support, seed
        assert (sol.iterations, sol.converged) == (iterations, converged), \
            seed


def test_peak_memory_is_a_small_part_of_the_gram():
    # Each step reads two rows of K; no n x n array may be formed.
    rng = np.random.default_rng(8)
    X = rng.normal(size=(200, 5))
    y = np.where(X[:, 0] > 0.0, 1.0, -1.0)
    K = kernel_matrix("rbf", 0.2, X)
    tracemalloc.start()
    try:
        sol = smo_solve(K, y, c=1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.converged
    assert peak < K.nbytes / 4
