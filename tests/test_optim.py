"""L-BFGS and Adam behaviour on reference problems."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maiclass.classifiers.mlp import init_glorot, mlp_loss_and_grad
from maiclass.errors import NumericalFailure
from maiclass.optim import (
    OptResult,
    adam_minimize,
    lbfgs_minimize,
    split_oracle,
)


def quadratic(x):
    return float(x @ x), 2.0 * x


def norm2(x):
    return float(x @ x)


def rosenbrock(x):
    f = float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2
                     + (1.0 - x[:-1]) ** 2))
    g = np.zeros_like(x)
    g[:-1] = -400.0 * x[:-1] * (x[1:] - x[:-1] ** 2) - 2.0 * (1.0 - x[:-1])
    g[1:] += 200.0 * (x[1:] - x[:-1] ** 2)
    return f, g


def test_lbfgs_quadratic_from_3_4():
    res = lbfgs_minimize(quadratic, [3.0, 4.0])
    assert res.converged
    assert np.linalg.norm(res.x) < 1e-6
    assert res.fun < 1e-12


def test_lbfgs_rosenbrock_2d():
    res = lbfgs_minimize(rosenbrock, [-1.2, 1.0])
    assert res.converged
    assert np.allclose(res.x, [1.0, 1.0], atol=1e-4)


def test_lbfgs_rosenbrock_10d():
    res = lbfgs_minimize(rosenbrock, np.full(10, -1.0), max_iterations=1000,
                         tolerance=1e-8)
    assert res.converged
    assert np.allclose(res.x, np.ones(10), atol=1e-4)


def test_lbfgs_zero_iterations_budget():
    res = lbfgs_minimize(quadratic, [3.0, 4.0], max_iterations=0)
    assert res.iterations == 0
    assert np.array_equal(res.x, [3.0, 4.0])


def test_lbfgs_already_converged_start():
    res = lbfgs_minimize(quadratic, [0.0, 0.0])
    assert res.converged
    assert res.iterations == 0


def test_lbfgs_nan_at_start():
    def bad(x):
        return float("nan"), np.zeros_like(x)

    with pytest.raises(NumericalFailure):
        lbfgs_minimize(bad, [1.0])


def test_lbfgs_nan_gradient_at_start():
    def bad(x):
        return 1.0, np.full_like(x, float("nan"))

    with pytest.raises(NumericalFailure):
        lbfgs_minimize(bad, [1.0])


def test_lbfgs_line_search_failure_at_start_is_numerical_failure():
    # Linear objective: sufficient decrease always holds, curvature never
    # does, so the first search exhausts its budget. Returning the start
    # point would pass it off as a fit; only a gradient within tolerance
    # makes it one.
    def linear(x):
        return float(x[0]), np.ones_like(x)

    with pytest.raises(NumericalFailure, match="no step from the starting"):
        lbfgs_minimize(linear, [5.0])
    res = lbfgs_minimize(linear, [5.0], tolerance=1.0)
    assert res.converged and res.iterations == 0
    np.testing.assert_array_equal(res.x, [5.0])


def test_lbfgs_line_search_failure_mid_run_returns_best_iterate():
    # The kink of |x|_1 at 0 defeats the Wolfe conditions once a coordinate
    # reaches it: the run stops after some accepted steps, unconverged, with
    # the last accepted (and lowest) iterate and its value.
    def kinked(x):
        return float(x @ x + np.abs(x).sum()), 2.0 * x + np.sign(x)

    res = lbfgs_minimize(kinked, [3.0, -2.0])
    assert not res.converged
    assert res.iterations == 11
    assert res.fun == kinked(res.x)[0]
    assert 0.0 < res.fun < 2e-3


def _convex_problem(seed, n, logistic):
    """A strictly convex oracle on R^n and a start point: an SPD quadratic,
    or an L2-regularised logistic loss on random rows and +/-1 labels."""
    rng = np.random.default_rng(seed)
    x0 = rng.normal(size=n)
    if logistic:
        A = rng.normal(size=(3 * n, n))
        y = rng.choice([-1.0, 1.0], size=3 * n)

        def objective(x):
            z = y * (A @ x)
            # d/dz log(1 + e^-z) = -sigmoid(-z), written with tanh so that
            # no exp can overflow.
            slope = -0.5 * (1.0 - np.tanh(0.5 * z))
            return (float(np.logaddexp(0.0, -z).sum() + 0.5 * x @ x),
                    A.T @ (y * slope) + x)
        return objective, x0
    M = rng.normal(size=(n, n))
    H = M @ M.T + np.eye(n)
    b = rng.normal(size=n)
    return (lambda x: (float(0.5 * x @ H @ x - b @ x), H @ x - b)), x0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6), st.booleans())
def test_lbfgs_each_accepted_step_lowers_f(seed, n, logistic):
    # A budget of k iterations returns the k-th accepted iterate, so budgets
    # 1..n+2 trace the run past the n or so steps it needs. The returned
    # value is the oracle's at the returned point; it falls strictly with
    # each accepted step and stays put once the run has stopped. A solver
    # that kept an earlier iterate, or reported a value other than its
    # point's, fails here.
    objective, x0 = _convex_problem(seed, n, logistic)
    last = lbfgs_minimize(objective, x0, max_iterations=0)
    for k in range(1, n + 3):
        res = lbfgs_minimize(objective, x0, max_iterations=k)
        assert res.fun == objective(res.x)[0]
        if res.iterations > last.iterations:
            assert res.fun < last.fun
        else:
            assert res.iterations == last.iterations
            assert res.fun == last.fun
        last = res


def test_lbfgs_gradient_descent_matches_on_first_step():
    # With an empty history the direction is plain steepest descent.
    seen = []

    def probe(x):
        seen.append(x.copy())
        return quadratic(x)

    lbfgs_minimize(probe, [2.0, 0.0], max_iterations=1)
    first_trial = seen[1]
    assert first_trial[1] == 0.0
    assert first_trial[0] < 2.0


def test_config_validation():
    with pytest.raises(ValueError):
        lbfgs_minimize(quadratic, [1.0], max_iterations=-1)
    with pytest.raises(ValueError):
        lbfgs_minimize(quadratic, [1.0], tolerance=-1e-6)
    with pytest.raises(ValueError):
        adam_minimize(lambda x: 2.0 * x, [1.0], norm2, max_iterations=-1)
    with pytest.raises(ValueError):
        adam_minimize(lambda x: 2.0 * x, [1.0], norm2, tolerance=-1e-6)
    with pytest.raises(ValueError):
        adam_minimize(lambda x: 2.0 * x, [1.0], norm2, learning_rate=0.0)
    with pytest.raises(ValueError):
        lbfgs_minimize(quadratic, [[1.0, 2.0]])  # not 1-D
    # A NaN setting compares false both ways, so it must fail every check.
    with pytest.raises(ValueError, match="tolerance must be >= 0"):
        lbfgs_minimize(quadratic, [1.0], tolerance=math.nan)
    with pytest.raises(ValueError, match="tolerance must be >= 0"):
        adam_minimize(lambda x: 2.0 * x, [1.0], norm2, tolerance=math.nan)
    with pytest.raises(ValueError, match="learning_rate must be > 0"):
        adam_minimize(lambda x: 2.0 * x, [1.0], norm2,
                      learning_rate=math.nan)


def test_adam_zero_iterations_returns_start():
    res = adam_minimize(lambda x: 2.0 * x, [3.0, -1.0], norm2,
                        max_iterations=0)
    assert res.iterations == 0
    assert np.array_equal(res.x, [3.0, -1.0])
    assert not res.converged


def test_adam_first_step_bounded_by_learning_rate():
    # Bias-corrected Adam's first update is lr * g / (|g| + eps) per
    # coordinate, so even a huge gradient moves at most ~lr.
    lr = 0.25
    res = adam_minimize(lambda x: np.full_like(x, 1e9), [0.0, 0.0],
                        lambda x: 1e9 * float(np.sum(x)), max_iterations=1,
                        learning_rate=lr)
    assert np.all(np.abs(res.x) <= lr * (1.0 + 1e-6))
    assert np.allclose(np.abs(res.x), lr, rtol=1e-6)


def test_adam_converges_on_quadratic():
    res = adam_minimize(lambda x: 2.0 * x, [3.0, -4.0], norm2,
                        max_iterations=5000, tolerance=1e-10,
                        learning_rate=0.05)
    assert np.all(np.abs(res.x) < 1e-3)


def test_adam_returns_its_last_iterate():
    # At lr 0.3 the iterates overshoot 0 and f rises again. Adam returns
    # its last iterate (Kingma & Ba, Algorithm 1), not the lowest visited.
    visited = []

    def objective(x):
        visited.append(norm2(x))
        return visited[-1]

    res = adam_minimize(lambda x: 2.0 * x, [1.0], objective,
                        max_iterations=50, learning_rate=0.3)
    assert (res.iterations, res.converged) == (50, False)
    assert res.fun == visited[-1] == norm2(res.x)
    assert min(visited) < res.fun / 10.0


def test_adam_nan_gradient():
    with pytest.raises(NumericalFailure):
        adam_minimize(lambda x: np.full_like(x, float("nan")), [1.0], norm2,
                      max_iterations=3)


def test_adam_non_finite_objective_names_its_iteration():
    values = iter([1.0, 0.5, math.nan])
    with pytest.raises(NumericalFailure,
                       match="non-finite objective at iteration 2"):
        adam_minimize(lambda x: 2.0 * x, [1.0], lambda x: next(values),
                      max_iterations=5, tolerance=0.0)


def reference_adam(gradient, x0, objective, max_iterations=200,
                   tolerance=1e-6, learning_rate=0.001):
    """Adam as Kingma & Ba's Algorithm 1 writes it, returning the last
    iterate: fresh arrays for every intermediate value."""
    x = np.array(x0, dtype=np.float64, copy=True)
    m = np.zeros_like(x)
    v = np.zeros_like(x)
    f = float(objective(x))
    converged = False
    t = 0
    while t < max_iterations:
        t += 1
        g = np.asarray(gradient(x), dtype=np.float64)
        if not np.all(np.isfinite(g)):
            raise NumericalFailure(f"non-finite gradient at iteration {t}")
        m = 0.9 * m + (1.0 - 0.9) * g
        v = 0.999 * v + (1.0 - 0.999) * (g * g)
        m_hat = m / (1.0 - 0.9 ** t)
        v_hat = v / (1.0 - 0.999 ** t)
        step = learning_rate * m_hat / (np.sqrt(v_hat) + 1e-8)
        x = x - step
        f = float(objective(x))
        if not math.isfinite(f):
            raise NumericalFailure(f"non-finite objective at iteration {t}")
        if float(np.linalg.norm(step)) <= tolerance:
            converged = True
            break
    return OptResult(x=x, fun=f, iterations=t,
                     converged=converged, grad_norm=math.nan)


def _mlp_oracle():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(20, 6))
    Y = np.eye(3)[np.arange(20) % 3]
    return ((lambda t: mlp_loss_and_grad(t, X, Y, 8, 1e-4)),
            init_glorot(np.random.default_rng(1), 6, 8, 3))


def _rosenbrock_with_nan_band(x):
    # Adam's trajectory from [-0.5, 1] steps into this NaN region, where
    # both implementations must raise at the same iteration.
    f, g = rosenbrock(x)
    return (math.nan if -0.3 < x[0] < -0.2 else f), g


@pytest.mark.parametrize("problem, x0, kwargs", [
    (quadratic, [3.0, -4.0, 0.5], dict(max_iterations=400, tolerance=1e-4,
                                       learning_rate=0.05)),
    (rosenbrock, np.full(5, -1.0), dict(max_iterations=300, tolerance=0.0,
                                        learning_rate=0.02)),
    (_rosenbrock_with_nan_band, [-0.5, 1.0],
     dict(max_iterations=300, tolerance=0.0, learning_rate=0.05)),
    ("mlp", None, dict(max_iterations=60, tolerance=0.0,
                       learning_rate=0.01)),
    ("mlp", None, dict(max_iterations=200, tolerance=5e-2,
                       learning_rate=0.01)),
], ids=["quadratic-converges", "rosenbrock", "nan-band", "mlp-capped",
        "mlp-converges"])
def test_adam_is_bit_identical_to_reference(problem, x0, kwargs):
    if problem == "mlp":
        problem, x0 = _mlp_oracle()
    runs = []
    for minimize in (adam_minimize, reference_adam):
        calls = []

        def oracle(x):
            calls.append(x.tobytes())
            return problem(x)

        objective, gradient = split_oracle(oracle)
        try:
            res = minimize(gradient, x0, objective, **kwargs)
        except NumericalFailure as exc:
            res = str(exc)
        runs.append((res, calls))
    (res, calls), (ref, ref_calls) = runs
    # The same points in the same order.
    assert calls == ref_calls
    if problem is _rosenbrock_with_nan_band:
        assert res == ref == "non-finite objective at iteration 225"
        return
    assert res.x.tobytes() == ref.x.tobytes()
    assert res.fun == ref.fun
    assert (res.iterations, res.converged) == (ref.iterations, ref.converged)
    # One oracle call per step.
    assert len(calls) == res.iterations + 1


def test_adam_leaves_x0_and_returned_gradients_alone():
    x0 = np.array([3.0, -4.0])
    grads = []

    def gradient(x):
        grads.append(2.0 * x)
        return grads[-1]

    res = adam_minimize(gradient, x0, norm2, max_iterations=5,
                        tolerance=0.0, learning_rate=0.1)
    assert np.array_equal(x0, [3.0, -4.0])
    assert np.array_equal(grads[0], [6.0, -8.0])
    assert res.x is not x0


def test_split_oracle_reuses_the_last_point():
    calls = []
    objective, gradient = split_oracle(
        lambda x: calls.append(1) or quadratic(x))
    x = np.array([1.0, -2.0])
    assert objective(x) == 5.0
    assert np.array_equal(gradient(x.copy()), [2.0, -4.0])
    assert objective(x) == 5.0
    assert len(calls) == 1


def test_split_oracle_calls_again_at_a_new_point():
    calls = []
    objective, gradient = split_oracle(
        lambda x: calls.append(1) or quadratic(x))
    x = np.array([1.0, -2.0])
    objective(x)
    assert np.array_equal(gradient(np.array([3.0, 0.0])), [6.0, 0.0])
    # The cache holds a copy: changing x in place is a new point.
    x[0] = 0.0
    assert objective(x) == 4.0
    assert len(calls) == 3


def test_split_oracle_sees_in_place_changes_after_many_points():
    # The cache copies each new point into the buffer it already holds;
    # that buffer must stay its own, never the caller's array.
    calls = []
    objective, gradient = split_oracle(
        lambda x: calls.append(1) or quadratic(x))
    x = np.array([1.0, -2.0])
    for _ in range(50):
        x += 0.5
        assert objective(x) == float(x @ x)
        assert np.array_equal(gradient(x), 2.0 * x)
    assert len(calls) == 50
    x[1] = 7.0
    assert objective(x) == float(x @ x)
    assert len(calls) == 51
    assert np.array_equal(gradient(x.copy()), 2.0 * x)
    assert len(calls) == 51
