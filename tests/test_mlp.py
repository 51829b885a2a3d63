"""MLP loss/gradient correctness and end-to-end training checks."""

import inspect

import numpy as np
import pytest

from maiclass.classifiers import mlp
from maiclass.classifiers.mlp import (
    MlpClassifier,
    MlpWorkspace,
    init_glorot,
    mlp_loss_and_grad,
)
from maiclass.optim import adam_minimize

XOR_X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
XOR_Y = np.array([0, 1, 1, 0])


def numeric_gradient(f, x, h=1e-6):
    g = np.zeros_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        g[i] = (f(x + step) - f(x - step)) / (2.0 * h)
    return g


def _safe_point(rng, X, d, hidden, c):
    """A random parameter vector whose hidden pre-activations stay clear of
    the ReLU kink, so central differences are trustworthy."""
    while True:
        theta = rng.normal(scale=0.7, size=d * hidden + hidden
                           + hidden * c + c)
        W1 = theta[:d * hidden].reshape(d, hidden)
        b1 = theta[d * hidden:d * hidden + hidden]
        if np.min(np.abs(X @ W1 + b1)) > 1e-3:
            return theta


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(4)
    d, hidden, c = 3, 5, 3
    X = rng.normal(size=(8, d))
    y = rng.integers(0, c, size=8)
    Y = np.zeros((8, c))
    Y[np.arange(8), y] = 1.0
    alpha = 1e-2

    def value(theta):
        return mlp_loss_and_grad(theta, X, Y, hidden, alpha)[0]

    for _ in range(20):
        theta = _safe_point(rng, X, d, hidden, c)
        _, analytic = mlp_loss_and_grad(theta, X, Y, hidden, alpha)
        numeric = numeric_gradient(value, theta)
        rel = np.linalg.norm(analytic - numeric) \
            / max(1.0, np.linalg.norm(numeric))
        assert rel < 1e-5


def test_glorot_init_shapes_and_bounds():
    rng = np.random.default_rng(0)
    d, hidden, c = 4, 10, 3
    theta = init_glorot(rng, d, hidden, c)
    assert theta.shape == (d * hidden + hidden + hidden * c + c,)
    W1 = theta[:d * hidden]
    b1 = theta[d * hidden:d * hidden + hidden]
    b2 = theta[-c:]
    assert np.all(np.abs(W1) <= np.sqrt(6.0 / (d + hidden)))
    assert np.all(b1 == 0.0) and np.all(b2 == 0.0)


def test_glorot_init_seed_determinism():
    a = init_glorot(np.random.default_rng(7), 3, 5, 2)
    b = init_glorot(np.random.default_rng(7), 3, 5, 2)
    assert np.array_equal(a, b)


def test_xor_lbfgs_reaches_zero_training_error():
    est = MlpClassifier(solver="lbfgs")
    est.fit(XOR_X, XOR_Y, 2, rng=np.random.default_rng(0))
    assert est.hidden == 100
    assert est.predict_codes(XOR_X).tolist() == XOR_Y.tolist()
    # Oracle for "converged": the fitted net is confident, with mean
    # cross-entropy on the training points below 1e-2 (alpha 0 leaves the
    # loss without its penalty).
    ce, _ = mlp_loss_and_grad(est.theta, XOR_X, np.eye(2)[XOR_Y],
                              est.hidden, 0.0)
    assert ce < 1e-2


def test_adam_separates_blobs(monkeypatch):
    monkeypatch.setattr(mlp, "MAX_ITERATIONS", 400)
    monkeypatch.setattr(mlp, "LEARNING_RATE", 0.05)
    rng = np.random.default_rng(11)
    X = np.concatenate([rng.normal(-2.0, 0.3, size=(30, 2)),
                        rng.normal(2.0, 0.3, size=(30, 2))])
    y = np.repeat([0, 1], 30)
    est = MlpClassifier(solver="adam")
    est.fit(X, y, 2, rng=np.random.default_rng(1))
    assert (est.predict_codes(X) == y).mean() == 1.0


def test_constructor_rejects_bad_arguments():
    with pytest.raises(ValueError):
        MlpClassifier(solver="sgd")


def test_fixed_rng_makes_fit_deterministic(monkeypatch):
    monkeypatch.setattr(mlp, "HIDDEN", 20)
    a = MlpClassifier(solver="lbfgs")
    a.fit(XOR_X, XOR_Y, 2, rng=np.random.default_rng(5))
    b = MlpClassifier(solver="lbfgs")
    b.fit(XOR_X, XOR_Y, 2, rng=np.random.default_rng(5))
    assert np.array_equal(a.theta, b.theta)


def test_adam_fit_runs_the_network_once_per_step(monkeypatch):
    rng = np.random.default_rng(8)
    X = rng.normal(size=(12, 4))
    y = np.repeat([0, 1, 2], 4)
    Y = np.eye(3)[y]
    steps = 15

    def oracle(t):
        return mlp_loss_and_grad(t, X, Y, 6, 1e-4)

    theta0 = init_glorot(np.random.default_rng(2), 4, 6, 3)
    # A zero tolerance never stops early, so Adam takes every step.
    reference = adam_minimize(lambda t: oracle(t)[1], theta0,
                              lambda t: oracle(t)[0], max_iterations=steps,
                              tolerance=0.0, learning_rate=0.01)
    assert reference.iterations == steps

    passes = []

    def counted(*args):
        passes.append(1)
        return mlp_loss_and_grad(*args)

    monkeypatch.setattr(mlp, "mlp_loss_and_grad", counted)
    for name, value in (("HIDDEN", 6), ("MAX_ITERATIONS", steps),
                        ("LEARNING_RATE", 0.01), ("TOLERANCE", 0.0)):
        monkeypatch.setattr(mlp, name, value)
    est = MlpClassifier(solver="adam")
    est.fit(X, y, 3, rng=np.random.default_rng(2))
    assert len(passes) == steps + 1
    assert np.array_equal(est.theta, reference.x)


@pytest.mark.parametrize("steps, tolerance", [(0, 0.0), (15, 0.0),
                                              (200, 0.05)],
                         ids=["zero-iterations", "capped", "early-stop"])
def test_adam_fit_calls_objective_once_more_than_gradient(monkeypatch, steps,
                                                          tolerance):
    # The benchmark binds adam_minimize's arguments by name and counts the
    # calls of each callback: the objective at x0 and after every step,
    # the gradient once per step.
    signature = inspect.signature(adam_minimize)
    assert list(signature.parameters)[:3] == ["gradient", "x0", "objective"]
    fits = []

    def counting(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        counts = {"gradient": 0, "objective": 0}
        for name in counts:
            def counted(x, name=name, callback=bound.arguments[name]):
                counts[name] += 1
                return callback(x)
            bound.arguments[name] = counted
        res = adam_minimize(*bound.args, **bound.kwargs)
        fits.append((res, counts))
        return res

    monkeypatch.setattr(mlp, "adam_minimize", counting)
    for name, value in (("HIDDEN", 6), ("MAX_ITERATIONS", steps),
                        ("LEARNING_RATE", 0.01), ("TOLERANCE", tolerance)):
        monkeypatch.setattr(mlp, name, value)
    rng = np.random.default_rng(8)
    X = rng.normal(size=(12, 4))
    MlpClassifier(solver="adam").fit(X, np.repeat([0, 1, 2], 4), 3,
                                     rng=np.random.default_rng(2))
    [(res, counts)] = fits
    assert res.converged == (tolerance > 0.0)
    assert res.iterations < steps if res.converged else res.iterations == steps
    assert counts == {"gradient": res.iterations,
                      "objective": res.iterations + 1}


def reference_loss_and_grad(theta, X, Y, hidden, alpha):
    """The allocating form ``mlp_loss_and_grad`` replaced: every
    intermediate a fresh array, the gradient concatenated at the end."""
    n, d = X.shape
    c = Y.shape[1]
    W1 = theta[:d * hidden].reshape(d, hidden)
    b1 = theta[d * hidden:(d + 1) * hidden]
    W2 = theta[(d + 1) * hidden:(d + 1 + c) * hidden].reshape(hidden, c)
    b2 = theta[(d + 1 + c) * hidden:]
    Z1 = X @ W1 + b1
    A1 = np.maximum(Z1, 0.0)
    Z2 = A1 @ W2 + b2
    shifted = Z2 - Z2.max(axis=1, keepdims=True)
    log_norm = np.log(np.sum(np.exp(shifted), axis=1, keepdims=True))
    log_probs = shifted - log_norm
    ce = -float(np.sum(Y * log_probs)) / n
    loss = ce + alpha / (2.0 * n) * (float(np.sum(W1 * W1))
                                     + float(np.sum(W2 * W2)))
    dZ2 = (np.exp(log_probs) - Y) / n
    gW2 = A1.T @ dZ2 + (alpha / n) * W2
    gb2 = dZ2.sum(axis=0)
    dZ1 = (dZ2 @ W2.T) * (Z1 > 0.0)
    gW1 = X.T @ dZ1 + (alpha / n) * W1
    gb1 = dZ1.sum(axis=0)
    return loss, np.concatenate([gW1.ravel(), gb1, gW2.ravel(), gb2])


def _thetas(rng, d, hidden, c, count):
    # Glorot weights with random biases, one of them exactly zero: with a
    # sparse X, some pre-activations land exactly on the ReLU kink.
    for i in range(count):
        theta = init_glorot(rng, d, hidden, c)
        theta[d * hidden:(d + 1) * hidden] = rng.normal(size=hidden)
        theta[d * hidden + i % hidden] = 0.0
        yield theta


def test_reused_workspace_gives_the_bytes_of_a_fresh_call():
    rng = np.random.default_rng(13)
    n, d, hidden, c = 17, 9, 7, 3
    X = rng.normal(size=(n, d)) * (rng.random((n, d)) < 0.4)
    Y = np.eye(c)[rng.integers(0, c, size=n)]
    workspace = MlpWorkspace(n, d, hidden)
    for theta in _thetas(rng, d, hidden, c, 6):
        loss, grad = mlp_loss_and_grad(theta, X, Y, hidden, 1e-2, workspace)
        fresh_loss, fresh_grad = mlp_loss_and_grad(theta, X, Y, hidden, 1e-2)
        ref_loss, ref_grad = reference_loss_and_grad(theta, X, Y, hidden,
                                                     1e-2)
        assert loss == fresh_loss == ref_loss
        assert grad.tobytes() == fresh_grad.tobytes() == ref_grad.tobytes()


def test_each_call_returns_a_new_gradient_array():
    # L-BFGS holds the gradients of two points at once.
    rng = np.random.default_rng(14)
    X = rng.normal(size=(6, 4))
    Y = np.eye(2)[[0, 1, 0, 1, 0, 1]]
    workspace = MlpWorkspace(6, 4, 5)
    first, second = _thetas(rng, 4, 5, 2, 2)
    _, g1 = mlp_loss_and_grad(first, X, Y, 5, 1e-4, workspace)
    kept = g1.copy()
    _, g2 = mlp_loss_and_grad(second, X, Y, 5, 1e-4, workspace)
    assert g1 is not g2
    assert not np.shares_memory(g1, g2)
    assert g1.tobytes() == kept.tobytes()
    assert g1.tobytes() != g2.tobytes()
