"""Logistic regression: gradient correctness and OVR behaviour."""

import numpy as np

from maiclass.classifiers import linear
from maiclass.classifiers.linear import (
    LogisticRegressionOVR,
    logistic_loss_and_grad,
)


def numeric_gradient(f, x, h=1e-6):
    g = np.zeros_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        g[i] = (f(x + step) - f(x - step)) / (2.0 * h)
    return g


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(12, 4))
    y_pm = np.where(rng.random(12) < 0.5, -1.0, 1.0)
    c = 0.7

    def value(wb):
        return logistic_loss_and_grad(wb, X, y_pm, c)[0]

    for _ in range(20):
        wb = rng.normal(scale=0.8, size=5)
        _, analytic = logistic_loss_and_grad(wb, X, y_pm, c)
        numeric = numeric_gradient(value, wb)
        rel = np.linalg.norm(analytic - numeric) \
            / max(1.0, np.linalg.norm(numeric))
        assert rel < 1e-5


def test_loss_at_zero_weights():
    # With w = 0, b = 0 every margin is 0 and each term is log 2.
    X = np.ones((4, 3))
    y_pm = np.array([1.0, -1.0, 1.0, -1.0])
    loss, grad = logistic_loss_and_grad(np.zeros(4), X, y_pm, 2.0)
    assert np.isclose(loss, 2.0 * 4 * np.log(2.0))
    assert grad.shape == (4,)


def test_bias_is_not_penalised():
    # Zero data rows: the loss must not grow with the bias-only term's
    # regulariser, only through the data term.
    X = np.zeros((2, 2))
    y_pm = np.array([1.0, 1.0])
    loss_small, _ = logistic_loss_and_grad(
        np.array([0.0, 0.0, 1.0]), X, y_pm, 1.0)
    loss_big, _ = logistic_loss_and_grad(
        np.array([0.0, 0.0, 5.0]), X, y_pm, 1.0)
    # A larger bias fits these all-positive labels better; no penalty
    # pushes back.
    assert loss_big < loss_small


def test_fit_separable_two_class():
    X = np.array([[0.0, 0.0], [0.1, 0.2], [1.0, 1.0], [0.9, 1.1]])
    y = np.array([0, 0, 1, 1])
    est = LogisticRegressionOVR().fit(X, y, 2)
    assert est.predict_codes(X).tolist() == [0, 0, 1, 1]
    # Each one-vs-rest model on its own puts its class on the positive side.
    assert np.sign(est.decision(X)).tolist() \
        == [[1, -1], [1, -1], [-1, 1], [-1, 1]]


def test_fit_three_class_blobs():
    rng = np.random.default_rng(9)
    centers = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
    X = np.concatenate([rng.normal(c, 0.4, size=(25, 2)) for c in centers])
    y = np.repeat([0, 1, 2], 25)
    est = LogisticRegressionOVR().fit(X, y, 3)
    assert (est.predict_codes(X) == y).mean() == 1.0


def test_regularisation_strength_changes_weights(monkeypatch):
    rng = np.random.default_rng(2)
    X = rng.normal(size=(30, 3))
    y = (X[:, 0] > 0).astype(int)
    monkeypatch.setattr(linear, "C", 100.0)
    loose = LogisticRegressionOVR().fit(X, y, 2)
    monkeypatch.setattr(linear, "C", 0.01)
    tight = LogisticRegressionOVR().fit(X, y, 2)
    assert np.linalg.norm(tight.weights) < np.linalg.norm(loose.weights)
