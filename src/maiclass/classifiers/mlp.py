"""Single-hidden-layer perceptron trained by L-BFGS or full-batch Adam."""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from ..optim import adam_minimize, lbfgs_minimize, split_oracle


def _unpack(theta: np.ndarray, d: int, h: int, c: int):
    o = 0
    W1 = theta[o:o + d * h].reshape(d, h)
    o += d * h
    b1 = theta[o:o + h]
    o += h
    W2 = theta[o:o + h * c].reshape(h, c)
    o += h * c
    b2 = theta[o:o + c]
    return W1, b1, W2, b2


class MlpWorkspace:
    """Scratch arrays for one fit's oracle calls on an (n, d) matrix.

    ``mlp_loss_and_grad`` writes its (n, hidden) and (d, hidden)
    intermediates here, so the many calls of one fit reuse the same memory
    instead of allocating (and page-faulting) fresh buffers every step.
    """

    def __init__(self, n: int, d: int, hidden: int):
        self.A1 = np.empty((n, hidden))
        self.dZ1 = np.empty((n, hidden))
        self.active = np.empty((n, hidden), dtype=bool)
        self.W1_term = np.empty((d, hidden))


def mlp_loss_and_grad(theta: np.ndarray, X: np.ndarray, Y: np.ndarray,
                      hidden: int, alpha: float,
                      workspace: MlpWorkspace | None = None,
                      ) -> Tuple[float, np.ndarray]:
    """Cross-entropy of a ReLU/softmax net plus L2 on the weight matrices.

    ``Y`` is one-hot (n, c). The penalty is ``alpha/(2n) * (|W1|^2 + |W2|^2)``;
    biases are not penalised. ``workspace`` (made for this ``X`` and
    ``hidden``) holds the intermediates between calls; without one, a fresh
    one is made. The gradient is a new array on every call.
    """
    n, d = X.shape
    c = Y.shape[1]
    if workspace is None:
        workspace = MlpWorkspace(n, d, hidden)
    W1, b1, W2, b2 = _unpack(theta, d, hidden, c)
    grad = np.empty((d + 1) * hidden + (hidden + 1) * c)
    gW1, gb1, gW2, gb2 = _unpack(grad, d, hidden, c)
    A1 = workspace.A1
    np.matmul(X, W1, out=A1)
    A1 += b1
    np.maximum(A1, 0.0, out=A1)
    Z2 = A1 @ W2 + b2
    shifted = Z2 - Z2.max(axis=1, keepdims=True)
    log_norm = np.log(np.sum(np.exp(shifted), axis=1, keepdims=True))
    log_probs = shifted - log_norm
    ce = -float(np.sum(Y * log_probs)) / n
    W1_term = workspace.W1_term
    np.multiply(W1, W1, out=W1_term)
    loss = ce + alpha / (2.0 * n) * (float(np.sum(W1_term))
                                     + float(np.sum(W2 * W2)))
    P = np.exp(log_probs)
    dZ2 = (P - Y) / n
    np.matmul(A1.T, dZ2, out=gW2)
    gW2 += (alpha / n) * W2
    np.sum(dZ2, axis=0, out=gb2)
    # dZ1 = dA1 * (Z1 > 0), and Z1 > 0 exactly where A1 = max(Z1, 0) > 0.
    dZ1 = workspace.dZ1
    np.matmul(dZ2, W2.T, out=dZ1)
    np.greater(A1, 0.0, out=workspace.active)
    np.multiply(dZ1, workspace.active, out=dZ1)
    np.matmul(X.T, dZ1, out=gW1)
    np.multiply(W1, alpha / n, out=W1_term)
    gW1 += W1_term
    np.sum(dZ1, axis=0, out=gb1)
    return loss, grad


def init_glorot(rng: np.random.Generator, d: int, hidden: int, c: int,
                ) -> np.ndarray:
    """Glorot-uniform weights, zero biases, packed into one flat vector."""
    bound1 = math.sqrt(6.0 / (d + hidden))
    bound2 = math.sqrt(6.0 / (hidden + c))
    W1 = rng.uniform(-bound1, bound1, size=(d, hidden))
    W2 = rng.uniform(-bound2, bound2, size=(hidden, c))
    return np.concatenate([W1.ravel(), np.zeros(hidden),
                           W2.ravel(), np.zeros(c)])


# The one network both solvers train: hidden width, L2 strength, iteration
# cap, Adam's step size, and the gradient tolerance both solvers stop at.
HIDDEN = 100
ALPHA = 1e-4
MAX_ITERATIONS = 200
LEARNING_RATE = 0.001
TOLERANCE = 1e-5


class MlpClassifier:
    """ReLU hidden layer of ``HIDDEN`` units, softmax output."""

    def __init__(self, solver: str):
        if solver not in ("lbfgs", "adam"):
            raise ValueError(f"unknown solver {solver!r}")
        self.solver = solver

    def fit(self, X, y, n_classes, rng=None):
        n, d = X.shape
        Y = np.zeros((n, n_classes))
        Y[np.arange(n), y] = 1.0
        if rng is None:
            rng = np.random.default_rng(0)
        theta0 = init_glorot(rng, d, HIDDEN, n_classes)
        workspace = MlpWorkspace(n, d, HIDDEN)

        def oracle(t):
            return mlp_loss_and_grad(t, X, Y, HIDDEN, ALPHA, workspace)

        if self.solver == "lbfgs":
            res = lbfgs_minimize(oracle, theta0, MAX_ITERATIONS, TOLERANCE)
        else:
            objective, gradient = split_oracle(oracle)
            res = adam_minimize(gradient, theta0, objective, MAX_ITERATIONS,
                                TOLERANCE, LEARNING_RATE)
        self.theta = res.x
        self.hidden = HIDDEN
        self.n_features = d
        self.n_classes = n_classes
        return self

    def predict_codes(self, X):
        W1, b1, W2, b2 = _unpack(self.theta, self.n_features, self.hidden,
                                 self.n_classes)
        A1 = np.maximum(X @ W1 + b1, 0.0)
        return np.argmax(A1 @ W2 + b2, axis=1)
