"""L2-regularised logistic regression, one-vs-rest, trained with L-BFGS."""

from __future__ import annotations

import numpy as np

from ..optim import lbfgs_minimize


def _log1pexp(t: np.ndarray) -> np.ndarray:
    # log(1 + e^t) without overflow for large |t|.
    return np.logaddexp(0.0, t)


def _sigmoid(t: np.ndarray) -> np.ndarray:
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def logistic_loss_and_grad(wb: np.ndarray, X: np.ndarray, y_pm: np.ndarray,
                           c: float):
    """Objective ``0.5 w.w + c * sum log(1+exp(-y f))`` and its gradient.

    ``wb`` packs the weights with the bias last; the bias is not penalised.
    """
    w = wb[:-1]
    b = wb[-1]
    margins = y_pm * (X @ w + b)
    loss = 0.5 * float(w @ w) + c * float(np.sum(_log1pexp(-margins)))
    coef = -c * y_pm * _sigmoid(-margins)
    grad = np.empty_like(wb)
    grad[:-1] = w + X.T @ coef
    grad[-1] = float(np.sum(coef))
    return loss, grad


# Inverse L2 strength of every one-vs-rest model, and its L-BFGS budget.
C = 1.0
MAX_ITERATIONS = 200
TOLERANCE = 1e-6


class LogisticRegressionOVR:
    """One binary logistic model per class; the highest margin wins."""

    def __init__(self):
        self.weights = None
        self.biases = None

    def fit(self, X, y, n_classes, rng=None):
        d = X.shape[1]
        self.weights = np.zeros((n_classes, d))
        self.biases = np.zeros(n_classes)
        for cls_code in range(n_classes):
            y_pm = np.where(y == cls_code, 1.0, -1.0)

            def oracle(wb, _y=y_pm):
                return logistic_loss_and_grad(wb, X, _y, C)

            wb = lbfgs_minimize(oracle, np.zeros(d + 1), MAX_ITERATIONS,
                                TOLERANCE).x
            self.weights[cls_code] = wb[:-1]
            self.biases[cls_code] = wb[-1]
        return self

    def decision(self, X) -> np.ndarray:
        return X @ self.weights.T + self.biases

    def predict_codes(self, X):
        return np.argmax(self.decision(X), axis=1)
