"""Bernoulli, multinomial and Gaussian Naive Bayes estimators.

All work in log space on integer class codes. ``log_joint`` returns the
unnormalised ``log P(c) + log P(x | c)`` matrix used both for argmax
prediction and for softmax posteriors.
"""

from __future__ import annotations

import numpy as np

from ..errors import NumericalFailure


class BernoulliNaiveBayes:
    """Presence/absence model with Laplace-style smoothing."""

    kind = "nb_bernoulli"

    def __init__(self, alpha: float = 1.0):
        if alpha <= 0:
            raise ValueError("alpha must be > 0")
        self.alpha = alpha
        self.log_prior = None
        self.log_theta = None
        self.log_one_minus = None

    def fit(self, X, y, n_classes, rng=None):
        Xb = np.asarray(X, dtype=np.float64) > 0
        y = np.asarray(y)
        n = Xb.shape[0]
        counts = np.zeros(n_classes)
        theta = np.zeros((n_classes, Xb.shape[1]))
        for c in range(n_classes):
            rows = Xb[y == c]
            counts[c] = rows.shape[0]
            theta[c] = (rows.sum(axis=0) + self.alpha) \
                / (rows.shape[0] + 2.0 * self.alpha)
        self.log_prior = np.log(counts / n)
        self.log_theta = np.log(theta)
        self.log_one_minus = np.log1p(-theta)
        return self

    def log_joint(self, X):
        Xb = (np.asarray(X, dtype=np.float64) > 0).astype(np.float64)
        base = self.log_one_minus.sum(axis=1)
        return self.log_prior + base \
            + Xb @ (self.log_theta - self.log_one_minus).T

    def predict_codes(self, X):
        return np.argmax(self.log_joint(X), axis=1)

    def to_dict(self):
        return {
            "alpha": self.alpha,
            "log_prior": self.log_prior.tolist(),
            "log_theta": self.log_theta.tolist(),
            "log_one_minus": self.log_one_minus.tolist(),
        }

    @classmethod
    def from_dict(cls, state):
        est = cls(alpha=state["alpha"])
        est.log_prior = np.asarray(state["log_prior"], dtype=np.float64)
        est.log_theta = np.asarray(state["log_theta"], dtype=np.float64)
        est.log_one_minus = np.asarray(state["log_one_minus"],
                                       dtype=np.float64)
        return est


class MultinomialNaiveBayes:
    """Event-count model; works on raw or normalised frequencies."""

    kind = "nb_multinomial"

    def __init__(self, alpha: float = 1.0):
        if alpha <= 0:
            raise ValueError("alpha must be > 0")
        self.alpha = alpha
        self.log_prior = None
        self.log_theta = None

    def fit(self, X, y, n_classes, rng=None):
        Xa = np.asarray(X, dtype=np.float64)
        if np.any(Xa < 0):
            raise ValueError("multinomial model requires non-negative features")
        y = np.asarray(y)
        n, d = Xa.shape
        counts = np.zeros(n_classes)
        log_theta = np.zeros((n_classes, d))
        for c in range(n_classes):
            rows = Xa[y == c]
            counts[c] = rows.shape[0]
            feature_total = rows.sum(axis=0)
            denom = feature_total.sum() + self.alpha * d
            log_theta[c] = np.log((feature_total + self.alpha) / denom)
        self.log_prior = np.log(counts / n)
        self.log_theta = log_theta
        return self

    def log_joint(self, X):
        Xa = np.asarray(X, dtype=np.float64)
        return self.log_prior + Xa @ self.log_theta.T

    def predict_codes(self, X):
        return np.argmax(self.log_joint(X), axis=1)

    def to_dict(self):
        return {
            "alpha": self.alpha,
            "log_prior": self.log_prior.tolist(),
            "log_theta": self.log_theta.tolist(),
        }

    @classmethod
    def from_dict(cls, state):
        est = cls(alpha=state["alpha"])
        est.log_prior = np.asarray(state["log_prior"], dtype=np.float64)
        est.log_theta = np.asarray(state["log_theta"], dtype=np.float64)
        return est


class GaussianNaiveBayes:
    """Per-class diagonal Gaussians with variance smoothing."""

    kind = "nb_gaussian"

    def __init__(self, var_smoothing: float = 1e-9):
        if var_smoothing < 0:
            raise ValueError("var_smoothing must be >= 0")
        self.var_smoothing = var_smoothing
        self.log_prior = None
        self.means = None
        self.variances = None

    def fit(self, X, y, n_classes, rng=None):
        Xa = np.asarray(X, dtype=np.float64)
        y = np.asarray(y)
        n, d = Xa.shape
        # Floor every variance at a fraction of the widest feature spread so
        # constant features cannot produce infinite log densities.
        eps = self.var_smoothing * float(np.max(Xa.var(axis=0))) \
            if n else 0.0
        counts = np.zeros(n_classes)
        means = np.zeros((n_classes, d))
        variances = np.zeros((n_classes, d))
        for c in range(n_classes):
            rows = Xa[y == c]
            counts[c] = rows.shape[0]
            means[c] = rows.mean(axis=0)
            variances[c] = rows.var(axis=0) + eps
        if np.any(variances <= 0.0):
            raise NumericalFailure(
                "a feature variance is 0 after smoothing; its log density "
                "would be infinite")
        self.log_prior = np.log(counts / n)
        self.means = means
        self.variances = variances
        return self

    def log_joint(self, X):
        Xa = np.asarray(X, dtype=np.float64)
        out = np.empty((Xa.shape[0], self.means.shape[0]))
        for c in range(self.means.shape[0]):
            diff = Xa - self.means[c]
            out[:, c] = self.log_prior[c] - 0.5 * np.sum(
                np.log(2.0 * np.pi * self.variances[c])
                + diff * diff / self.variances[c], axis=1)
        return out

    def predict_codes(self, X):
        return np.argmax(self.log_joint(X), axis=1)

    def to_dict(self):
        return {
            "var_smoothing": self.var_smoothing,
            "log_prior": self.log_prior.tolist(),
            "means": self.means.tolist(),
            "variances": self.variances.tolist(),
        }

    @classmethod
    def from_dict(cls, state):
        est = cls(var_smoothing=state["var_smoothing"])
        est.log_prior = np.asarray(state["log_prior"], dtype=np.float64)
        est.means = np.asarray(state["means"], dtype=np.float64)
        est.variances = np.asarray(state["variances"], dtype=np.float64)
        return est


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, shifted for stability."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)
