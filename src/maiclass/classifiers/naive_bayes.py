"""Bernoulli, multinomial and Gaussian Naive Bayes estimators.

All work in log space on integer class codes. ``log_joint`` returns the
unnormalised ``log P(c) + log P(x | c)`` matrix, whose row-wise argmax is
the prediction.
"""

from __future__ import annotations

import numpy as np

from ..errors import NumericalFailure


class _NaiveBayes:
    """What the three models share: argmax of ``log_joint`` over classes."""

    def predict_codes(self, X):
        return np.argmax(self.log_joint(X), axis=1)


class BernoulliNaiveBayes(_NaiveBayes):
    """Presence/absence model with Laplace-style smoothing."""

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


class MultinomialNaiveBayes(_NaiveBayes):
    """Event-count model; works on raw or normalised frequencies."""

    def __init__(self, alpha: float = 1.0):
        if alpha <= 0:
            raise ValueError("alpha must be > 0")
        self.alpha = alpha
        self.log_prior = None
        self.log_theta = None

    def fit(self, X, y, n_classes, rng=None):
        Xa = np.asarray(X, dtype=np.float64)
        # fmin skips NaN, so a NaN cannot hide a negative entry.
        if Xa.size and np.fmin.reduce(Xa, axis=None) < 0:
            raise ValueError("multinomial model requires non-negative features")
        y = np.asarray(y)
        n, d = Xa.shape
        counts = np.zeros(n_classes)
        log_theta = np.zeros((n_classes, d))
        for c in range(n_classes):
            at = np.flatnonzero(y == c)
            counts[c] = at.size
            if Xa.flags.c_contiguous and at.size \
                    and at[-1] - at[0] + 1 == at.size:
                # One block of consecutive rows, as a split half's classes
                # are: a view of it is laid out as a gathered copy would
                # be, so it sums to the same bytes, with no copy made.
                feature_total = Xa[at[0]:at[-1] + 1].sum(axis=0)
            else:
                feature_total = Xa[at].sum(axis=0)
            denom = feature_total.sum() + self.alpha * d
            log_theta[c] = np.log((feature_total + self.alpha) / denom)
        self.log_prior = np.log(counts / n)
        self.log_theta = log_theta
        return self

    def log_joint(self, X):
        Xa = np.asarray(X, dtype=np.float64)
        return self.log_prior + Xa @ self.log_theta.T


class GaussianNaiveBayes(_NaiveBayes):
    """Per-class diagonal Gaussians with variance smoothing."""

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

