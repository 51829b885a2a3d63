"""Bernoulli, multinomial and Gaussian Naive Bayes estimators.

All work in log space on integer class codes. ``log_joint`` returns the
unnormalised ``log P(c) + log P(x | c)`` matrix, whose row-wise argmax is
the prediction.
"""

from __future__ import annotations

import numpy as np

from ..errors import NumericalFailure

# Additive smoothing of the Bernoulli and multinomial models, and the
# Gaussian variance floor as a fraction of the widest feature variance.
BERNOULLI_ALPHA = 1.0
MULTINOMIAL_ALPHA = 1.0
VAR_SMOOTHING = 1e-9


class _NaiveBayes:
    """What the three models share: the class prior, fitted around each
    model's ``_fit_classes``, and argmax of ``log_joint`` over classes."""

    def fit(self, X, y, n_classes, rng=None):
        self._fit_classes(X, y, n_classes)
        self.log_prior = np.log(np.bincount(y, minlength=n_classes) / len(y))
        return self

    def predict_codes(self, X):
        return np.argmax(self.log_joint(X), axis=1)


class BernoulliNaiveBayes(_NaiveBayes):
    """Presence/absence model with Laplace-style smoothing."""

    def __init__(self):
        self.log_prior = None
        self.log_theta = None
        self.log_one_minus = None

    def _fit_classes(self, X, y, n_classes):
        Xb = X > 0
        theta = np.zeros((n_classes, Xb.shape[1]))
        for c in range(n_classes):
            rows = Xb[y == c]
            theta[c] = (rows.sum(axis=0) + BERNOULLI_ALPHA) \
                / (rows.shape[0] + 2.0 * BERNOULLI_ALPHA)
        self.log_theta = np.log(theta)
        self.log_one_minus = np.log1p(-theta)

    def log_joint(self, X):
        Xb = (X > 0).astype(np.float64)
        base = self.log_one_minus.sum(axis=1)
        return self.log_prior + base \
            + Xb @ (self.log_theta - self.log_one_minus).T


class MultinomialNaiveBayes(_NaiveBayes):
    """Event-count model; works on raw or normalised frequencies."""

    def __init__(self):
        self.log_prior = None
        self.log_theta = None

    def _fit_classes(self, X, y, n_classes):
        # fmin skips NaN, so a NaN cannot hide a negative entry.
        if np.fmin.reduce(X, axis=None) < 0:
            raise ValueError("multinomial model requires non-negative features")
        d = X.shape[1]
        log_theta = np.zeros((n_classes, d))
        for c in range(n_classes):
            at = np.flatnonzero(y == c)
            if X.flags.c_contiguous and at.size \
                    and at[-1] - at[0] + 1 == at.size:
                # One block of consecutive rows, as a split half's classes
                # are: a view of it is laid out as a gathered copy would
                # be, so it sums to the same bytes, with no copy made.
                feature_total = X[at[0]:at[-1] + 1].sum(axis=0)
            else:
                feature_total = X[at].sum(axis=0)
            denom = feature_total.sum() + MULTINOMIAL_ALPHA * d
            log_theta[c] = np.log((feature_total + MULTINOMIAL_ALPHA) / denom)
        self.log_theta = log_theta

    def log_joint(self, X):
        return self.log_prior + X @ self.log_theta.T


class GaussianNaiveBayes(_NaiveBayes):
    """Per-class diagonal Gaussians with variance smoothing."""

    def __init__(self):
        self.log_prior = None
        self.means = None
        self.variances = None

    def _fit_classes(self, X, y, n_classes):
        d = X.shape[1]
        # Floor every variance at a fraction of the widest feature spread so
        # constant features cannot produce infinite log densities.
        eps = VAR_SMOOTHING * float(np.max(X.var(axis=0)))
        means = np.zeros((n_classes, d))
        variances = np.zeros((n_classes, d))
        for c in range(n_classes):
            rows = X[y == c]
            means[c] = rows.mean(axis=0)
            variances[c] = rows.var(axis=0) + eps
        if np.any(variances <= 0.0):
            raise NumericalFailure(
                "a feature variance is 0 after smoothing; its log density "
                "would be infinite")
        self.means = means
        self.variances = variances

    def log_joint(self, X):
        out = np.empty((X.shape[0], self.means.shape[0]))
        for c in range(self.means.shape[0]):
            diff = X - self.means[c]
            out[:, c] = self.log_prior[c] - 0.5 * np.sum(
                np.log(2.0 * np.pi * self.variances[c])
                + diff * diff / self.variances[c], axis=1)
        return out

