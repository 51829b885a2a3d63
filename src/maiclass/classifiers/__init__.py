"""Uniform train/predict facade over the twelve classifier configurations.

A :class:`ClassifierSpec` names one of the :data:`ALGORITHMS`, each a single
fixed configuration; :func:`train` fits it to feature rows and their labels
and returns a :class:`TrainedModel` that predicts string labels. Class
codes are always assigned by sorted label order, so results do not depend
on the order documents appear in.

:func:`train` and :func:`predict` are the one place that checks estimator
input: ``fit(X, y, n_classes, rng)`` always gets a finite float64 ``X`` of
shape ``(len(y), d)`` with ``d >= 1``, int64 codes ``y`` in ``[0, n_classes)``
with ``n_classes >= 2`` and a seeded generator; ``predict_codes(X)`` a finite
float64 ``X`` of shape ``(n, d)``. Estimators convert and check none of it.
Both run the estimator with NumPy's overflow, invalid and divide-by-zero
flags raising, so finite rows that overflow an estimator's arithmetic end
as :class:`NumericalFailure` rather than as a warning and a NaN.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..errors import (
    DegenerateLabels,
    DimensionMismatch,
    NumericalFailure,
)
from .linear import LogisticRegressionOVR
from .mlp import MlpClassifier
from .naive_bayes import (
    BernoulliNaiveBayes,
    GaussianNaiveBayes,
    MultinomialNaiveBayes,
)
from .neighbors import KNeighbors
from .svm import KernelSvm
from .tree import DecisionTree

__all__ = ["ALGORITHMS", "ClassifierSpec", "TrainedModel", "train", "predict"]

# Algorithm id -> (estimator class, its constructor arguments). These are
# the only settings an estimator takes; every other one is a constant in
# the estimator's module.
_ESTIMATORS = {
    "svm_linear": (KernelSvm, {"kernel": "linear"}),
    "svm_poly": (KernelSvm, {"kernel": "poly"}),
    "svm_rbf": (KernelSvm, {"kernel": "rbf"}),
    "svm_sigmoid": (KernelSvm, {"kernel": "sigmoid"}),
    "mlp_lbfgs": (MlpClassifier, {"solver": "lbfgs"}),
    "mlp_adam": (MlpClassifier, {"solver": "adam"}),
    "nb_bernoulli": (BernoulliNaiveBayes, {}),
    "nb_multinomial": (MultinomialNaiveBayes, {}),
    "nb_gaussian": (GaussianNaiveBayes, {}),
    "logistic_regression": (LogisticRegressionOVR, {}),
    "decision_tree": (DecisionTree, {}),
    "knn": (KNeighbors, {}),
}

ALGORITHMS = tuple(_ESTIMATORS)


@dataclass(frozen=True)
class ClassifierSpec:
    """One of the :data:`ALGORITHMS`."""

    algorithm: str

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")


@dataclass
class TrainedModel:
    spec: ClassifierSpec
    classes: Tuple[str, ...]
    n_features: int
    estimator: object


def _run_estimator(algorithm: str, call, *args):
    """``call(*args)`` with float overflow, invalid and divide-by-zero
    raising; each, and a :class:`NumericalFailure` the call raises (an
    optimizer that cannot step), ends as :class:`NumericalFailure` naming
    ``algorithm``."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return call(*args)
    except (FloatingPointError, NumericalFailure) as exc:
        raise NumericalFailure(f"{algorithm}: {exc}") from exc


def _require_finite(X: np.ndarray) -> np.ndarray:
    """``X`` itself; a NaN or infinite entry raises :class:`NumericalFailure`.

    The sum of ``X`` is non-finite whenever an entry is, and needs no
    temporary array. Only a non-finite sum, which finite entries also give
    when they overflow it, has the entries tested one by one.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        total = X.sum()
    if not np.isfinite(total) and not np.isfinite(X).all():
        raise NumericalFailure("feature rows contain NaN or infinite values")
    return X


def train(spec: ClassifierSpec, data, seed: int = 0) -> TrainedModel:
    """Fit one classifier to ``data``, a (rows, labels) pair.

    ``seed`` only influences algorithms with random initialisation (the two
    MLPs); everything else is deterministic regardless. Rows not of shape
    ``(len(labels), d)`` with ``d >= 1`` raise :class:`DimensionMismatch`;
    rows holding NaN or an infinity, or whose values overflow the fit's
    arithmetic, raise :class:`NumericalFailure`.
    """
    rows, labels = data
    X, labels = np.asarray(rows, dtype=np.float64), tuple(labels)
    if X.ndim != 2 or X.shape[0] != len(labels) or not X.shape[1]:
        raise DimensionMismatch(
            f"expected 2-D rows with at least one column, one per label "
            f"({len(labels)}), got shape {X.shape}")
    _require_finite(X)
    classes = tuple(sorted(set(labels)))
    if len(classes) < 2:
        raise DegenerateLabels(
            f"need at least two distinct labels, got {len(classes)}")
    code_of = {label: i for i, label in enumerate(classes)}
    y = np.fromiter((code_of[l] for l in labels), dtype=np.int64,
                    count=len(labels))
    rng = np.random.default_rng(seed)
    cls, fixed = _ESTIMATORS[spec.algorithm]
    estimator = cls(**fixed)
    _run_estimator(spec.algorithm, estimator.fit, X, y, len(classes), rng)
    return TrainedModel(spec=spec, classes=classes,
                        n_features=X.shape[1], estimator=estimator)


def _check_rows(model: TrainedModel, rows) -> np.ndarray:
    X = np.asarray(rows, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise DimensionMismatch(
            f"expected rows of width {model.n_features}, "
            f"got shape {X.shape}")
    return _require_finite(X)


def predict(model: TrainedModel, rows) -> List[str]:
    """Predicted labels for a 2-D array of feature rows."""
    X = _check_rows(model, rows)
    codes = _run_estimator(model.spec.algorithm,
                           model.estimator.predict_codes, X)
    return [model.classes[c] for c in codes]

