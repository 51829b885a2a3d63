"""k-nearest-neighbour classifier, Euclidean metric, majority vote."""

from __future__ import annotations

import numpy as np

from .base import Estimator, float_array, int_array


class KNeighbors(Estimator):
    """Memorises the training matrix; all work happens at predict time.

    Neighbours are ranked by squared Euclidean distance with the training
    row index as tie-breaker, so ordering is fully deterministic. Vote ties
    go to the lowest class code.
    """

    STATE = {"n_classes": int, "train_x": float_array,
             "train_y": int_array}

    def __init__(self, k: int = 5):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self.train_x = None
        self.train_y = None
        self.n_classes = 0

    def fit(self, X, y, n_classes, rng=None):
        self.train_x = np.asarray(X, dtype=np.float64).copy()
        self.train_y = np.asarray(y, dtype=np.int64).copy()
        self.n_classes = n_classes
        return self

    @classmethod
    def from_dict(cls, state: dict):
        """Load a saved model: one class code in ``[0, n_classes)`` per
        training row, which is what the vote in ``predict_codes`` counts."""
        knn = super().from_dict(state)
        if knn.train_x.ndim != 2 or \
                knn.train_y.shape != (knn.train_x.shape[0],):
            raise ValueError("train_y must hold one label per train_x row")
        if np.any((knn.train_y < 0) | (knn.train_y >= knn.n_classes)):
            raise ValueError(f"train_y holds a class code outside "
                             f"[0, {knn.n_classes})")
        return knn

    def kneighbors(self, X) -> np.ndarray:
        """Indices of the k nearest training rows for each query row."""
        Xa = np.asarray(X, dtype=np.float64)
        n_train = self.train_x.shape[0]
        k = min(self.k, n_train)
        out = np.empty((Xa.shape[0], k), dtype=np.intp)
        tie_break = np.arange(n_train)
        for r in range(Xa.shape[0]):
            diff = self.train_x - Xa[r]
            d2 = np.sum(diff * diff, axis=1)
            order = np.lexsort((tie_break, d2))
            out[r] = order[:k]
        return out

    def predict_codes(self, X):
        neigh = self.kneighbors(X)
        votes = np.apply_along_axis(
            lambda row: np.bincount(self.train_y[row],
                                    minlength=self.n_classes),
            1, neigh)
        return np.argmax(votes, axis=1)
