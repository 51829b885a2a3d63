"""k-nearest-neighbour classifier, Euclidean metric, majority vote."""

from __future__ import annotations

import numpy as np

# Neighbours that vote, capped at the number of training rows.
N_NEIGHBORS = 5


class KNeighbors:
    """Memorises the training matrix; all work happens at predict time.

    Neighbours are ranked by squared Euclidean distance with the training
    row index as tie-breaker, so ordering is fully deterministic. Vote ties
    go to the lowest class code.
    """

    def fit(self, X, y, n_classes, rng=None):
        # Copies: the caller may reuse X's buffer for its next matrix.
        self.train_x = X.copy()
        self.train_y = y.copy()
        self.n_classes = n_classes
        return self

    def kneighbors(self, X) -> np.ndarray:
        """Indices of the ``N_NEIGHBORS`` nearest training rows for each
        query row."""
        k = min(N_NEIGHBORS, self.train_x.shape[0])
        out = np.empty((X.shape[0], k), dtype=np.intp)
        sq = np.empty_like(self.train_x)  # Each query's squared differences.
        for r in range(X.shape[0]):
            np.subtract(self.train_x, X[r], out=sq)
            d2 = np.multiply(sq, sq, out=sq).sum(axis=1)
            # A stable sort keeps equal distances in training-row order.
            out[r] = np.argsort(d2, kind="stable")[:k]
        return out

    def predict_codes(self, X):
        neigh = self.kneighbors(X)
        votes = np.zeros((neigh.shape[0], self.n_classes), dtype=np.int64)
        np.add.at(votes, (np.arange(neigh.shape[0])[:, None],
                          self.train_y[neigh]), 1)
        return np.argmax(votes, axis=1)
