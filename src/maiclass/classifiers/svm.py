"""Kernel SVM with one-vs-one voting on top of the SMO dual solver."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import NumericalFailure
from ..optim import smo_solve
from .kernels import kernel_matrix


@dataclass
class _PairMachine:
    """Binary machine for one (a, b) class pair; +1 means class a."""

    class_a: int
    class_b: int
    sv_x: np.ndarray
    dual_coef: np.ndarray
    bias: float


# The C-SVC every kernel uses: box bound, SMO stopping tolerance and
# iteration budget (the kernels' fixed shape is in ``kernels``).
C = 1.0
TOLERANCE = 1e-3
MAX_ITERATIONS = 200_000


class KernelSvm:
    """C-SVC with linear, polynomial, RBF or sigmoid kernel.

    Multiclass is one-vs-one: each pair (a, b) with a < b trains a binary
    machine treating a as +1. Prediction counts votes; vote ties fall back to
    summed decision values, then to the lowest class code.

    Each fit sets ``gamma`` to 1 / n_features, the kernel scale the fitted
    machines use.
    """

    def __init__(self, kernel: str):
        self.kernel = kernel

    def fit(self, X, y, n_classes, rng=None):
        self.gamma = 1.0 / X.shape[1]
        self.n_classes = n_classes
        self.machines = []
        self.converged = True
        for a in range(n_classes):
            for b in range(a + 1, n_classes):
                idx = np.nonzero((y == a) | (y == b))[0]
                rows = X[idx]
                y_pm = np.where(y[idx] == a, 1.0, -1.0)
                K = kernel_matrix(self.kernel, self.gamma, rows)
                if K.min() == K.max():  # Underflowed, saturated, equal rows.
                    raise NumericalFailure(
                        f"kernel matrix of classes {a} and {b} is constant")
                sol = smo_solve(K, y_pm, c=C, tolerance=TOLERANCE,
                                max_iterations=MAX_ITERATIONS)
                sv = np.flatnonzero(sol.alphas)
                coef = (sol.alphas * y_pm)[sv]
                self.machines.append(_PairMachine(
                    class_a=a, class_b=b, sv_x=rows[sv],
                    dual_coef=coef, bias=sol.bias))
                self.converged = self.converged and sol.converged
        return self

    def decision_pairs(self, X) -> np.ndarray:
        """Decision value of every pair machine; shape (n, n_pairs)."""
        out = np.empty((X.shape[0], len(self.machines)))
        for k, mach in enumerate(self.machines):
            K = kernel_matrix(self.kernel, self.gamma, X, mach.sv_x)
            out[:, k] = K @ mach.dual_coef + mach.bias
        return out

    def predict_codes(self, X):
        dec = self.decision_pairs(X)
        n = dec.shape[0]
        votes = np.zeros((n, self.n_classes), dtype=np.int64)
        conf = np.zeros((n, self.n_classes))
        for k, mach in enumerate(self.machines):
            f = dec[:, k]
            wins_a = f > 0.0
            votes[wins_a, mach.class_a] += 1
            votes[~wins_a, mach.class_b] += 1
            conf[:, mach.class_a] += f
            conf[:, mach.class_b] -= f
        return _vote_winners(votes, conf)


def _vote_winners(votes: np.ndarray, conf: np.ndarray) -> np.ndarray:
    """Per row: most votes, then highest summed decision ``conf``, then
    lowest code. A NaN ``conf`` among the top-voted classes makes their
    maximum NaN, which nothing is below, so the lowest of them wins."""
    top = votes == votes.max(axis=1, keepdims=True)
    conf = np.where(top, conf, -np.inf)
    return np.argmax(top & ~(conf < conf.max(axis=1, keepdims=True)), axis=1)
