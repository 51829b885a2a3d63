"""Kernel SVM with one-vs-one voting on top of the SMO dual solver."""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..optim import smo_solve
from .base import Estimator, float_array
from .kernels import KernelParams, kernel_matrix


@dataclass
class _PairMachine:
    """Binary machine for one (a, b) class pair; +1 means class a."""

    class_a: int
    class_b: int
    sv_x: np.ndarray
    dual_coef: np.ndarray
    bias: float
    converged: bool


def _load_machines(items) -> List[_PairMachine]:
    machines = []
    for m in items:
        sv = float_array(m["sv_x"])
        if sv.size == 0:
            sv = sv.reshape(0, 0)
        machines.append(_PairMachine(
            class_a=operator.index(m["class_a"]),
            class_b=operator.index(m["class_b"]), sv_x=sv,
            dual_coef=float_array(m["dual_coef"]), bias=m["bias"],
            converged=m["converged"]))
    return machines


class KernelSvm(Estimator):
    """C-SVC with linear, polynomial, RBF or sigmoid kernel.

    Multiclass is one-vs-one: each pair (a, b) with a < b trains a binary
    machine treating a as +1. Prediction counts votes; vote ties fall back to
    summed decision values, then to the lowest class code.

    ``gamma=None`` means ``1 / n_features``; once fitted, ``gamma`` reads the
    value the fit resolved, which is what a saved model stores.
    """

    STATE = {"n_classes": int, "converged": bool, "machines": _load_machines}

    def __init__(self, kernel: str = "linear", c: float = 1.0,
                 tolerance: float = 1e-3, gamma: Optional[float] = None,
                 degree: int = 3, coef0: float = 0.0,
                 max_iterations: int = 200_000):
        if c <= 0:
            raise ValueError("c must be > 0")
        self.kernel = kernel
        self.c = c
        self.tolerance = tolerance
        self.gamma = gamma
        self._gamma_arg = gamma
        self.degree = degree
        self.coef0 = coef0
        self.max_iterations = max_iterations
        self.machines: List[_PairMachine] = []
        self.n_classes = 0
        self.converged = True

    @property
    def params(self) -> KernelParams:
        return KernelParams(kind=self.kernel, gamma=self.gamma,
                            degree=self.degree, coef0=self.coef0)

    def fit(self, X, y, n_classes, rng=None):
        Xa = np.asarray(X, dtype=np.float64)
        y = np.asarray(y)
        # Resolve from the constructor's value, so a refit on data of a new
        # width gets 1 / width rather than the previous fit's gamma.
        self.gamma = self._gamma_arg
        if self.gamma is None:
            self.gamma = 1.0 / Xa.shape[1]
        params = self.params
        self.n_classes = n_classes
        self.machines = []
        self.converged = True
        for a in range(n_classes):
            for b in range(a + 1, n_classes):
                idx = np.nonzero((y == a) | (y == b))[0]
                rows = Xa[idx]
                y_pm = np.where(y[idx] == a, 1.0, -1.0)
                K = kernel_matrix(params, rows)
                sol = smo_solve(K, y_pm, c=self.c, tolerance=self.tolerance,
                                max_iterations=self.max_iterations)
                sv = np.asarray(sol.support_indices, dtype=np.intp)
                coef = (sol.alphas * y_pm)[sv]
                self.machines.append(_PairMachine(
                    class_a=a, class_b=b, sv_x=rows[sv].copy(),
                    dual_coef=coef, bias=sol.bias,
                    converged=sol.converged))
                if not sol.converged:
                    self.converged = False
        return self

    @classmethod
    def from_dict(cls, state: dict):
        svm = super().from_dict(state)
        for mach in svm.machines:
            if not 0 <= mach.class_a < mach.class_b < svm.n_classes:
                raise ValueError(
                    f"machine for classes ({mach.class_a}, {mach.class_b}) "
                    f"does not fit {svm.n_classes} classes")
        return svm

    def decision_pairs(self, X) -> np.ndarray:
        """Decision value of every pair machine; shape (n, n_pairs)."""
        Xa = np.asarray(X, dtype=np.float64)
        out = np.empty((Xa.shape[0], len(self.machines)))
        for k, mach in enumerate(self.machines):
            if mach.sv_x.shape[0] == 0:
                out[:, k] = mach.bias
                continue
            K = kernel_matrix(self.params, Xa, mach.sv_x)
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
        out = np.zeros(n, dtype=np.int64)
        for r in range(n):
            w = 0
            for cls in range(1, self.n_classes):
                if votes[r, cls] > votes[r, w] or (
                        votes[r, cls] == votes[r, w]
                        and conf[r, cls] > conf[r, w]):
                    w = cls
            out[r] = w
        return out
