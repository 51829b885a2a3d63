"""SVM kernel functions: linear, polynomial, RBF, sigmoid."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import DimensionMismatch

KERNEL_KINDS = ("linear", "poly", "rbf", "sigmoid")


@dataclass(frozen=True)
class KernelParams:
    """Kernel family plus its shape parameters.

    ``gamma`` scales the inner product (or distance); ``degree`` and
    ``coef0`` only matter for the polynomial and sigmoid families.
    """

    kind: str
    gamma: float
    degree: int = 3
    coef0: float = 0.0

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.gamma <= 0:
            raise ValueError("gamma must be > 0")
        if self.degree < 1:
            raise ValueError("degree must be >= 1")


def kernel_matrix(params: KernelParams, A, B: Optional[np.ndarray] = None,
                  ) -> np.ndarray:
    """Gram matrix k(A[i], B[j]); B defaults to A."""
    Aa = np.asarray(A, dtype=np.float64)
    Ba = Aa if B is None else np.asarray(B, dtype=np.float64)
    if Aa.ndim != 2 or Ba.ndim != 2 or Aa.shape[1] != Ba.shape[1]:
        raise DimensionMismatch(
            f"need two matrices with matching columns, "
            f"got {Aa.shape} and {Ba.shape}")
    inner = Aa @ Ba.T
    if params.kind == "linear":
        return inner
    if params.kind == "poly":
        return (params.gamma * inner + params.coef0) ** params.degree
    if params.kind == "rbf":
        sq_a = np.sum(Aa * Aa, axis=1)[:, None]
        sq_b = np.sum(Ba * Ba, axis=1)[None, :]
        dist = np.maximum(sq_a + sq_b - 2.0 * inner, 0.0)
        return np.exp(-params.gamma * dist)
    return np.tanh(params.gamma * inner + params.coef0)
