"""SVM kernel functions: linear, polynomial, RBF, sigmoid."""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import DimensionMismatch

KERNEL_KINDS = ("linear", "poly", "rbf", "sigmoid")

# The polynomial kernel's degree and the polynomial and sigmoid kernels'
# offset; gamma, which scales the inner product (or distance), is the one
# value a caller gives.
POLY_DEGREE = 3
COEF0 = 0.0


def kernel_matrix(kind: str, gamma: float, A,
                  B: Optional[np.ndarray] = None) -> np.ndarray:
    """Gram matrix k(A[i], B[j]) of kernel ``kind``; B defaults to A."""
    if kind not in KERNEL_KINDS:
        raise ValueError(f"unknown kernel kind {kind!r}")
    Aa = np.asarray(A, dtype=np.float64)
    Ba = Aa if B is None else np.asarray(B, dtype=np.float64)
    if Aa.ndim != 2 or Ba.ndim != 2 or Aa.shape[1] != Ba.shape[1]:
        raise DimensionMismatch(
            f"need two matrices with matching columns, "
            f"got {Aa.shape} and {Ba.shape}")
    inner = Aa @ Ba.T
    if kind == "linear":
        return inner
    if kind == "poly":
        return (gamma * inner + COEF0) ** POLY_DEGREE
    if kind == "rbf":
        sq_a = np.sum(Aa * Aa, axis=1)[:, None]
        sq_b = np.sum(Ba * Ba, axis=1)[None, :]
        norms = sq_a + sq_b
        dist = np.maximum(norms - 2.0 * inner, 0.0)
        # |a|^2 + |b|^2 - 2a.b cancels where the distance is small next to
        # the norms (a row against itself or a near copy, at any scale), so
        # those entries are taken again from the difference itself.
        flagged = dist <= 1e-6 * norms
        if B is None:  # A row's difference from itself is exactly zero.
            np.fill_diagonal(dist, 0.0)
            np.fill_diagonal(flagged, False)
        ia, ib = np.nonzero(flagged)
        diff = Aa[ia] - Ba[ib]
        dist[ia, ib] = np.einsum("ij,ij->i", diff, diff)
        return np.exp(-gamma * dist)
    return np.tanh(gamma * inner + COEF0)
