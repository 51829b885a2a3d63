"""The four kernel families and their Gram-matrix builder."""

import numpy as np
import pytest

from maiclass.classifiers.kernels import (
    KERNEL_KINDS,
    KernelParams,
    kernel_matrix,
)
from maiclass.errors import DimensionMismatch


def pointwise_kernel(params, x, y):
    """k(x, y) for two vectors, straight from each family's formula."""
    if params.kind == "linear":
        return float(x @ y)
    if params.kind == "poly":
        return float((params.gamma * (x @ y) + params.coef0) ** params.degree)
    if params.kind == "rbf":
        diff = x - y
        return float(np.exp(-params.gamma * (diff @ diff)))
    return float(np.tanh(params.gamma * (x @ y) + params.coef0))


def test_linear_dot_product():
    params = KernelParams(kind="linear", gamma=1.0)
    assert kernel_matrix(params, [[1.0, 2.0]], [[3.0, 4.0]])[0, 0] == 11.0


def test_rbf_at_identical_points():
    params = KernelParams(kind="rbf", gamma=0.37)
    x = np.array([[2.0, -5.0, 1.0]])
    assert kernel_matrix(params, x, x)[0, 0] == 1.0


def test_rbf_hand_value():
    params = KernelParams(kind="rbf", gamma=0.5)
    assert np.isclose(kernel_matrix(params, [[0.0]], [[2.0]])[0, 0],
                      np.exp(-2.0))


def test_poly_hand_value():
    params = KernelParams(kind="poly", gamma=0.5, degree=3, coef0=0.0)
    x = np.array([[1.0, 0.0]])
    assert kernel_matrix(params, x, x)[0, 0] == 0.125


def test_sigmoid_hand_value():
    params = KernelParams(kind="sigmoid", gamma=0.1, coef0=-0.2)
    assert np.isclose(
        kernel_matrix(params, [[1.0, 2.0]], [[3.0, 4.0]])[0, 0],
        np.tanh(0.1 * 11.0 - 0.2))


def test_kernel_params_validation():
    with pytest.raises(ValueError):
        KernelParams(kind="laplacian", gamma=1.0)
    with pytest.raises(ValueError):
        KernelParams(kind="rbf", gamma=0.0)
    with pytest.raises(ValueError):
        KernelParams(kind="poly", gamma=1.0, degree=0)


def test_kernel_kinds_roster():
    assert KERNEL_KINDS == ("linear", "poly", "rbf", "sigmoid")


@pytest.mark.parametrize("kind", KERNEL_KINDS)
def test_matrix_agrees_with_pointwise_eval(kind):
    rng = np.random.default_rng(5)
    A = rng.normal(size=(6, 3))
    B = rng.normal(size=(4, 3))
    params = KernelParams(kind=kind, gamma=0.8, degree=2, coef0=0.3)
    M = kernel_matrix(params, A, B)
    assert M.shape == (6, 4)
    for i in range(6):
        for j in range(4):
            assert np.isclose(M[i, j], pointwise_kernel(params, A[i], B[j]),
                              atol=1e-12)


def test_symmetric_matrix_when_b_omitted():
    rng = np.random.default_rng(6)
    A = rng.normal(size=(5, 2))
    params = KernelParams(kind="rbf", gamma=1.3)
    M = kernel_matrix(params, A)
    assert M.shape == (5, 5)
    assert np.allclose(M, M.T)
    assert np.allclose(np.diag(M), 1.0)
    assert np.all(M >= 0.0) and np.all(M <= 1.0)


def test_dimension_mismatch():
    params = KernelParams(kind="linear", gamma=1.0)
    with pytest.raises(DimensionMismatch):
        kernel_matrix(params, np.zeros((1, 2)), np.zeros((1, 3)))
    with pytest.raises(DimensionMismatch):
        kernel_matrix(params, np.zeros((2, 2)), np.zeros((2, 3)))
