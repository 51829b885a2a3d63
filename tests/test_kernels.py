"""The four kernel families and their Gram-matrix builder."""

import numpy as np
import pytest

from maiclass.classifiers.kernels import KERNEL_KINDS, kernel_matrix
from maiclass.classifiers.svm import KernelSvm
from maiclass.errors import DimensionMismatch


def pointwise_kernel(kind, gamma, x, y):
    """k(x, y) for two vectors, straight from each family's formula with
    the paper's degree 3 and offset 0."""
    if kind == "linear":
        return float(x @ y)
    if kind == "poly":
        return float((gamma * (x @ y)) ** 3)
    if kind == "rbf":
        diff = x - y
        return float(np.exp(-gamma * (diff @ diff)))
    return float(np.tanh(gamma * (x @ y)))


def test_linear_dot_product():
    K = kernel_matrix("linear", 1.0, [[1.0, 2.0]], [[3.0, 4.0]])
    assert K[0, 0] == 11.0


def test_rbf_at_identical_points():
    x = np.array([[2.0, -5.0, 1.0]])
    assert kernel_matrix("rbf", 0.37, x, x)[0, 0] == 1.0


@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e4, 1e50, 1e100])
def test_rbf_of_a_row_and_its_near_copy_at_any_scale(scale):
    # |a|^2 + |b|^2 - 2a.b cancels for a row against itself or a near copy
    # once the rows are large; every entry must still be exp(-g (a-b).(a-b)).
    A = np.array([[0.2, 0.9], [0.2, 0.9 + 1e-9], [1.0, 0.0]]) * scale
    M = kernel_matrix("rbf", 0.5, A)
    for i in range(3):
        for j in range(3):
            want = pointwise_kernel("rbf", 0.5, A[i], A[j])
            assert np.isclose(M[i, j], want, rtol=1e-12, atol=0.0)
    # A row's distance to itself is exactly 0.
    assert np.all(np.diag(M) == 1.0)


def test_rbf_hand_value():
    assert np.isclose(kernel_matrix("rbf", 0.5, [[0.0]], [[2.0]])[0, 0],
                      np.exp(-2.0))


def test_poly_hand_value():
    x = np.array([[1.0, 0.0]])
    assert kernel_matrix("poly", 0.5, x, x)[0, 0] == 0.125


def test_sigmoid_hand_value():
    assert np.isclose(
        kernel_matrix("sigmoid", 0.1, [[1.0, 2.0]], [[3.0, 4.0]])[0, 0],
        np.tanh(0.1 * 11.0))


def test_unknown_kernel_kind_rejected():
    with pytest.raises(ValueError, match="unknown kernel kind 'laplacian'"):
        kernel_matrix("laplacian", 1.0, [[1.0]])
    with pytest.raises(ValueError, match="unknown kernel kind 'laplacian'"):
        KernelSvm(kernel="laplacian").fit(np.eye(2), np.array([0, 1]), 2)


def test_kernel_kinds_roster():
    assert KERNEL_KINDS == ("linear", "poly", "rbf", "sigmoid")


@pytest.mark.parametrize("kind", KERNEL_KINDS)
def test_matrix_agrees_with_pointwise_eval(kind):
    rng = np.random.default_rng(5)
    A = rng.normal(size=(6, 3))
    B = rng.normal(size=(4, 3))
    M = kernel_matrix(kind, 0.8, A, B)
    assert M.shape == (6, 4)
    for i in range(6):
        for j in range(4):
            assert np.isclose(M[i, j], pointwise_kernel(kind, 0.8, A[i], B[j]),
                              atol=1e-12)


def test_symmetric_matrix_when_b_omitted():
    rng = np.random.default_rng(6)
    A = rng.normal(size=(5, 2))
    M = kernel_matrix("rbf", 1.3, A)
    assert M.shape == (5, 5)
    assert np.allclose(M, M.T)
    assert np.allclose(np.diag(M), 1.0)
    assert np.all(M >= 0.0) and np.all(M <= 1.0)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        kernel_matrix("linear", 1.0, np.zeros((1, 2)), np.zeros((1, 3)))
    with pytest.raises(DimensionMismatch):
        kernel_matrix("linear", 1.0, np.zeros((2, 2)), np.zeros((2, 3)))
