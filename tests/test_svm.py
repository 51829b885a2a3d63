"""Kernel SVM: hand examples, one-vs-one voting, determinism."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from maiclass.classifiers import ClassifierSpec, predict, train
from maiclass.classifiers.kernels import kernel_matrix
from maiclass.classifiers.svm import KernelSvm, _vote_winners


def test_two_point_linear_example():
    model = train(ClassifierSpec(algorithm="svm_linear"),
                  ([[0.0, 0.0], [1.0, 1.0]], ["A", "B"]))
    assert predict(model, [[0.9, 0.9]]) == ["B"]
    assert predict(model, [[0.1, 0.1]]) == ["A"]


def test_binary_margin_midpoint():
    est = KernelSvm(kernel="linear").fit(
        np.array([[0.0], [2.0]]), np.array([0, 1]), 2)
    dec = est.decision_pairs(np.array([[1.0], [0.0], [2.0]]))
    # Pair (0, 1) treats class 0 as +1; the midpoint is on the boundary.
    assert abs(dec[0, 0]) < 1e-9
    assert dec[1, 0] > 0.0 > dec[2, 0]


@pytest.mark.parametrize("kernel", ["linear", "poly", "rbf", "sigmoid"])
def test_each_kernel_separates_blobs(kernel):
    rng = np.random.default_rng(12)
    X = np.concatenate([rng.normal(-2.0, 0.4, size=(20, 2)),
                        rng.normal(2.0, 0.4, size=(20, 2))])
    y = np.repeat([0, 1], 20)
    est = KernelSvm(kernel=kernel).fit(X, y, 2)
    assert (est.predict_codes(X) == y).mean() == 1.0
    assert est.converged


def test_three_class_one_vs_one_machinery():
    rng = np.random.default_rng(13)
    centers = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]])
    X = np.concatenate([rng.normal(c, 0.5, size=(15, 2)) for c in centers])
    y = np.repeat([0, 1, 2], 15)
    # Two features: gamma is 1/2.
    est = KernelSvm(kernel="rbf").fit(X, y, 3)
    assert est.gamma == 0.5
    assert len(est.machines) == 3
    assert est.decision_pairs(X).shape == (45, 3)
    assert (est.predict_codes(X) == y).mean() == 1.0


def test_gamma_defaults_to_reciprocal_dimension():
    X = np.array([[0.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0]])
    est = KernelSvm(kernel="rbf").fit(X, np.array([0, 1]), 2)
    assert est.gamma == 0.25
    (mach,) = est.machines
    K = kernel_matrix("rbf", 0.25, X, mach.sv_x)
    assert np.array_equal(est.decision_pairs(X)[:, 0],
                          K @ mach.dual_coef + mach.bias)


def test_decisions_invariant_under_training_permutation():
    rng = np.random.default_rng(14)
    X = np.concatenate([rng.normal(-2.0, 0.3, size=(12, 2)),
                        rng.normal(2.0, 0.3, size=(12, 2))])
    y = np.repeat([0, 1], 12)
    perm = rng.permutation(24)
    grid = rng.normal(scale=2.5, size=(40, 2))
    a = KernelSvm(kernel="rbf").fit(X, y, 2)
    b = KernelSvm(kernel="rbf").fit(X[perm], y[perm], 2)
    assert np.array_equal(a.predict_codes(grid), b.predict_codes(grid))


def test_vote_tie_falls_back_to_confidence_then_lowest():
    est = KernelSvm(kernel="linear")
    est.n_classes = 2
    est.machines = []
    codes = est.predict_codes(np.zeros((3, 1)))
    # With no machines everything is a 0-0 tie; the lowest class wins.
    assert codes.tolist() == [0, 0, 0]


def loop_vote_winners(votes, conf):
    """Oracle: per row, walk the classes and keep the better one."""
    out = np.zeros(votes.shape[0], dtype=np.int64)
    for r in range(votes.shape[0]):
        w = 0
        for cls in range(1, votes.shape[1]):
            if votes[r, cls] > votes[r, w] or (
                    votes[r, cls] == votes[r, w]
                    and conf[r, cls] > conf[r, w]):
                w = cls
        out[r] = w
    return out


@given(st.data())
def test_vote_winners_match_class_loop(data):
    shape = data.draw(st.tuples(st.integers(0, 8), st.integers(2, 5)))
    # Few distinct votes and decision sums, so most rows hold ties of both.
    votes = data.draw(arrays(np.int64, shape, elements=st.integers(0, 2)))
    conf = data.draw(arrays(np.float64, shape, elements=st.sampled_from(
        [-np.inf, -1.0, -0.0, 0.0, 2.5, np.inf]) | st.floats(allow_nan=False)))
    assert _vote_winners(votes, conf).tolist() \
        == loop_vote_winners(votes, conf).tolist()


def test_nan_decision_still_picks_a_most_voted_class():
    votes = np.array([[0, 1, 1], [2, 2, 0]])
    conf = np.array([[9.0, np.nan, 1.0], [np.nan, 1.0, 5.0]])
    assert _vote_winners(votes, conf).tolist() == [1, 0]
