"""Decision tree growth, tie-breaking, and prediction."""

import numpy as np

from maiclass.classifiers.tree import DecisionTree

XOR_X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
XOR_Y = np.array([0, 1, 1, 0])


def test_pure_node_is_single_leaf():
    tree = DecisionTree().fit(np.array([[1.0], [2.0]]), np.array([1, 1]), 2)
    assert tree.n_nodes == 1
    assert tree.predict_codes(np.array([[5.0]])).tolist() == [1]


def test_simple_threshold_split():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0, 0, 1, 1])
    tree = DecisionTree().fit(X, y, 2)
    assert tree.n_nodes == 3
    assert tree.feature[0] == 0
    assert tree.threshold[0] == 1.5
    assert tree.predict_codes(np.array([[1.4], [1.6]])).tolist() == [0, 1]


def test_xor_resolves_through_zero_gain_split():
    # Neither single split lowers Gini impurity, but the boundary exists;
    # taking it lets the children separate perfectly one level down.
    tree = DecisionTree().fit(XOR_X, XOR_Y, 2)
    assert tree.predict_codes(XOR_X).tolist() == XOR_Y.tolist()
    assert tree.n_nodes == 7
    assert tree.depth == 2
    # Preorder: each split node's left child is the next node.
    assert tree.feature == [0, 1, -1, -1, 1, -1, -1]
    assert tree.right == [4, 3, -1, -1, 6, -1, -1]
    assert tree.leaf_class == [-1, -1, 0, 1, -1, 1, 0]


def test_trains_to_purity_on_random_data():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(60, 4))
    y = rng.integers(0, 3, size=60)
    tree = DecisionTree().fit(X, y, 3)
    assert (tree.predict_codes(X) == y).mean() == 1.0


def test_duplicate_rows_with_conflicting_labels():
    # Irreducible noise: identical points, different labels. The tree must
    # stop (no split possible) and predict the majority.
    X = np.array([[1.0], [1.0], [1.0]])
    y = np.array([0, 1, 0])
    tree = DecisionTree().fit(X, y, 2)
    assert tree.n_nodes == 1
    assert tree.predict_codes(X).tolist() == [0, 0, 0]


def test_tie_breaks_prefer_lowest_feature():
    # Both features carry the identical split; feature 0 must win.
    X = np.array([[0.0, 0.0], [1.0, 1.0]])
    y = np.array([0, 1])
    tree = DecisionTree().fit(X, y, 2)
    assert tree.feature[0] == 0
    assert tree.threshold[0] == 0.5


def test_deterministic_fit():
    rng = np.random.default_rng(10)
    X = rng.integers(0, 3, size=(40, 5)).astype(float)
    y = rng.integers(0, 2, size=40)
    a = DecisionTree().fit(X, y, 2)
    b = DecisionTree().fit(X, y, 2)
    assert a.feature == b.feature
    assert a.threshold == b.threshold
    assert a.leaf_class == b.leaf_class
