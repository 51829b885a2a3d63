"""k-NN against an independently coded brute-force oracle."""

from collections import Counter
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from maiclass.classifiers import neighbors
from maiclass.classifiers.neighbors import KNeighbors


def brute_force_predict(train_x, train_y, query, k, n_classes):
    """Reference implementation in plain Python: sort by (distance, index),
    majority vote, ties to the lowest class."""
    d2 = [float(np.sum((query - row) ** 2)) for row in train_x]
    order = sorted(range(len(train_x)), key=lambda i: (d2[i], i))[:k]
    votes = Counter(int(train_y[i]) for i in order)
    best = max(votes.values())
    return min(c for c in range(n_classes) if votes.get(c, 0) == best)


def test_k1_memorises_training_set(monkeypatch):
    monkeypatch.setattr(neighbors, "N_NEIGHBORS", 1)
    rng = np.random.default_rng(0)
    X = rng.normal(size=(25, 3))
    y = rng.integers(0, 4, size=25)
    est = KNeighbors().fit(X, y, 4)
    assert np.array_equal(est.predict_codes(X), y)


def test_matches_brute_force_on_100_queries():
    rng = np.random.default_rng(99)
    X = rng.normal(size=(60, 5))
    y = rng.integers(0, 3, size=60)
    est = KNeighbors().fit(X, y, 3)
    queries = rng.normal(size=(100, 5))
    got = est.predict_codes(queries)
    for q, pred in zip(queries, got):
        assert pred == brute_force_predict(X, y, q, 5, 3)


def test_distance_ties_resolved_by_training_index(monkeypatch):
    monkeypatch.setattr(neighbors, "N_NEIGHBORS", 1)
    # Integer coordinates make the two distances exactly equal.
    X = np.array([[0.0], [2.0]])
    y = np.array([1, 0])
    est = KNeighbors().fit(X, y, 2)
    assert est.kneighbors(np.array([[1.0]])).tolist() == [[0]]
    assert est.predict_codes(np.array([[1.0]])).tolist() == [1]


def test_vote_ties_go_to_lowest_class(monkeypatch):
    monkeypatch.setattr(neighbors, "N_NEIGHBORS", 2)
    X = np.array([[0.0], [2.0]])
    y = np.array([1, 0])
    est = KNeighbors().fit(X, y, 2)
    # One vote each; class 0 wins the tie even though class 1 is closer.
    assert est.predict_codes(np.array([[0.9]])).tolist() == [0]


def test_k_capped_at_training_size(monkeypatch):
    monkeypatch.setattr(neighbors, "N_NEIGHBORS", 10)
    X = np.array([[0.0], [1.0], [2.0]])
    y = np.array([0, 0, 1])
    est = KNeighbors().fit(X, y, 2)
    assert est.predict_codes(np.array([[0.5]])).tolist() == [0]
    assert est.kneighbors(np.array([[0.5]])).shape == (1, 3)


@st.composite
def tied_problems(draw):
    """Small-integer rows drawn from a pool of at most four, so training
    rows repeat and many query distances tie, with labels, k and queries."""
    d = draw(st.integers(1, 3))
    row = st.lists(st.integers(-2, 2), min_size=d, max_size=d)
    pool = draw(st.lists(row, min_size=1, max_size=4))
    n = draw(st.integers(1, 40))
    X = np.array(draw(st.lists(st.sampled_from(pool), min_size=n,
                               max_size=n)), dtype=np.float64)
    n_classes = draw(st.integers(2, 4))
    y = np.array(draw(st.lists(st.integers(0, n_classes - 1), min_size=n,
                               max_size=n)))
    k = draw(st.integers(1, n + 2))
    queries = np.array(draw(st.lists(st.one_of(st.sampled_from(pool), row),
                                     min_size=1, max_size=6)),
                       dtype=np.float64)
    return X, y, n_classes, k, queries


@settings(max_examples=200, deadline=None)
@given(tied_problems())
def test_tied_distances_follow_the_brute_force_order(problem):
    X, y, n_classes, k, queries = problem
    est = KNeighbors().fit(X, y, n_classes)
    # mock.patch, not monkeypatch: a function-scoped fixture would be
    # shared by every example Hypothesis draws.
    with mock.patch.object(neighbors, "N_NEIGHBORS", k):
        neighbours = est.kneighbors(queries)
        codes = est.predict_codes(queries)
    for q, got, pred in zip(queries, neighbours, codes):
        d2 = [float(np.sum((q - row) ** 2)) for row in X]
        order = sorted(range(len(X)), key=lambda i: (d2[i], i))[:k]
        assert got.tolist() == order
        assert pred == brute_force_predict(X, y, q, k, n_classes)
