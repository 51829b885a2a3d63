"""Edge cases of the NumPy split-scan kernel and the exposed backend name."""

import numpy as np

import maiclass
from maiclass import _core


def test_active_backend_exposed():
    assert maiclass.BACKEND == "python"
    assert callable(_core.smo_optimize)
    assert callable(_core.best_split)


def test_best_split_simple_threshold():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0, 0, 1, 1], dtype=np.int64)
    feature, threshold, found = _core.best_split(X, y, 2)
    assert found
    assert feature == 0
    assert threshold == 1.5


def test_best_split_constant_features():
    X = np.ones((5, 3))
    y = np.array([0, 1, 0, 1, 0], dtype=np.int64)
    _, _, found = _core.best_split(X, y, 2)
    assert not found


def test_best_split_threshold_guard_on_adjacent_floats():
    # The midpoint of v and the very next float rounds back onto one of
    # them; the split threshold must stay strictly below the right value.
    lo = np.nextafter(1.0, 0.0)
    X = np.array([[lo], [1.0]])
    y = np.array([0, 1], dtype=np.int64)
    feature, threshold, found = _core.best_split(X, y, 2)
    assert found and feature == 0
    assert threshold < 1.0
    assert threshold == lo
