"""Edge cases of the NumPy split-scan kernel and the exposed backend name."""

import numpy as np

import maiclass
from maiclass import _core


def test_active_backend_exposed():
    assert maiclass.BACKEND == "python"
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


def reference_best_split(X, y, n_classes):
    """The per-feature split scan ``best_split`` replaced, kept as its
    oracle: one argsort and one cumulative count per feature."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.int64)
    n, d = X.shape
    best_feature = -1
    best_threshold = 0.0
    best_score = -np.inf
    if n < 2:
        return best_feature, best_threshold, False
    codes = np.arange(n_classes, dtype=np.int64)
    nl = np.arange(1, n, dtype=np.int64)
    nr = n - nl
    for f in range(d):
        col = X[:, f]
        order = np.argsort(col, kind="stable")
        sv = col[order]
        syc = y[order]
        valid = sv[1:] != sv[:-1]
        if not valid.any():
            continue
        cum = np.cumsum(syc[:, None] == codes[None, :], axis=0, dtype=np.int64)
        left_sq = np.sum(cum[:-1] ** 2, axis=1)
        right = cum[-1][None, :] - cum[:-1]
        right_sq = np.sum(right**2, axis=1)
        score = left_sq / nl + right_sq / nr
        score[~valid] = -np.inf
        pos = int(np.argmax(score))
        if score[pos] > best_score:
            best_score = float(score[pos])
            v = sv[pos]
            v_next = sv[pos + 1]
            thr = (v + v_next) / 2.0
            if thr >= v_next:
                thr = v
            best_feature = f
            best_threshold = float(thr)
    return best_feature, best_threshold, best_feature >= 0


def _split_case(rng, n, d, n_classes):
    """A random node: small-integer features so scores tie often, plus a
    constant column and a duplicate of another column."""
    X = rng.integers(0, 3, size=(n, d)).astype(np.float64)
    if rng.random() < 0.5:
        X += rng.normal(scale=0.01, size=X.shape) * (X > 1.0)
    if d >= 3:
        X[:, 1] = 2.5
        X[:, 2] = X[:, 0]
    y = rng.integers(0, n_classes, size=n).astype(np.int64)
    return X, y


def _split_key(result):
    feature, threshold, found = result
    return int(feature), np.float64(threshold).tobytes(), bool(found)


def test_best_split_matches_the_per_feature_scan():
    rng = np.random.default_rng(20)
    for n in (1, 2, 3, 5, 8, 17, 40):
        for d in (1, 2, 4, 9):
            for n_classes in (2, 3, 4, 5):
                for _ in range(3):
                    X, y = _split_case(rng, n, d, n_classes)
                    assert _split_key(_core.best_split(X, y, n_classes)) \
                        == _split_key(reference_best_split(X, y, n_classes))
