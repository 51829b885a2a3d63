"""NumPy kernel for the decision-tree split scan (``best_split``).

It runs a fixed sequence of float64 and integer operations, so the same
input always gives bit-identical output; the reproducible F1 grid rests on
that. ``best_split`` scans every feature of a node in one pass over the whole
matrix, with O(n*d) scratch per node instead of a Python loop per feature.
"""

import numpy as np


def best_split(X, y, n_classes):
    """Exhaustive axis-aligned split search minimising weighted Gini.

    X is (n, d) float64, y holds int64 class codes in [0, n_classes). Returns
    ``(feature, threshold, found)``; found is False when no boundary between
    two distinct feature values exists. Class counts are kept as integers so
    the Gini comparison never depends on summation order; ties prefer the
    lowest feature index, then the lowest threshold.

    All features are scanned in one pass: each row of a feature-major copy
    is sorted at once, and the class counts left of every boundary are
    built one class at a time for all features together. The scratch is
    O(n*d) per node: a few (d, n) arrays.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.int64)
    n, d = X.shape
    if n < 2 or d == 0:
        return -1, 0.0, False
    XT = np.ascontiguousarray(X.T)
    order = np.argsort(XT, axis=1, kind="stable")
    sv = np.take_along_axis(XT, order, axis=1)
    syc = y[order]
    # Each (d, n) array is as large as the node's matrix; drop each one as
    # soon as it is dead, which keeps the scan's peak near six of them.
    del XT, order
    valid = sv[:, 1:] != sv[:, :-1]
    # left_sq[f, i] / right_sq[f, i]: sum over classes of the squared class
    # counts left / right of the boundary after sorted position i.
    left_sq = np.zeros((d, n - 1), dtype=np.int64)
    right_sq = np.zeros((d, n - 1), dtype=np.int64)
    cum = np.empty((d, n), dtype=np.int64)
    sq = np.empty((d, n - 1), dtype=np.int64)
    for k in range(n_classes):
        np.cumsum(syc == k, axis=1, dtype=np.int64, out=cum)
        left = cum[:, :-1]
        np.multiply(left, left, out=sq)
        left_sq += sq
        np.subtract(cum[:, -1:], left, out=sq)
        sq *= sq
        right_sq += sq
    del syc, cum, sq
    nl = np.arange(1, n, dtype=np.int64)
    # Minimising weighted Gini == maximising sum of squared-count ratios.
    score = left_sq / nl
    score += right_sq / (n - nl)
    score[~valid] = -np.inf
    pos = np.argmax(score, axis=1)
    per_feature = score[np.arange(d), pos]
    # argmax returns the first maximum: the lowest feature, and within it
    # the lowest threshold.
    f = int(np.argmax(per_feature))
    if per_feature[f] == -np.inf:
        return -1, 0.0, False
    p = int(pos[f])
    v = sv[f, p]
    v_next = sv[f, p + 1]
    thr = (v + v_next) / 2.0
    if thr >= v_next:
        thr = v
    return f, float(thr), True
