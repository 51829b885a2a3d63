"""NumPy kernels for the two hot loops: the SVM dual working-set solver
(``smo_optimize``) and the decision-tree split scan (``best_split``).

Both run a fixed sequence of float64 and integer operations, so the same
input always gives bit-identical output; the reproducible F1 grid rests on
that.
"""

import numpy as np

_TAU = 1e-12


def smo_optimize(Q, y, C, tol, max_iter):
    """Run SMO working-set iterations on the dual problem.

    Q is the (n, n) matrix ``outer(y, y) * K``, y holds +/-1 floats. Returns
    ``(alpha, grad, iterations, converged)`` where grad is the final dual
    gradient ``Q @ alpha - 1``.
    """
    Q = np.ascontiguousarray(Q, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.float64)
    n = Q.shape[0]
    alpha = np.zeros(n, dtype=np.float64)
    grad = np.full(n, -1.0, dtype=np.float64)
    pos = y > 0.0
    converged = False
    it = 0
    while it < max_iter:
        # Maximal-violating-pair selection on the scaled gradient -y*G.
        yg = -y * grad
        up = np.where(pos, alpha < C, alpha > 0.0)
        low = np.where(pos, alpha > 0.0, alpha < C)
        if not up.any() or not low.any():
            converged = True
            break
        up_vals = np.where(up, yg, -np.inf)
        low_vals = np.where(low, yg, np.inf)
        i = int(np.argmax(up_vals))
        j = int(np.argmin(low_vals))
        if up_vals[i] - low_vals[j] <= tol:
            converged = True
            break

        Qi = Q[i]
        Qj = Q[j]
        old_ai = float(alpha[i])
        old_aj = float(alpha[j])
        if y[i] != y[j]:
            quad = Qi[i] + Qj[j] + 2.0 * Qi[j]
            if quad <= 0.0:
                quad = _TAU
            delta = (-grad[i] - grad[j]) / quad
            diff = old_ai - old_aj
            ai = old_ai + delta
            aj = old_aj + delta
            if diff > 0.0:
                if aj < 0.0:
                    aj = 0.0
                    ai = diff
            else:
                if ai < 0.0:
                    ai = 0.0
                    aj = -diff
            if diff > 0.0:
                if ai > C:
                    ai = C
                    aj = C - diff
            else:
                if aj > C:
                    aj = C
                    ai = C + diff
        else:
            quad = Qi[i] + Qj[j] - 2.0 * Qi[j]
            if quad <= 0.0:
                quad = _TAU
            delta = (grad[i] - grad[j]) / quad
            total = old_ai + old_aj
            ai = old_ai - delta
            aj = old_aj + delta
            if total > C:
                if ai > C:
                    ai = C
                    aj = total - C
            else:
                if aj < 0.0:
                    aj = 0.0
                    ai = total
            if total > C:
                if aj > C:
                    aj = C
                    ai = total - C
            else:
                if ai < 0.0:
                    ai = 0.0
                    aj = total
        alpha[i] = ai
        alpha[j] = aj
        dai = ai - old_ai
        daj = aj - old_aj
        grad += dai * Qi
        grad += daj * Qj
        it += 1
    return alpha, grad, it, converged


def best_split(X, y, n_classes):
    """Exhaustive axis-aligned split search minimising weighted Gini.

    X is (n, d) float64, y holds int64 class codes in [0, n_classes). Returns
    ``(feature, threshold, found)``; found is False when no boundary between
    two distinct feature values exists. Class counts are kept as integers so
    the Gini comparison never depends on summation order; ties prefer the
    lowest feature index, then the lowest threshold.
    """
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
        # Minimising weighted Gini == maximising sum of squared-count ratios.
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
