"""From-scratch optimizers: L-BFGS, Adam, and an SMO dual solver.

All three are deterministic given their inputs. ``lbfgs_minimize`` and
``adam_minimize`` work on flat float64 parameter vectors; ``smo_solve``
handles box-constrained SVM duals with maximal-violating-pair working sets.

All three stop the same way and return their last iterate (for L-BFGS, its
last accepted one): not converging is a result, never an exception. Out of
iterations, or with no Wolfe step for L-BFGS, a solver returns it with its
iteration count and ``converged=False``. Only bad input raises: an invalid
argument, a non-finite value the solver cannot step past, or, for L-BFGS,
no Wolfe step at all from an unconverged ``x0`` (:class:`NumericalFailure`).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Sequence, Tuple

import numpy as np

from .errors import DimensionMismatch, LengthMismatch, NumericalFailure

Oracle = Callable[[np.ndarray], Tuple[float, np.ndarray]]

_WOLFE_C1 = 1e-4
_WOLFE_C2 = 0.9
# Trial steps of the line search's bracketing and zoom stages.
_BRACKET_ITERATIONS = 25
_ZOOM_ITERATIONS = 30
_CURVATURE_SKIP = 1e-10
# L-BFGS keeps the last 10 curvature pairs; Adam uses Kingma & Ba's moment
# decay rates and denominator guard.
_HISTORY_SIZE = 10
_BETA1 = 0.9
_BETA2 = 0.999
_EPSILON = 1e-8
# SMO's stand-in for a non-positive curvature along the working pair.
_TAU = 1e-12


@dataclass(frozen=True)
class OptResult:
    x: np.ndarray
    fun: float
    iterations: int
    converged: bool
    grad_norm: float


def _check_budget(max_iterations: int, tolerance: float) -> None:
    if max_iterations < 0:
        raise ValueError("max_iterations must be >= 0")
    if tolerance < 0:
        raise ValueError("tolerance must be >= 0")


def _check_x0(x0) -> np.ndarray:
    x = np.array(x0, dtype=np.float64, copy=True)
    if x.ndim != 1:
        raise ValueError("x0 must be a 1-D vector")
    return x


def _call_oracle(objective: Oracle, x: np.ndarray) -> Tuple[float, np.ndarray]:
    f, g = objective(x)
    return float(f), np.asarray(g, dtype=np.float64)


def _quad_trial(a_lo, f_lo, d_lo, a_hi, f_hi):
    """Minimizer of the quadratic through (a_lo, f_lo, d_lo) and (a_hi, f_hi)."""
    width = a_hi - a_lo
    denom = 2.0 * (f_hi - f_lo - d_lo * width)
    if denom == 0.0 or not math.isfinite(denom):
        return None
    trial = a_lo - d_lo * width * width / denom
    if not math.isfinite(trial):
        return None
    lo, hi = (a_lo, a_hi) if a_lo < a_hi else (a_hi, a_lo)
    margin = 0.1 * (hi - lo)
    if trial < lo + margin or trial > hi - margin:
        return None
    return trial


def _zoom(objective, x, d, f0, g0d, a_lo, f_lo, d_lo, a_hi, f_hi):
    """Nocedal-Wright zoom stage; shrinks [a_lo, a_hi] to a Wolfe point.

    Returns the Wolfe point with its value and gradient, or ``None``.
    """
    for _ in range(_ZOOM_ITERATIONS):
        trial = _quad_trial(a_lo, f_lo, d_lo, a_hi, f_hi)
        if trial is None:
            trial = 0.5 * (a_lo + a_hi)
        x_t = x + trial * d
        f_t, g_t = _call_oracle(objective, x_t)
        d_t = float(g_t @ d) if np.all(np.isfinite(g_t)) else math.nan
        if not math.isfinite(f_t) or f_t > f0 + _WOLFE_C1 * trial * g0d \
                or f_t >= f_lo:
            a_hi, f_hi = trial, f_t
        else:
            if math.isfinite(d_t) and abs(d_t) <= -_WOLFE_C2 * g0d:
                return x_t, f_t, g_t
            if math.isfinite(d_t) and d_t * (a_hi - a_lo) >= 0.0:
                a_hi, f_hi = a_lo, f_lo
            a_lo, f_lo, d_lo = trial, f_t, d_t
        del x_t  # Rejected: dropped before the next trial is formed.
        if abs(a_hi - a_lo) <= 1e-16 * max(1.0, abs(a_lo)):
            break
    return None


def _line_search(objective, x, d, f0, g0d, a_init):
    """Strong Wolfe search (c1=1e-4, c2=0.9); returns (x_new, f, g) or None."""
    a_prev, f_prev, d_prev = 0.0, f0, g0d
    a = a_init
    for it in range(_BRACKET_ITERATIONS):
        x_a = x + a * d
        f_a, g_a = _call_oracle(objective, x_a)
        d_a = float(g_a @ d) if np.all(np.isfinite(g_a)) else math.nan
        if not math.isfinite(f_a) or f_a > f0 + _WOLFE_C1 * a * g0d \
                or (it > 0 and f_a >= f_prev):
            del x_a  # Rejected: dropped before the next trial is formed.
            return _zoom(objective, x, d, f0, g0d,
                         a_prev, f_prev, d_prev, a, f_a)
        if math.isfinite(d_a) and abs(d_a) <= -_WOLFE_C2 * g0d:
            return x_a, f_a, g_a
        del x_a
        if math.isfinite(d_a) and d_a >= 0.0:
            return _zoom(objective, x, d, f0, g0d,
                         a, f_a, d_a, a_prev, f_prev)
        a_prev, f_prev, d_prev = a, f_a, d_a
        a = 2.0 * a
    return None


def lbfgs_minimize(objective: Oracle, x0, max_iterations: int = 200,
                   tolerance: float = 1e-6) -> OptResult:
    """Limited-memory BFGS with a strong Wolfe line search.

    ``objective(x)`` must return ``(value, gradient)``. Raises
    :class:`NumericalFailure` when the oracle is non-finite at ``x0``, or
    when no step from an unconverged ``x0`` satisfies the Wolfe conditions.
    Converges when the gradient 2-norm drops to ``tolerance``. When a later
    step finds no Wolfe point, or the iteration budget runs out, the last
    accepted iterate is returned with ``converged=False``; ``iterations``
    counts the accepted steps. Sufficient decrease makes no accepted step
    raise ``f``, so the last iterate is also the lowest.
    """
    _check_budget(max_iterations, tolerance)
    x = _check_x0(x0)
    f, g = _call_oracle(objective, x)
    if not math.isfinite(f) or not np.all(np.isfinite(g)):
        raise NumericalFailure("objective not finite at the starting point")
    # The last curvature pairs (s, y, 1 / s.y), oldest first.
    history = deque(maxlen=_HISTORY_SIZE)
    gnorm = float(np.linalg.norm(g))
    converged = gnorm <= tolerance
    iterations = 0
    while iterations < max_iterations and not converged:
        d = _two_loop(g, history)
        g0d = float(g @ d)
        if not math.isfinite(g0d) or g0d >= 0.0:
            d = -g
            g0d = -float(g @ g)
        a_init = 1.0 if history else min(1.0, 1.0 / max(gnorm, 1.0))
        step = _line_search(objective, x, d, f, g0d, a_init)
        if step is None and not iterations:
            raise NumericalFailure("line search found no step from the "
                                   f"starting point (|g| = {gnorm:.3g})")
        if step is None:
            break
        x_new, f_new, g_new = step
        s = x_new - x
        yv = g_new - g
        sy = float(s @ yv)
        if sy > _CURVATURE_SKIP * float(np.linalg.norm(s)) \
                * float(np.linalg.norm(yv)):
            history.append((s, yv, 1.0 / sy))
        x, f, g = x_new, f_new, g_new
        gnorm = float(np.linalg.norm(g))
        converged = gnorm <= tolerance
        iterations += 1
    return OptResult(x=x, fun=f, iterations=iterations,
                     converged=converged, grad_norm=gnorm)


def _two_loop(g, history) -> np.ndarray:
    """Two-loop recursion for the L-BFGS descent direction."""
    q = -g
    if not history:
        return q
    # Holds each a * yv and (a - b) * s before it is applied to q.
    term = np.empty_like(q)
    alphas = []
    for s, yv, rho in reversed(history):
        a = rho * float(s @ q)
        alphas.append(a)
        np.multiply(yv, a, out=term)
        q -= term
    s_last, y_last, _ = history[-1]
    gamma = float(s_last @ y_last) / float(y_last @ y_last)
    q *= gamma
    for (s, yv, rho), a in zip(history, reversed(alphas)):
        b = rho * float(yv @ q)
        np.multiply(s, a - b, out=term)
        q += term
    return q


def split_oracle(oracle: Oracle) -> Tuple[Callable[[np.ndarray], float],
                                          Callable[[np.ndarray], np.ndarray]]:
    """Split a ``(value, gradient)`` oracle into ``(objective, gradient)``.

    The two callbacks share a one-point cache of ``(x, value, gradient)``:
    a call at the point last evaluated returns the cached result, any other
    point calls ``oracle`` once and replaces the cache. Adam asks for the
    objective at the end of one step and the gradient at the start of the
    next, at the same point, so each step costs one oracle call.

    The cache holds its own copy of ``x``, so changing the caller's array in
    place makes a new point. Each new point is copied into the buffer the
    cache already holds (when shape and dtype match) rather than a new one.
    """
    cache: list = []

    def evaluate(x: np.ndarray) -> Tuple[float, np.ndarray]:
        x = np.asarray(x)
        if cache and np.array_equal(cache[0], x):
            return cache[1], cache[2]
        f, g = oracle(x)
        if cache and cache[0].shape == x.shape and cache[0].dtype == x.dtype:
            np.copyto(cache[0], x)
            cache[1:] = [f, g]
        else:
            cache[:] = [np.array(x, copy=True), f, g]
        return f, g

    return (lambda x: evaluate(x)[0]), (lambda x: evaluate(x)[1])


def adam_minimize(gradient: Callable[[np.ndarray], np.ndarray], x0,
                  objective: Callable[[np.ndarray], float],
                  max_iterations: int = 200, tolerance: float = 1e-6,
                  learning_rate: float = 0.001) -> OptResult:
    """Full-batch Adam (Kingma & Ba, Algorithm 1): returns its last iterate.

    ``gradient(x)`` is called once per step, ``objective(x)`` at ``x0`` and
    after every step; ``fun`` is the last value, and a non-finite value or
    gradient raises :class:`NumericalFailure`. Stops early when the step's
    2-norm drops to ``tolerance``; the first update, bias-corrected, is
    bounded per-coordinate by ``learning_rate``.
    """
    _check_budget(max_iterations, tolerance)
    if learning_rate <= 0:
        raise ValueError("learning_rate must be > 0")
    x = _check_x0(x0)
    m = np.zeros_like(x)
    v = np.zeros_like(x)
    f = float(objective(x))
    # Each step works in two scratch buffers and updates m, v and x in
    # place, in the per-element order of
    #   m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*(g*g)
    #   step = lr * (m/(1-b1**t)) / (sqrt(v/(1-b2**t)) + eps);  x = x - step
    step = np.empty_like(x)
    scratch = np.empty_like(x)
    converged = False
    t = 0
    while math.isfinite(f) and t < max_iterations and not converged:
        t += 1
        g = np.asarray(gradient(x), dtype=np.float64)
        if not np.all(np.isfinite(g)):
            raise NumericalFailure(f"non-finite gradient at iteration {t}")
        m *= _BETA1
        np.multiply(g, 1.0 - _BETA1, out=scratch)
        m += scratch
        v *= _BETA2
        np.multiply(g, g, out=scratch)
        scratch *= 1.0 - _BETA2
        v += scratch
        np.divide(m, 1.0 - _BETA1 ** t, out=step)
        step *= learning_rate
        np.divide(v, 1.0 - _BETA2 ** t, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += _EPSILON
        step /= scratch
        x -= step
        f = float(objective(x))
        converged = float(np.linalg.norm(step)) <= tolerance
    if not math.isfinite(f):
        raise NumericalFailure(f"non-finite objective at iteration {t}")
    return OptResult(x=x, fun=f, iterations=t,
                     converged=converged, grad_norm=math.nan)


def _index_sets(pos, alpha, c):
    """SMO's I_up and I_low: where alpha can still move up, resp. down."""
    return (np.where(pos, alpha < c, alpha > 0.0),
            np.where(pos, alpha > 0.0, alpha < c))


@dataclass(frozen=True)
class DualSolution:
    """Solution of the box-constrained SVM dual."""

    alphas: np.ndarray = field(repr=False)
    bias: float
    converged: bool
    iterations: int


def smo_solve(kernel, labels: Sequence[float], c: float = 1.0,
              tolerance: float = 1e-3, max_iterations: int = 200_000,
              ) -> DualSolution:
    """Solve ``min 1/2 a'Qa - sum(a)`` s.t. ``0 <= a <= c``, ``sum(a*y) = 0``.

    ``kernel`` is the Gram matrix K of the training points, ``labels`` the
    +/-1 targets y, and Q is (yy')*K. Uses maximal-violating-pair SMO; when
    the iteration budget runs out the last iterate is returned with
    ``converged=False`` rather than raising.
    """
    K = np.asarray(kernel, dtype=np.float64)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise DimensionMismatch("kernel matrix must be square")
    y = np.asarray(labels, dtype=np.float64)
    if y.ndim != 1 or y.shape[0] != K.shape[0]:
        raise LengthMismatch("labels length must match the kernel size")
    if not np.all(np.abs(y) == 1.0):
        raise ValueError("labels must be +1 or -1")
    if c <= 0:
        raise ValueError("c must be > 0")
    if tolerance <= 0:
        raise ValueError("tolerance must be > 0")
    n = K.shape[0]
    alpha = np.zeros(n, dtype=np.float64)
    # The scaled dual gradient -y*G, G = Q @ alpha - 1, kept up to date
    # pair by pair; Q itself is never formed, as Q[i] = y[i]*y*K[i].
    yg = y.copy()
    pos = y > 0.0
    converged = False
    iterations = 0
    while iterations < max_iterations:
        # Maximal-violating-pair selection on the scaled gradient -y*G.
        up, low = _index_sets(pos, alpha, c)
        if not up.any() or not low.any():
            converged = True
            break
        up_vals = np.where(up, yg, -np.inf)
        low_vals = np.where(low, yg, np.inf)
        i = int(np.argmax(up_vals))
        j = int(np.argmin(low_vals))
        if up_vals[i] - low_vals[j] <= tolerance:
            converged = True
            break

        quad = K[i, i] + K[j, j] - 2.0 * K[i, j]
        if quad <= 0.0:
            quad = _TAU
        old_ai = float(alpha[i])
        old_aj = float(alpha[j])
        if y[i] != y[j]:
            delta = y[i] * (yg[i] - yg[j]) / quad
            diff = old_ai - old_aj
            ai = old_ai + delta
            aj = old_aj + delta
            if diff > 0.0:
                if aj < 0.0:
                    aj = 0.0
                    ai = diff
                if ai > c:
                    ai = c
                    aj = c - diff
            else:
                if ai < 0.0:
                    ai = 0.0
                    aj = -diff
                if aj > c:
                    aj = c
                    ai = c + diff
        else:
            delta = y[i] * (yg[j] - yg[i]) / quad
            total = old_ai + old_aj
            ai = old_ai - delta
            aj = old_aj + delta
            if total > c:
                if ai > c:
                    ai = c
                    aj = total - c
                if aj > c:
                    aj = c
                    ai = total - c
            else:
                if aj < 0.0:
                    aj = 0.0
                    ai = total
                if ai < 0.0:
                    ai = 0.0
                    aj = total
        alpha[i] = ai
        alpha[j] = aj
        yg -= ((ai - old_ai) * y[i]) * K[i]
        yg -= ((aj - old_aj) * y[j]) * K[j]
        iterations += 1
    # Snap coefficients sitting a rounding error away from the box bounds.
    # Alphas scale as 1/K, so the zero snap is relative to the largest one:
    # an absolute one would drop every support vector of a large-valued Gram.
    alpha[alpha < 1e-12 * alpha.max(initial=0.0)] = 0.0
    alpha[alpha > c - 1e-12 * c] = c
    free = (alpha > 0.0) & (alpha < c)
    if free.any():
        bias = float(np.mean(yg[free]))
    else:
        # The midpoint of [lo, hi]'s finite ends, its one finite end, or 0.
        up, low = _index_sets(pos, alpha, c)
        hi = float(np.max(yg[up])) if up.any() else math.nan
        lo = float(np.min(yg[low])) if low.any() else math.nan
        ends = [v for v in (hi, lo) if math.isfinite(v)]
        bias = (hi + lo) / 2.0 if len(ends) == 2 else ends[0] if ends else 0.0
    return DualSolution(alphas=alpha, bias=bias, converged=converged,
                        iterations=iterations)
