"""Weighted L1/Lp regression solvers with duality-gap certificates.

L1 is a linear program, solved exactly by a Barrodale-Roberts simplex walk
from the weighted least-squares point. Each line search stops at a weighted
median of its breakpoints, ordered by numpy's default sort, or by the
stable sort when two breakpoints tie: either way the order is the stable
one. At a degenerate vertex the walk keeps its largest-violation pivots and
turns to Bland's rule only after `_STALL_PIVOTS` pivots in a row have not
moved. For p in (1, 2], damped Newton from the same point; p = 2 needs no
step. A Newton step is taken whole when the loss still falls at its end,
and otherwise cut by an Illinois regula falsi on the loss's slope, at most
60 evaluations, to a length whose slope is <= 0, so no step raises the
loss. Each solve is certified by weak duality: `SolveResult.gap` is the
relative gap between the objective and a dual lower bound, and the status
is `converged` exactly when the gap is at most `tol`. The Lp loop stops on
that gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, as_vector, matrix_rank_cutoff, weighted_lp_loss

CONVERGED = "converged"
MAX_ITER = "max-iter"
DEGENERATE = "degenerate"

_NEWTON_CAP = 100
_EPS = np.finfo(float).eps
# The walk counts a residual or edge slope as zero below this times cond(Q_B)
# and its row's size; on 300 tie-heavy integer inputs rounding reached 1.5 eps.
_ROUNDING = 16 * _EPS
# Breakpoints `_first_reaching` orders before it falls back to a full sort.
_HEAD = 32
# Consecutive zero-length pivots after which the walk turns to Bland's rule.
_STALL_PIVOTS = 30


@dataclass(frozen=True)
class SolveResult:
    beta: np.ndarray
    objective: float
    iterations: int     # L1: walk line searches; p > 1: Newton steps
    status: str
    gap: float          # (objective - dual lower bound) / objective


def approx_transfer_bound(eps: float) -> float:
    """Objective inflation 1 + eps/(1-eps) implied by an eps-accurate loss estimate."""
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"eps must be in [0, 1), got {eps}")
    return 1.0 + eps / (1.0 - eps)


def weighted_median(values, weights) -> float:
    """Lowest value whose cumulative weight reaches half the total weight."""
    v = as_vector(values)
    w = as_vector(weights)
    if v.size != w.size or v.size == 0:
        raise ValueError("values and weights must be nonempty and equal length")
    if np.any(w < 0):
        raise ValueError("negative weight")
    total = float(np.sum(w))
    if total <= 0:
        raise ValueError("total weight must be positive")
    order, k = _first_reaching(v, w, 0.5 * total, head=False)
    return float(v[order[k]])


def _sort(t):
    """Stable sort order of t.

    Distinct values have one sorted order, so numpy's default sort gives the
    stable one at a fraction of its cost. Sorted values that do not strictly
    increase (a tie, -0.0 beside 0.0) are sorted again stably.
    """
    order = np.argsort(t)
    ts = t[order]
    if not np.all(ts[1:] > ts[:-1]):
        order = np.argsort(t, kind="stable")
    return order


def _first_reaching(t, w, level, head=True):
    """Stable sort order of t, through the first position where the cumulative weight reaches level.

    Walk pivots stop within the first few breakpoints, so with `head` the
    rows with t at most the _HEAD-th smallest value, ties included, are
    tried first. Sorted stably they are a prefix of the full stable order,
    and their cumsum a prefix of its cumsum, so the position is the one the
    full sort gives. The full sort runs only when that prefix falls short
    of level. Weighted medians pass head=False: the head reaches half the
    weight only on inputs small enough that the full sort is cheap anyway.
    Both sorts are `_sort`'s, stable in effect whether or not t ties.
    """
    if head and t.size > _HEAD:
        top = np.flatnonzero(t <= np.partition(t, _HEAD - 1)[_HEAD - 1])
        order = top[_sort(t[top])]
        cum = np.cumsum(w[order])
        if cum[-1] >= level:
            return order, int(np.searchsorted(cum, level))
    order = _sort(t)
    cum = np.cumsum(w[order])
    return order, min(int(np.searchsorted(cum, level)), t.size - 1)


def solve_weighted_l1(A, y, s=None, tol: float = 1e-8, trace=None) -> SolveResult:
    """Minimize sum_i s_i |a_i^T beta - y_i| exactly, certified to relative gap tol.

    `trace`, if a list, receives the objective at the start and after every move.
    """
    return _solve(A, y, s, p=1.0, tol=tol, trace=trace)


def solve_weighted_lp(A, y, p: float, s=None, tol: float = 1e-8, trace=None) -> SolveResult:
    """Minimize sum_i s_i |a_i^T beta - y_i|^p for p in (1, 2], certified to relative gap tol.

    `trace`, if a list, receives the objective at the start and after every step.
    """
    if not 1.0 < p <= 2.0:
        raise ValueError(f"p must be in (1, 2], got {p}")
    return _solve(A, y, s, p=p, tol=tol, trace=trace)


def _solve(A, y, s, p, tol, trace) -> SolveResult:
    A = as_matrix(A)
    y = as_vector(y, "labels")
    if A.shape[0] != y.size:
        raise ValueError(f"dimension mismatch: A {A.shape}, y {y.size}")
    n, d = A.shape
    s = np.ones(n) if s is None else as_vector(s, "weights")
    if s.size != n:
        raise ValueError("weights length must equal rows")
    if np.any(s < 0):
        raise ValueError("negative sample weight")

    active = s > 0
    if active.all():    # the arrays A[active] would copy, without an n x d copy
        As, ys, ss = (np.ascontiguousarray(v) for v in (A, y, s))
    else:
        As, ys, ss = A[active], y[active], s[active]
    beta = _weighted_lstsq(As, ys, ss)
    # R has the singular values of As (and fewer than d rows when As does),
    # so this one QR decides the rank. At p = 1 it is the walk's too.
    Q, R = np.linalg.qr(As) if p == 1.0 else (None, np.linalg.qr(As, mode="r"))
    if matrix_rank_cutoff(R) < d:
        return SolveResult(beta=beta, objective=weighted_lp_loss(A, y, beta, s, p),
                           iterations=0, status=DEGENERATE, gap=np.inf)
    if p == 1.0:
        beta, iterations, zhat = _l1_walk(As, Q, R, ys, ss, beta, trace)
        del Q   # freed before the gap's n x d products
        gap = _duality_gap(As, ys, ss, p, beta, zhat)[0]
    else:
        beta, iterations, gap = _lp_newton(As, ys, ss, p, beta, tol, trace)
    return SolveResult(beta=beta, objective=weighted_lp_loss(A, y, beta, s, p),
                       iterations=iterations, status=CONVERGED if gap <= tol else MAX_ITER,
                       gap=gap)


def _weighted_lstsq(A, y, w) -> np.ndarray:
    sw = np.sqrt(w)
    beta, *_ = np.linalg.lstsq(sw[:, None] * A, sw * y, rcond=None)
    return beta


def _duality_gap(A, y, s, p, beta, zhat):
    """(objective - bound) / objective for the dual vector z = s * zhat, and the
    coefficient c of z's projection.

    f_i* is the indicator of |z| <= s_i at p = 1, else s_i (p-1) (|z|/(p s_i))^q.
    z is projected onto null(A^T) in the norm sum_i dz_i^2 / m_i: m_i = s_i^2 at
    p = 1, then z is scaled into the box; for p > 1, m_i = s_i |r_i|^(p-2), so
    rows whose gradient is rounding noise absorb the correction. The bound is
    z^T r - sum_i f_i*(z_i): on null(A^T) that is the dual objective -z^T y -
    sum_i f_i*(z_i), but the projection's rounding A^T z enters times beta -
    beta* instead of times beta*. For p > 1 and zhat = p |r|^(p-1) sign r, c is
    -p (p-1) times the Newton step with that floored curvature. An exact fit
    gives (0, None): zhat None from the walk, or for p > 1 every residual
    within the rounding of computing it.
    """
    r = A @ beta - y
    objective = float(np.sum(s * np.abs(r) ** p))
    rounding = (A.shape[1] + 1) * _EPS
    if p > 1.0 and np.all(np.abs(r) <= rounding * (np.abs(A) @ np.abs(beta) + np.abs(y))):
        zhat = None
    if zhat is None or objective == 0.0:
        return 0.0, None
    floored = np.maximum(np.abs(r), 1e-16 * np.max(np.abs(r)))
    root = s if p == 1.0 else np.sqrt(s * floored ** (p - 2.0))
    V, u = root[:, None] * A, s * zhat / root
    c = np.linalg.lstsq(V, u, rcond=None)[0]
    zhat = root * (u - V @ c) / s
    bound = float(np.sum(s * zhat * r))
    if p == 1.0:
        bound /= max(1.0, float(np.max(np.abs(zhat))))
    else:
        bound -= (p - 1.0) * float(np.sum(s * (np.abs(zhat) / p) ** (p / (p - 1.0))))
    return (objective - bound) / objective, c


def _l1_walk(A, Q, R, y, s, beta, trace):
    """Barrodale-Roberts walk from beta to an optimal vertex of sum_i s_i |A beta - y|_i.

    Nonbasic rows carry sigma_i = sign(r_i); a zero residual keeps the side it
    came from (the LP's basic u_i or v_i). At basis B, lam solves A_B^T (s_B lam)
    = -sum_{i not in B} s_i sigma_i a_i, and releasing row k along a_k^T eta =
    tau changes the loss at rate s_k (1 - tau lam_k). Pivots release the largest
    |lam_k| > 1 and step to the breakpoint where the loss stops falling. After
    `_STALL_PIVOTS` zero-length steps in a row they use Bland's rule over LP
    indices (u_i -> i, v_i -> n + i), for the row released and the row
    entering, until a step moves. The walk terminates: a step that moves
    lowers the objective strictly, so a cycle of bases has zero-length steps
    only, and after `_STALL_PIVOTS` of them Bland's rule runs, which does
    not cycle. Line searches order breakpoints by `_first_reaching`, so each
    picks the row a full stable sort picks. Runs on Q of the given A = QR,
    whose bases are only as ill-conditioned as their rows. Returns A_B^-1
    y_B, the line searches, and z / s (sigma off B, lam on it), or None for
    an exact fit.
    """
    n, d = A.shape
    row_norms = np.abs(Q).sum(axis=1)
    abs_y = np.abs(y)
    buf = np.empty(n)       # rounding thresholds, then signs
    sigma, basis = np.ones(n), []

    def residuals(x, cond):
        r = Q @ x - y
        if trace is not None:
            trace.append(float(np.sum(s * np.abs(r))))
        np.multiply(row_norms, np.max(np.abs(x)), out=buf)
        np.add(buf, abs_y, out=buf)
        np.multiply(buf, _ROUNDING * cond, out=buf)
        r[np.abs(r) <= buf] = 0.0
        r[basis] = 0.0
        np.sign(r, out=buf)
        np.copyto(sigma, buf, where=r != 0.0)
        sigma[basis] = 0.0
        return r

    def edge(eta, cond):
        c = Q @ eta
        c[basis] = 0.0
        np.multiply(row_norms, _ROUNDING * cond, out=buf)
        np.multiply(buf, np.max(np.abs(eta)), out=buf)
        return c, np.abs(c) > buf

    # d line searches, each in the null space of the rows fitted so far, reach a vertex
    x = R @ beta
    r = residuals(x, 1.0)
    for k in range(d):
        N = np.linalg.qr(Q[basis].T, mode="complete")[0][:, k:]
        eta = -N @ (N.T @ (Q.T @ (s * sigma)))      # projected subgradient
        eta = eta if np.any(eta) else N[:, 0]
        c, live = edge(eta, 1.0)
        rows = np.flatnonzero(live)
        t, w = -r[rows] / c[rows], s[rows] * np.abs(c[rows])
        order, m = _first_reaching(t, w, 0.5 * np.sum(w), head=False)
        x = x + t[order[m]] * eta
        basis.append(int(rows[order[m]]))
        r = residuals(x, 1.0)

    stalled, moved, cap = 0, True, 10 * (n + d)
    for pivots in range(cap + 1):
        bland = stalled >= _STALL_PIVOTS
        QB = Q[basis]
        sv = np.linalg.svd(QB, compute_uv=False)
        cond = sv[0] / sv[-1]
        if moved:
            r = residuals(np.linalg.solve(QB, y[basis]), cond)
        if not np.any(r):
            return np.linalg.solve(A[basis], y[basis]), d + pivots, None
        lam = np.linalg.solve(QB.T, -(Q.T @ (s * sigma))) / s[basis]
        out = np.flatnonzero(np.abs(lam) > 1.0 + 1e-12)
        if out.size == 0 or pivots == cap:
            break
        pick = np.asarray(basis)[out] + n * (lam[out] < 0) if bland else -np.abs(lam[out])
        k = int(out[np.argmin(pick)])
        tau = float(np.sign(lam[k]))
        c, live = edge(np.linalg.solve(QB, tau * np.eye(d)[k]), cond)
        rows = np.flatnonzero(live & (sigma * c < 0))   # rows that would cross zero
        if rows.size == 0:
            break
        t = -r[rows] / c[rows]
        order, m = _first_reaching(t, 2.0 * s[rows] * np.abs(c[rows]),
                                   s[basis[k]] * (np.abs(lam[k]) - 1.0))
        moved = t[order[m]] > 0.0
        if not moved and bland:
            ties = rows[t == 0.0]
            j = int(ties[np.argmin(ties + n * (sigma[ties] < 0))])
        else:
            j = int(rows[order[m]])
            sigma[rows[order[:m]]] *= -1.0                  # rows passed on the way
        sigma[basis[k]], sigma[j] = tau, 0.0
        basis[k] = j
        stalled = 0 if moved else stalled + 1
    zhat = sigma.copy()
    zhat[basis] = lam
    return np.linalg.solve(A[basis], y[basis]), d + pivots, zhat


def _lp_newton(A, y, s, p, beta, tol, trace):
    """Damped Newton from beta on sum_i s_i |A beta - y|_i^p, 1 < p <= 2.

    Stops at the first iterate whose duality gap is at most tol, at a step
    that would raise the objective, or after `_NEWTON_CAP` steps. Each step
    is `_duality_gap`'s Newton direction with an exact line search over
    [0, 1]. Returns (beta, steps, gap).
    """
    r = A @ beta - y
    obj = float(np.sum(s * np.abs(r) ** p))
    if trace is not None:
        trace.append(obj)
    for steps in range(_NEWTON_CAP + 1):
        g = np.abs(r) ** (p - 1.0) * np.sign(r)
        gap, c = _duality_gap(A, y, s, p, beta, p * g)
        if gap <= tol or steps == _NEWTON_CAP:
            break
        step = c / (-p * (p - 1.0))
        dr = A @ step
        t = _line_search(r, dr, s, p, float(np.sum(s * g * dr)))
        cand = beta + t * step
        r_cand = A @ cand - y
        cand_obj = float(np.sum(s * np.abs(r_cand) ** p))
        if t == 0.0 or cand_obj > obj:
            break
        beta, r, obj = cand, r_cand, cand_obj
        if trace is not None:
            trace.append(obj)
    return beta, steps, gap


def _line_search(r, dr, s, p, slope0) -> float:
    """Minimizer over [0, 1] of the convex t -> sum_i s_i |r_i + t dr_i|^p.

    The slope over p, g(t) = sum_i s_i |x_i|^(p-1) sign(x_i) dr_i at
    x = r + t dr, is nondecreasing; the caller passes g(0). If g(1) <= 0 the
    full step is taken, and if g(0) >= 0 no step. Otherwise Illinois regula
    falsi (Dowell & Jarratt, BIT 1971) shrinks a bracket with g(lo) <= 0 <
    g(hi): each point is the secant root, moved at least one ulp inside
    (lo, hi) when rounding puts it on or past an end, or the midpoint when
    the slope has no secant root (infinite at both ends), and when the same
    end moves twice running the other end's g is halved. It stops at g = 0,
    when hi - lo <= eps hi (the bracket is within about two ulps, as fine as
    bisection to rounding gets), or after 60 evaluations past g(1). It
    returns lo, whose slope is <= 0, so the loss at t is at most the loss
    at 0.
    """
    def slope(t):
        x = r + t * dr
        return float(np.sum(s * np.abs(x) ** (p - 1.0) * np.sign(x) * dr))

    lo, hi, g_lo, g_hi = 0.0, 1.0, slope0, slope(1.0)
    if g_hi <= 0.0:
        return 1.0
    if g_lo >= 0.0:
        return 0.0
    moved = 0       # +1 after lo moved, -1 after hi moved
    for _ in range(60):
        if hi - lo <= _EPS * hi:
            break
        t = lo + (hi - lo) * g_lo / (g_lo - g_hi)
        if math.isnan(t):
            t = 0.5 * (lo + hi)
        else:
            t = min(max(t, math.nextafter(lo, hi)), math.nextafter(hi, lo))
        g = slope(t)
        if g <= 0.0:
            lo, g_lo = t, g
            if g == 0.0:
                break
            if moved > 0:
                g_hi *= 0.5
            moved = 1
        else:
            hi, g_hi = t, g
            if moved < 0:
                g_lo *= 0.5
            moved = -1
    return lo
