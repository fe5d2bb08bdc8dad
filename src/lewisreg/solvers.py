"""Weighted L1/Lp regression solvers with duality-gap certificates.

L1 is a linear program, solved exactly by a Barrodale-Roberts simplex walk
from the weighted least-squares point. For p in (1, 2), IRLS with an annealed
residual floor, then damped Newton; p = 2 is the least-squares point. Each
solve is certified by weak duality: `SolveResult.gap` is the relative gap
between the objective and a dual lower bound, and the status is `converged`
exactly when the gap is at most `tol`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, as_vector, matrix_rank_cutoff, weighted_lp_loss

CONVERGED = "converged"
MAX_ITER = "max-iter"
DEGENERATE = "degenerate"

_MU_STAGES = [1e-2 * 0.1**k for k in range(9)]  # 1e-2 .. 1e-10, x0.1 per stage
# The walk counts a residual or edge slope as zero below this times cond(Q_B)
# and its row's size; on 300 tie-heavy integer inputs rounding reached 1.5 eps.
_ROUNDING = 16 * np.finfo(float).eps


@dataclass(frozen=True)
class SolveResult:
    beta: np.ndarray
    objective: float
    iterations: int
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
    order, k = _first_reaching(v, w, 0.5 * total)
    return float(v[order[k]])


def _first_reaching(t, w, level):
    """Sort order of t and the first position where the cumulative weight reaches level."""
    order = np.argsort(t, kind="stable")
    cum = np.cumsum(w[order])
    return order, min(int(np.searchsorted(cum, level)), t.size - 1)


def solve_weighted_l1(A, y, s=None, tol: float = 1e-8, trace=None) -> SolveResult:
    """Minimize sum_i s_i |a_i^T beta - y_i| exactly, certified to relative gap tol.

    `trace`, if a list, receives the objective at the start and after every move.
    """
    return _solve(A, y, s, p=1.0, tol=tol, trace=trace)


def solve_weighted_lp(A, y, p: float, s=None, tol: float = 1e-8, max_outer: int = 100,
                      trace=None) -> SolveResult:
    """Minimize sum_i s_i |a_i^T beta - y_i|^p for p in (1, 2]."""
    if not 1.0 < p <= 2.0:
        raise ValueError(f"p must be in (1, 2], got {p}")
    return _solve(A, y, s, p=p, tol=tol, max_outer=max_outer, trace=trace)


def _solve(A, y, s, p, tol, max_outer=100, trace=None) -> SolveResult:
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
    As, ys, ss = A[active], y[active], s[active]
    if As.shape[0] < d or matrix_rank_cutoff(As) < d:
        beta = _pinv_lstsq(As, ys, ss)
        return SolveResult(
            beta=beta,
            objective=weighted_lp_loss(A, y, beta, s, p),
            iterations=0,
            status=DEGENERATE,
            gap=np.inf,
        )

    beta = _weighted_lstsq(As, ys, ss)
    if p == 1.0:
        beta, iterations, zhat = _l1_walk(As, ys, ss, beta, trace)
    else:
        beta, iterations = _lp_irls(As, ys, ss, p, beta, tol, max_outer, trace)
        r = As @ beta - ys
        zhat = p * np.abs(r) ** (p - 1.0) * np.sign(r)
    gap = _duality_gap(As, ys, ss, p, beta, zhat)
    return SolveResult(beta=beta, objective=weighted_lp_loss(A, y, beta, s, p),
                       iterations=iterations, status=CONVERGED if gap <= tol else MAX_ITER,
                       gap=gap)


def _weighted_lstsq(A, y, w) -> np.ndarray:
    sw = np.sqrt(w)
    beta, *_ = np.linalg.lstsq(sw[:, None] * A, sw * y, rcond=None)
    return beta


def _pinv_lstsq(A, y, s) -> np.ndarray:
    if A.size == 0:
        return np.zeros(A.shape[1])
    sw = np.sqrt(s)
    return np.linalg.pinv(sw[:, None] * A) @ (sw * y)


def _duality_gap(A, y, s, p, beta, zhat) -> float:
    """(objective - bound) / objective for the dual vector z = s * zhat (None: exact fit).

    f_i* is the indicator of |z| <= s_i at p = 1, else s_i (p-1) (|z|/(p s_i))^q.
    z is projected onto null(A^T) in the norm sum_i dz_i^2 / m_i: m_i = s_i^2 at
    p = 1, then z is scaled into the box; for p > 1, m_i = s_i |r_i|^(p-2), so
    rows whose gradient is rounding noise absorb the correction.
    """
    r = A @ beta - y
    objective = float(np.sum(s * np.abs(r) ** p))
    if zhat is None or objective == 0.0:
        return 0.0
    floored = np.maximum(np.abs(r), 1e-16 * np.max(np.abs(r)))
    root = s if p == 1.0 else np.sqrt(s * floored ** (p - 2.0))
    V, u = root[:, None] * A, s * zhat / root
    zhat = root * (u - V @ np.linalg.lstsq(V, u, rcond=None)[0]) / s
    bound = -float(np.sum(s * zhat * y))
    if p == 1.0:
        bound /= max(1.0, float(np.max(np.abs(zhat))))
    else:
        bound -= (p - 1.0) * float(np.sum(s * (np.abs(zhat) / p) ** (p / (p - 1.0))))
    return (objective - bound) / objective


def _l1_walk(A, y, s, beta, trace):
    """Barrodale-Roberts walk from beta to an optimal vertex of sum_i s_i |A beta - y|_i.

    Nonbasic rows carry sigma_i = sign(r_i); a zero residual keeps the side it
    came from (the LP's basic u_i or v_i). At basis B, lam solves A_B^T (s_B lam)
    = -sum_{i not in B} s_i sigma_i a_i, and releasing row k along a_k^T eta =
    tau changes the loss at rate s_k (1 - tau lam_k). Pivots release the largest
    |lam_k| > 1, or after a zero-length step use Bland's rule over LP indices
    (u_i -> i, v_i -> n + i). Runs on Q of A = QR, whose bases are only as
    ill-conditioned as their rows. Returns A_B^-1 y_B, the line searches, and
    z / s (sigma off B, lam on it), or None for an exact fit.
    """
    n, d = A.shape
    Q, R = np.linalg.qr(A)
    row_norms = np.abs(Q).sum(axis=1)
    sigma, basis = np.ones(n), []

    def residuals(x, cond):
        r = Q @ x - y
        if trace is not None:
            trace.append(float(np.sum(s * np.abs(r))))
        r[np.abs(r) <= _ROUNDING * cond * (row_norms * np.max(np.abs(x)) + np.abs(y))] = 0.0
        r[basis] = 0.0
        sigma[:] = np.where(r > 0, 1.0, np.where(r < 0, -1.0, sigma))
        sigma[basis] = 0.0
        return r

    def edge(eta, cond):
        c = Q @ eta
        c[basis] = 0.0
        return c, np.abs(c) > _ROUNDING * cond * row_norms * np.max(np.abs(eta))

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
        order, m = _first_reaching(t, w, 0.5 * np.sum(w))
        x = x + t[order[m]] * eta
        basis.append(int(rows[order[m]]))
        r = residuals(x, 1.0)

    bland, moved, cap = False, True, 10 * (n + d)
    for pivots in range(cap + 1):
        QB = Q[basis]
        cond = np.linalg.cond(QB)
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
        bland = not moved
    zhat = sigma.copy()
    zhat[basis] = lam
    return np.linalg.solve(A[basis], y[basis]), d + pivots, zhat


def _lp_irls(A, y, s, p, beta, tol, max_outer, trace):
    """IRLS whose floor `mu` on |r| anneals over stages, then Newton; (beta, iterations)."""
    iterations = 1
    obj = weighted_lp_loss(A, y, beta, s, p)
    if p == 2.0:
        return beta, iterations

    total_w = float(np.sum(s))
    loss_scale = obj / total_w
    if trace is not None:
        trace.append(obj)
    if loss_scale == 0.0:  # exact interpolation at the least-squares point
        return beta, iterations
    r_scale = loss_scale ** (1.0 / p)

    final_stage = len(_MU_STAGES) - 1
    for si, stage_mu in enumerate(_MU_STAGES):
        mu = stage_mu * r_scale
        final = si == final_stage
        inner_cap = max_outer if final else max(8, max_outer // 4)
        for _ in range(inner_cap):
            if final and _lp_kkt(A, y, s, beta, p) <= tol:
                break
            r = A @ beta - y
            w_irls = s * np.maximum(np.abs(r), mu) ** (p - 2.0)
            cand = _weighted_lstsq(A, y, w_irls)
            iterations += 1
            cand_obj = weighted_lp_loss(A, y, cand, s, p)
            if cand_obj > obj:
                cand, cand_obj = _backtrack(A, y, s, p, beta, cand, obj)
            if cand_obj > obj:
                break
            progressed = obj - cand_obj > 0.1 * tol * max(obj, loss_scale)
            beta, obj = cand, cand_obj
            if trace is not None:
                trace.append(obj)
            # the final stage runs on the gradient criterion alone
            if not progressed and not final:
                break

    beta, obj, steps = _newton_polish(A, y, s, p, beta, obj, tol, r_scale)
    if trace is not None:
        trace.append(obj)
    return beta, iterations + steps


def _backtrack(A, y, s, p, beta, cand, obj):
    """Halve the step toward `cand` until the objective does not increase."""
    t = 0.5
    while t > 1e-6:
        mid = beta + t * (cand - beta)
        mid_obj = weighted_lp_loss(A, y, mid, s, p)
        if mid_obj <= obj:
            return mid, mid_obj
        t *= 0.5
    return beta, obj


def _newton_polish(A, y, s, p, beta, obj, tol, r_scale, rounds: int = 20):
    """Damped Newton steps on the smooth (p > 1) loss to sharpen the gradient.

    Near the minimum the objective is flat to double precision while the
    gradient still carries signal, so a step is also accepted when it shrinks
    the gradient norm (objective slack stays inside the 1e-12 monotonicity
    budget).
    """
    beta = beta.copy()
    steps = 0

    def grad_norm(b):
        r = A @ b - y
        mags = p * np.abs(r) ** (p - 1.0)
        return float(np.linalg.norm(A.T @ (s * mags * np.sign(r))))

    gn = grad_norm(beta)
    for _ in range(rounds):
        r = A @ beta - y
        mags = p * np.abs(r) ** (p - 1.0)
        g = A.T @ (s * mags * np.sign(r))
        gscale = _gradient_scale(A, s, mags)
        if gscale == 0.0 or gn <= 0.01 * tol * gscale:
            break
        h = s * p * (p - 1.0) * np.maximum(np.abs(r), 1e-12 * r_scale) ** (p - 2.0)
        H = A.T @ (h[:, None] * A)
        ridge = 1e-12 * np.trace(H) / A.shape[1]
        try:
            delta = np.linalg.solve(H + ridge * np.eye(A.shape[1]), -g)
        except np.linalg.LinAlgError:
            break
        steps += 1
        t = 1.0
        accepted = False
        while t > 1e-8:
            cand = beta + t * delta
            cand_obj = weighted_lp_loss(A, y, cand, s, p)
            cand_gn = grad_norm(cand)
            strict_descent = cand_obj < obj
            flat_but_sharper = (
                cand_gn < 0.99 * gn and cand_obj <= obj + 1e-13 * max(obj, 1.0)
            )
            if strict_descent or flat_but_sharper:
                beta, obj, gn = cand, cand_obj, cand_gn
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break
    return beta, obj, steps


def _gradient_scale(A, s, mags) -> float:
    row_norms = np.linalg.norm(A, axis=1)
    return float(np.sum(s * mags * row_norms))


def _lp_kkt(A, y, s, beta, p) -> float:
    """Relative gradient norm: the stopping test of the final IRLS stage."""
    r = A @ beta - y
    mags = p * np.abs(r) ** (p - 1.0)
    g = A.T @ (s * mags * np.sign(r))
    scale = _gradient_scale(A, s, mags)
    if scale == 0.0:
        return 0.0
    return float(np.linalg.norm(g) / scale)
