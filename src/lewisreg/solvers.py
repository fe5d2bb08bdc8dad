"""Weighted L1/Lp regression solvers.

Both losses are minimized by iteratively reweighted least squares with a
residual floor `mu` annealed over outer stages (p < 2 weights blow up at zero
residuals). IRLS alone lands close but not sharp, so each loss gets a polish:
for L1 an exact edge walk (any 1-D restriction of the loss is piecewise
linear, so line searches are weighted medians), for p > 1 damped Newton.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, as_vector, matrix_rank_cutoff, weighted_lp_loss

CONVERGED = "converged"
MAX_ITER = "max-iter"
DEGENERATE = "degenerate"

_MU_STAGES = [1e-2 * 0.1**k for k in range(9)]  # 1e-2 .. 1e-10, x0.1 per stage


@dataclass(frozen=True)
class SolveResult:
    beta: np.ndarray
    objective: float
    iterations: int
    status: str
    kkt_residual: float


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
    order = np.argsort(v, kind="stable")
    cum = np.cumsum(w[order])
    total = cum[-1]
    if total <= 0:
        raise ValueError("total weight must be positive")
    k = int(np.searchsorted(cum, 0.5 * total))
    return float(v[order][k])


def solve_weighted_l1(A, y, s=None, tol: float = 1e-8, max_outer: int = 100,
                      trace=None) -> SolveResult:
    """Minimize sum_i s_i |a_i^T beta - y_i| to relative accuracy tol.

    `trace`, if a list, receives the objective after every accepted step.
    """
    return _solve(A, y, s, p=1.0, tol=tol, max_outer=max_outer, trace=trace)


def solve_weighted_lp(A, y, p: float, s=None, tol: float = 1e-8, max_outer: int = 100,
                      trace=None) -> SolveResult:
    """Minimize sum_i s_i |a_i^T beta - y_i|^p for p in (1, 2]."""
    if not 1.0 < p <= 2.0:
        raise ValueError(f"p must be in (1, 2], got {p}")
    return _solve(A, y, s, p=p, tol=tol, max_outer=max_outer, trace=trace)


def _solve(A, y, s, p, tol, max_outer, trace=None) -> SolveResult:
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
            kkt_residual=math.inf,
        )

    if d == 1 and p == 1.0:
        beta = np.array([_l1_scalar_exact(As[:, 0], ys, ss)])
        obj = weighted_lp_loss(A, y, beta, s, p)
        kkt = _l1_kkt(As, ys, ss, beta, 1e-9 * obj / float(np.sum(ss)))
        return SolveResult(beta=beta, objective=obj, iterations=1,
                           status=CONVERGED if kkt <= tol else MAX_ITER,
                           kkt_residual=kkt)

    beta = _weighted_lstsq(As, ys, ss)
    iterations = 1
    obj = weighted_lp_loss(As, ys, beta, ss, p)
    if p == 2.0:
        kkt = _lp_kkt(As, ys, ss, beta, p)
        return SolveResult(beta=beta, objective=weighted_lp_loss(A, y, beta, s, p),
                           iterations=iterations,
                           status=CONVERGED if kkt <= max(tol, 1e-10) else MAX_ITER,
                           kkt_residual=kkt)

    total_w = float(np.sum(ss))
    loss_scale = obj / total_w
    if trace is not None:
        trace.append(obj)
    if loss_scale == 0.0:  # exact interpolation at the least-squares point
        return SolveResult(beta=beta, objective=0.0, iterations=iterations,
                           status=CONVERGED, kkt_residual=0.0)
    r_scale = loss_scale ** (1.0 / p)

    final_stage = len(_MU_STAGES) - 1
    for si, stage_mu in enumerate(_MU_STAGES):
        mu = stage_mu * r_scale
        final = si == final_stage and p > 1.0
        inner_cap = max_outer if final else max(8, max_outer // 4)
        for _ in range(inner_cap):
            if final and _lp_kkt(As, ys, ss, beta, p) <= tol:
                break
            r = As @ beta - ys
            w_irls = ss * np.maximum(np.abs(r), mu) ** (p - 2.0)
            cand = _weighted_lstsq(As, ys, w_irls)
            iterations += 1
            cand_obj = weighted_lp_loss(As, ys, cand, ss, p)
            if cand_obj > obj:
                cand, cand_obj = _backtrack(As, ys, ss, p, beta, cand, obj)
            if cand_obj > obj:
                break
            progressed = obj - cand_obj > 0.1 * tol * max(obj, loss_scale)
            beta, obj = cand, cand_obj
            if trace is not None:
                trace.append(obj)
            # the final Lp stage runs on the gradient criterion alone
            if not progressed and not final:
                break

    if p == 1.0:
        beta, obj, steps = _l1_polish(As, ys, ss, beta, obj)
        iterations += steps
        if trace is not None:
            trace.append(obj)
        kkt = _l1_kkt(As, ys, ss, beta, 1e-9 * r_scale)
    else:
        beta, obj, steps = _newton_polish(As, ys, ss, p, beta, obj, tol, r_scale)
        iterations += steps
        if trace is not None:
            trace.append(obj)
        kkt = _lp_kkt(As, ys, ss, beta, p)
    status = CONVERGED if kkt <= tol else MAX_ITER
    return SolveResult(beta=beta, objective=weighted_lp_loss(A, y, beta, s, p),
                       iterations=iterations, status=status, kkt_residual=kkt)


def _weighted_lstsq(A, y, w) -> np.ndarray:
    sw = np.sqrt(w)
    beta, *_ = np.linalg.lstsq(sw[:, None] * A, sw * y, rcond=None)
    return beta


def _pinv_lstsq(A, y, s) -> np.ndarray:
    if A.size == 0:
        return np.zeros(A.shape[1])
    sw = np.sqrt(s)
    return np.linalg.pinv(sw[:, None] * A) @ (sw * y)


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


def _l1_scalar_exact(col, y, s) -> float:
    """Exact d = 1 minimizer: weighted median of y_i/a_i with weights s_i |a_i|."""
    nz = col != 0.0
    return weighted_median(y[nz] / col[nz], s[nz] * np.abs(col[nz]))


def _l1_polish(A, y, s, beta, obj, max_moves: int = 200):
    """Descend the piecewise-linear loss by exact line searches along edges.

    The minimizer lies where d independent residuals vanish. Each move fixes
    the current near-zero ("active") rows, takes a direction in the null space
    of the active rows (so active residuals stay zero), and minimizes exactly
    along it with a weighted median. At a full vertex the candidate directions
    are the d edges obtained by releasing one active row. Stops when no
    direction improves, which is the subgradient optimality condition.
    """
    d = A.shape[1]
    beta = beta.copy()
    r = A @ beta - y
    scale = float(np.mean(np.abs(r))) + 1e-300
    steps = 0
    for _ in range(max_moves):
        steps += 1
        active = np.nonzero(np.abs(r) <= 1e-9 * scale)[0]
        improved = False
        for eta in _edge_directions(A, active, d):
            c = A @ eta
            nz = np.abs(c) > 1e-14
            if not nz.any():
                continue
            t = weighted_median(-r[nz] / c[nz], s[nz] * np.abs(c[nz]))
            if t == 0.0:
                continue
            cand = beta + t * eta
            cand_r = A @ cand - y
            cand_obj = float(np.sum(s * np.abs(cand_r)))
            if cand_obj < obj - 1e-15 * max(obj, 1.0):
                beta, obj, r = cand, cand_obj, cand_r
                improved = True
                break
        if not improved:
            break
    return beta, obj, steps


def _edge_directions(A, active, d):
    """Null-space directions of the active rows; at a vertex, its d edges."""
    if active.size == 0:
        yield from np.eye(d)
        return
    if active.size < d:
        for eta in _nullspace(A[active]).T:
            yield eta
        return
    for k in range(active.size):
        rest = np.delete(active, k)
        for eta in _nullspace(A[rest]).T:
            yield eta


def _nullspace(M):
    _, sv, Vt = np.linalg.svd(M, full_matrices=True)
    rank = int(np.sum(sv > 1e-12 * (sv[0] if sv.size else 1.0)))
    return Vt[rank:].T


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
    """Relative norm of sum_i s_i p |r_i|^(p-1) sign(r_i) a_i."""
    r = A @ beta - y
    mags = p * np.abs(r) ** (p - 1.0)
    g = A.T @ (s * mags * np.sign(r))
    scale = _gradient_scale(A, s, mags)
    if scale == 0.0:
        return 0.0
    return float(np.linalg.norm(g) / scale)


def _l1_kkt(A, y, s, beta, tie_tol) -> float:
    """Minimal-norm subgradient of the weighted L1 loss, relative to its scale.

    Rows with |r_i| <= tie_tol contribute a free coefficient in [-1, 1]; the
    minimization over those coefficients is a small box-constrained least
    squares problem.
    """
    r = A @ beta - y
    scale = _gradient_scale(A, s, np.ones_like(r))
    if scale == 0.0:
        return 0.0
    ties = np.abs(r) <= tie_tol
    g0 = A.T @ (s * np.sign(np.where(ties, 0.0, r)))
    if not ties.any():
        return float(np.linalg.norm(g0) / scale)
    # Imported here: scipy.optimize is most of the package's import time.
    from scipy.optimize import lsq_linear

    C = (s[ties, None] * A[ties]).T  # d x (#ties)
    res = lsq_linear(C, -g0, bounds=(-1.0, 1.0))
    return float(np.linalg.norm(C @ res.x + g0) / scale)
