"""Reference computations made apart from lewisreg.

The benchmark checks the program's outputs against these. None of them calls
into lewisreg. Each has a fast self-test (`self_test`) against scipy.
"""

from __future__ import annotations

import math

import numpy as np


class ReferenceError(RuntimeError):
    """A reference computation failed its own self-test."""


def lp_loss(A, y, beta, p: float) -> float:
    """sum_i |y_i - a_i^T beta|^p."""
    return float(np.sum(np.abs(y - A @ beta) ** p))


def column_basis(A) -> np.ndarray:
    """Orthonormal basis of range(A), for projecting onto the null space of A^T."""
    return np.linalg.qr(A, mode="reduced")[0]


def dual_lower_bound(A, y, beta, p: float, Q=None) -> float:
    """Weak-duality lower bound on min_b sum_i |y_i - a_i^T b|^p.

    For any z with A^T z = 0, sum_i f(r_i) >= z^T y - sum_i f*(z_i), where
    f(r) = |r|^p and f* is its convex conjugate. For p = 1, f* is the indicator
    of |z_i| <= 1. The dual vector is built from the residual at `beta`, then
    projected onto the null space of A^T, and for p = 1 scaled into the box.
    At an optimal `beta` the bound meets the loss up to rounding.
    """
    n, d = A.shape
    if Q is None:
        Q = column_basis(A)
    r = y - A @ beta
    if p == 1.0:
        # Rows off the fit take the subgradient sign(r_i). The d rows the fit
        # interpolates take the multipliers that zero A^T z.
        z = np.sign(r)
        ties = np.argsort(np.abs(r), kind="stable")[:d]
        z[ties] = 0.0
        z[ties] = np.linalg.lstsq(A[ties].T, -(A.T @ z), rcond=None)[0]
        z -= Q @ (Q.T @ z)
        z /= max(1.0, float(np.max(np.abs(z))))
        return float(z @ y)
    q = p / (p - 1.0)
    z = p * np.abs(r) ** (p - 1.0) * np.sign(r)
    z -= Q @ (Q.T @ z)
    return float(z @ y - (p - 1.0) * np.sum(np.abs(z / p) ** q))


def certified_optimum(A, y, beta, p: float) -> tuple[float, float]:
    """(lower, upper) on the full-data optimum: the dual bound and L(beta)."""
    return dual_lower_bound(A, y, beta, p), lp_loss(A, y, beta, p)


def lewis_check(A, w, p: float) -> tuple[float, float]:
    """Fixed-point residual and |sum w - d| of candidate Lewis weights.

    The residual is max_i |tau_i / w_i - 1| over rows with w_i > 0, where tau
    are the leverage scores of W^(1/2 - 1/p) A, computed here by a thin SVD.
    """
    nz = w > 0
    B = A[nz] * (w[nz] ** (0.5 - 1.0 / p))[:, None]
    U = np.linalg.svd(B, full_matrices=False)[0]
    tau = np.einsum("ij,ij->i", U, U)
    return float(np.max(np.abs(tau / w[nz] - 1.0))), abs(float(np.sum(w)) - A.shape[1])


def support_probabilities(scheme: str, params) -> np.ndarray:
    """P(row i is in the sketch) for a Bernoulli or a Poisson plan."""
    if scheme == "bernoulli-l1":
        return np.asarray(params)
    if scheme == "poisson-lp":
        return -np.expm1(-np.asarray(params))
    raise ValueError(f"no support model for scheme {scheme!r}")


def bernstein_budget(probs, delta: float) -> float:
    """Support size that a sum of independent Bernoulli(probs) exceeds with probability <= delta."""
    mu = float(np.sum(probs))
    var = float(np.sum(probs * (1.0 - probs)))
    t = math.log(1.0 / delta)
    return mu + t / 3.0 + math.sqrt(t * t / 9.0 + 2.0 * var * t)


def exact_l1_importance(A) -> tuple[np.ndarray, float]:
    """Exact p = 1 importance weights u_i = min{||z||_inf : A^T z = a_i}, by LP.

    Solved with scipy's HiGHS, one LP per nonzero row. Each value is certified
    two-sided: the primal z, corrected onto A^T z = a_i, gives an upper bound,
    and the equality multipliers b give the lower bound |a_i^T b| / ||A b||_1.
    Returns the upper bounds and the largest relative gap between the sides.
    """
    from scipy.optimize import linprog

    n, d = A.shape
    eye = np.eye(n)
    ones = np.ones((n, 1))
    c = np.zeros(n + 1)
    c[-1] = 1.0
    A_ub = np.block([[eye, -ones], [-eye, -ones]])
    b_ub = np.zeros(2 * n)
    A_eq = np.hstack([A.T, np.zeros((d, 1))])
    bounds = [(None, None)] * n + [(0.0, None)]
    pinv_t = np.linalg.pinv(A.T)
    u = np.zeros(n)
    worst_gap = 0.0
    for i in range(n):
        if not np.any(A[i]):
            continue
        res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=A[i],
                      bounds=bounds, method="highs")
        if res.status != 0:
            raise ReferenceError(f"HiGHS failed on row {i}: {res.message}")
        z = res.x[:n]
        z = z + pinv_t @ (A[i] - A.T @ z)
        upper = float(np.max(np.abs(z)))
        b = np.asarray(res.eqlin.marginals)
        energy = float(np.sum(np.abs(A @ b)))
        lower = abs(float(A[i] @ b)) / energy if energy > 0 else 0.0
        u[i] = upper
        worst_gap = max(worst_gap, (upper - lower) / upper)
    return u, worst_gap


def self_test() -> None:
    """Check each reference against scipy on small instances; raise on a miss."""
    from scipy.optimize import linprog, minimize

    r = np.random.default_rng(20210204)
    n, d = 80, 3
    A = r.standard_normal((n, d))
    y = A @ np.array([1.0, -2.0, 0.5]) + r.standard_normal(n)
    y[:4] += 40.0

    # p = 1: least absolute deviations as an LP, solved by HiGHS.
    c = np.concatenate([np.zeros(d), np.ones(2 * n)])
    res = linprog(c, A_eq=np.hstack([A, np.eye(n), -np.eye(n)]), b_eq=y,
                  bounds=[(None, None)] * d + [(0.0, None)] * (2 * n), method="highs")
    lo, hi = certified_optimum(A, y, res.x[:d], 1.0)
    if not (abs(hi - res.fun) <= 1e-9 * res.fun and (hi - lo) <= 1e-9 * hi):
        raise ReferenceError(f"p=1 dual bound {lo!r} vs HiGHS optimum {res.fun!r}")
    worse = res.x[:d] + 0.3
    if dual_lower_bound(A, y, worse, 1.0) > res.fun * (1.0 + 1e-12):
        raise ReferenceError("p=1 dual bound exceeds the optimum away from it")

    # p = 1.5: HiGHS solves only linear and quadratic programs, so the
    # reference optimum comes from BFGS on the smooth loss.
    p = 1.5
    beta0 = np.linalg.lstsq(A, y, rcond=None)[0]
    fit = minimize(lambda b: lp_loss(A, y, b, p), beta0,
                   jac=lambda b: -A.T @ (p * np.abs(y - A @ b) ** (p - 1) * np.sign(y - A @ b)),
                   method="BFGS", options={"gtol": 1e-10})
    lo, hi = certified_optimum(A, y, fit.x, p)
    if not (lo <= fit.fun * (1.0 + 1e-12) and (hi - lo) <= 1e-8 * hi):
        raise ReferenceError(f"p=1.5 dual bound {lo!r} vs BFGS optimum {fit.fun!r}")
    if dual_lower_bound(A, y, fit.x + 0.3, p) > fit.fun * (1.0 + 1e-12):
        raise ReferenceError("p=1.5 dual bound exceeds the optimum away from it")

    # Importance weights: d = 1 has the closed form |a_i| / ||a||_1, and at
    # d = 2 a dense sweep of the unit circle approaches the supremum from below.
    col = r.standard_normal((12, 1))
    u1, _ = exact_l1_importance(col)
    if np.max(np.abs(u1 - np.abs(col[:, 0]) / np.sum(np.abs(col)))) > 1e-9:
        raise ReferenceError("exact importance weights miss the d=1 closed form")
    B = r.standard_normal((15, 2))
    u2, gap = exact_l1_importance(B)
    theta = np.linspace(0.0, np.pi, 200_001)
    dirs = np.stack([np.cos(theta), np.sin(theta)])
    sweep = np.max(np.abs(B @ dirs) / np.sum(np.abs(B @ dirs), axis=0), axis=1)
    if gap > 1e-7 or np.any(sweep > u2 * (1 + 1e-9)) or np.any(sweep < u2 * (1 - 1e-4)):
        raise ReferenceError("exact importance weights disagree with the d=2 sweep")
