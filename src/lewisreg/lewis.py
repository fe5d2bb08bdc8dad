"""Lewis weights, the brute-force importance-weight oracle, and row splitting.

The Lewis weights of A for a given p are the unique positive solution of

    a_i^T (A^T W^(1-2/p) A)^(-1) a_i = w_i^(2/p),   W = diag(w),

computed here by fixed-point contraction. Each iteration needs the leverage
scores of X = W^(1/2-1/p) A. They come from one Cholesky factor of the
equilibrated Gram matrix D X^T X D, with D = diag(X^T X)^(-1/2), which costs
two n x d matrix products. When that factor fails or its condition number is
too large for the iteration's tolerance, the iteration falls back to a
reduced QR of X for that step. The importance weight of a row,
sup_beta |a_i^T beta|^p / ||A beta||_p^p, has no closed form for d >= 2 and
p < 2, so the oracle runs a multistart projected ascent and certifies a
lower bound on the supremum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .errors import DegenerateMatrixError
from .linalg import as_matrix, leverage_scores, matrix_rank_cutoff


@dataclass(frozen=True)
class LewisWeights:
    p: float
    w: np.ndarray
    gamma: float          # claimed approximation factor (>= 1)
    residual: float       # max_i |a_i^T (A^T W^(1-2/p) A)^(-1) a_i / w_i^(2/p) - 1|
    iterations: int
    converged: bool

    @property
    def total(self) -> float:
        return float(np.sum(self.w))


def lewis_weights(A, p: float, tol: float = 1e-8, max_iter: int = 500) -> LewisWeights:
    """Fixed-point iteration w_i <- (a_i^T (A^T W^(1-2/p) A)^(-1) a_i)^(p/2).

    Starts from the uniform w_i = d/n and contracts for p in [1, 2]. Zero rows
    get weight 0 and are excluded from the fixed point. Non-convergence within
    max_iter is reported through `converged`/`residual`, not raised.
    """
    if not 1.0 <= p <= 2.0:
        raise ValueError(f"p must be in [1, 2], got {p}")
    A = as_matrix(A)
    n, d = A.shape
    # Not a norm test: squared entries below ~1e-154 underflow to zero.
    nz = np.any(A != 0.0, axis=1)
    B = A[nz]
    if B.shape[0] < d or matrix_rank_cutoff(B) < d:
        raise DegenerateMatrixError(
            f"rank-deficient matrix: need rank {d} on nonzero rows"
        )
    # Work buffers for every iteration's scaled matrix X and its product Y.
    # Fresh n x d arrays each iteration cost page faults whenever the
    # allocator hands their memory back to the system between iterations.
    X, Y = np.empty_like(B), np.empty_like(B)
    # Leverage scores do not change under column scaling, and a power of two
    # is exact. Columns of max-abs in [0.5, 1) keep X^T X clear of underflow
    # and overflow, so a matrix scaled by 1e+-170 stays on the Gram path.
    # B is a copy (boolean indexing), so it is scaled in place.
    np.ldexp(B, -np.frexp(np.abs(B, out=X).max(axis=0))[1], out=B)
    m = B.shape[0]
    w = np.full(m, d / m)
    residual = np.inf
    iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        # tau are the leverage scores of W^(1/2-1/p) A, so the fixed-point
        # ratio a_i^T (...)^(-1) a_i / w_i^(2/p) equals tau_i / w_i.
        tau = _scaled_leverage(B, w, p, tol, X, Y)
        residual = float(np.max(np.abs(tau / w - 1.0)))
        if not math.isfinite(residual):
            raise DegenerateMatrixError(
                f"Lewis iteration {iterations} produced non-finite leverage scores"
            )
        if residual <= tol:
            converged = True
            break
        w = w ** (1.0 - p / 2.0) * tau ** (p / 2.0)
    full = np.zeros(n)
    full[nz] = w
    return LewisWeights(
        p=p,
        w=full,
        gamma=_claimed_gamma(residual, p),
        residual=residual,
        iterations=iterations,
        converged=converged,
    )


def _scaled_leverage(B: np.ndarray, w: np.ndarray, p: float, tol: float,
                     X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Leverage scores of X = diag(w^(1/2-1/p)) B: x_i^T (X^T X)^(-1) x_i.

    X and Y are work buffers shaped like B; both are overwritten. The Gram
    route loses accuracy in proportion to eps * cond(X^T X). It is used only
    while that error stays a hundredth of `tol`, so a residual it reports
    below `tol` is one a QR would report too.
    """
    # Overflow or underflow here leaves a non-finite Gs, which the Cholesky
    # factorization rejects, or a non-finite tau, which the caller rejects.
    with np.errstate(all="ignore"):
        np.multiply((w ** (0.5 - 1.0 / p))[:, None], B, out=X)
        G = X.T @ X
        D = 1.0 / np.sqrt(np.diag(G))
        Gs = D[:, None] * G * D
    try:
        L = np.linalg.cholesky(Gs)
        accurate = np.finfo(np.float64).eps * np.linalg.cond(Gs) <= 1e-2 * tol
    except np.linalg.LinAlgError:
        accurate = False
    if not accurate:
        return _qr_leverage(X)
    # (X^T X)^(-1) = D L^(-T) L^(-1) D, so tau_i = ||x_i^T D L^(-T)||^2.
    np.matmul(X, D[:, None] * np.linalg.inv(L).T, out=Y)
    return np.einsum("ij,ij->i", Y, Y)


def _qr_leverage(X: np.ndarray) -> np.ndarray:
    Q, R = np.linalg.qr(X, mode="reduced")
    rdiag = np.abs(np.diag(R))
    if rdiag.min() <= 1e-14 * max(rdiag.max(), 1e-300):
        raise DegenerateMatrixError("matrix lost rank during Lewis iteration")
    return np.einsum("ij,ij->i", Q, Q)


def _claimed_gamma(residual: float, p: float) -> float:
    if not math.isfinite(residual):
        return math.inf
    if residual >= 1.0:
        return math.inf
    # Stability exponent of the fixed point: c_p = (p/2) / (1 - |p/2 - 1|).
    c_p = (p / 2.0) / (1.0 - abs(p / 2.0 - 1.0))
    alpha = max(1.0 + residual, 1.0 / (1.0 - residual))
    return alpha**c_p


@dataclass(frozen=True)
class ImportanceWeights:
    p: float
    u: np.ndarray
    method: str           # "closed-form-1d" or "multistart-ascent"
    starts: int


def importance_weight_oracle(
    A, p: float, row: int, starts: int = 16, seed: int = 0
) -> float:
    """Best found value of |a_row^T beta|^p / ||A beta||_p^p.

    Exact (closed form) for d = 1; otherwise a lower bound on the supremum
    from projected ascent over the unit sphere, started at beta = a_row, at
    the leverage and Lewis witnesses, and at `starts` random unit vectors.
    """
    A = as_matrix(A)
    if not 0 <= row < A.shape[0]:
        raise IndexError(f"row {row} out of range for {A.shape[0]} rows")
    u = _importance_all(A, p, starts, seed, rows=[row])
    return float(u[row])


def importance_weights(A, p: float, starts: int = 16, seed: int = 0) -> ImportanceWeights:
    """Oracle values for every row of A."""
    A = as_matrix(A)
    u = _importance_all(A, p, starts, seed, rows=range(A.shape[0]))
    method = "closed-form-1d" if A.shape[1] == 1 else "multistart-ascent"
    return ImportanceWeights(p=p, u=u, method=method, starts=starts)


def _importance_all(A, p, starts, seed, rows) -> np.ndarray:
    if not 1.0 <= p <= 2.0:
        raise ValueError(f"p must be in [1, 2], got {p}")
    n, d = A.shape
    u = np.zeros(n)
    if d == 1:
        total = np.sum(np.abs(A[:, 0]) ** p)
        if total > 0:
            u = np.abs(A[:, 0]) ** p / total
        return u
    gram_inv_A = _witnesses(A, p)
    for i in rows:
        a = A[i]
        if not np.any(a):
            continue
        starts_mat = _start_matrix(A, a, gram_inv_A[i], starts, seed, i)
        u[i] = _ascend_ratio(A, a, p, starts_mat)
    return u


def _witnesses(A: np.ndarray, p: float) -> np.ndarray:
    """Rows of A mapped through (A^T W^(1-2/p) A)^(-1) and (A^T A)^(-1)."""
    n, d = A.shape
    out = np.zeros((n, 2 * d))
    try:
        lev = np.linalg.solve(A.T @ A, A.T).T  # row i -> (A^T A)^(-1) a_i
        out[:, :d] = lev
    except np.linalg.LinAlgError:
        pass
    try:
        lw = lewis_weights(A, p, tol=1e-10, max_iter=200)
        nz = lw.w > 0
        scale = np.zeros(n)
        scale[nz] = lw.w[nz] ** (1.0 - 2.0 / p)
        G = A.T @ (scale[:, None] * A)
        out[:, d:] = np.linalg.solve(G, A.T).T
    except (DegenerateMatrixError, np.linalg.LinAlgError):
        pass
    return out


def _start_matrix(A, a, witness_row, starts, seed, row) -> np.ndarray:
    d = A.shape[1]
    rand = rng.normal_array(rng.derive(seed, 0x1A, row), np.arange(max(starts, 0)), d)
    cand = np.vstack([a[None, :], witness_row.reshape(2, d), rand])
    norms = np.linalg.norm(cand, axis=1)
    keep = norms > 0
    return cand[keep] / norms[keep, None]


def _ascend_ratio(A, a, p, B0, max_rounds: int = 500) -> float:
    """Maximize |a^T b|^p / ||A b||_p^p over unit b from each start in B0."""

    def logratio(B):
        t = B @ a
        R = B @ A.T
        energy = np.sum(np.abs(R) ** p, axis=1)
        with np.errstate(divide="ignore"):
            return p * np.log(np.abs(t)) - np.log(energy)

    B = B0.copy()
    f = logratio(B)
    step = np.full(B.shape[0], 0.25)
    stall = 0
    best = np.max(f)
    for _ in range(max_rounds):
        t = B @ a
        R = B @ A.T
        energy = np.sum(np.abs(R) ** p, axis=1)
        psi = np.abs(R) ** (p - 1.0) * np.sign(R)
        tt = np.where(np.abs(t) > 1e-300, t, 1e-300)
        G = p * a[None, :] / tt[:, None] - p * (psi @ A) / energy[:, None]
        gn = np.linalg.norm(G, axis=1)
        gn[gn == 0] = 1.0
        cand = B + (step / gn)[:, None] * G
        cn = np.linalg.norm(cand, axis=1)
        cn[cn == 0] = 1.0
        cand /= cn[:, None]
        fc = logratio(cand)
        ok = fc > f
        B[ok] = cand[ok]
        f[ok] = fc[ok]
        step[ok] = np.minimum(step[ok] * 1.3, 1.0)
        step[~ok] *= 0.5
        new_best = np.max(f)
        if new_best <= best + 1e-14:
            stall += 1
            if stall >= 40 or np.max(step) < 1e-16:
                break
        else:
            stall = 0
            best = new_best
    return float(np.exp(best))


@dataclass(frozen=True)
class SandwichReport:
    p: float
    slack: float
    lower: np.ndarray          # d^(-(1-p/2)) * w_i * (1 - slack)
    upper: np.ndarray          # w_i * (1 + slack)
    lower_violations: list[int] = field(default_factory=list)
    upper_violations: list[int] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.lower_violations and not self.upper_violations


def sandwich_check(A, p: float, lw: LewisWeights, iw: ImportanceWeights,
                   slack: float = 1e-3) -> SandwichReport:
    """Check d^(-(1-p/2)) w_i <= u_i <= w_i per row, up to `slack`.

    The oracle lower-bounds the true supremum, so the lower inequality is the
    strict assertion; the upper one is certified only up to the oracle's gap.
    """
    A = as_matrix(A)
    if not lw.converged:
        raise ValueError("sandwich_check requires converged Lewis weights")
    d = A.shape[1]
    lower = d ** (-(1.0 - p / 2.0)) * lw.w * (1.0 - slack)
    upper = lw.w * (1.0 + slack)
    lo_bad = [int(i) for i in np.nonzero(iw.u < lower)[0] if lw.w[i] > 0]
    hi_bad = [int(i) for i in np.nonzero(iw.u > upper)[0]]
    return SandwichReport(
        p=p, slack=slack, lower=lower, upper=upper,
        lower_violations=lo_bad, upper_violations=hi_bad,
    )


def split_row(A, row: int, k: int, p: float) -> np.ndarray:
    """Replace one row by k copies scaled by k^(-1/p), preserving ||A beta||_p^p."""
    A = as_matrix(A)
    if not 0 <= row < A.shape[0]:
        raise IndexError(f"row {row} out of range for {A.shape[0]} rows")
    if k < 1:
        raise ValueError("k must be >= 1")
    copies = np.tile(A[row] / k ** (1.0 / p), (k, 1))
    return np.vstack([A[:row], copies, A[row + 1:]])


@dataclass(frozen=True)
class UniformityReport:
    p: float
    alpha: float               # Lewis-weight non-uniformity vs d/n
    alpha_leverage: float      # leverage-score non-uniformity vs d/n
    exponent: float            # C_p = 4/p - 1
    bound: float               # alpha ** C_p
    ok: bool


def uniformity_report(A, p: float, lw: LewisWeights, rel_tol: float = 1e-6) -> UniformityReport:
    """Check that leverage non-uniformity is at most alpha^(4/p - 1)."""
    A = as_matrix(A)
    if not lw.converged:
        raise ValueError("uniformity_report requires converged Lewis weights")
    n, d = A.shape
    target = d / n
    alpha = _nonuniformity(lw.w, target)
    lev = leverage_scores(A).scores
    alpha_lev = _nonuniformity(lev, target)
    c_p = 4.0 / p - 1.0
    bound = alpha**c_p
    return UniformityReport(
        p=p, alpha=alpha, alpha_leverage=alpha_lev, exponent=c_p, bound=bound,
        ok=alpha_lev <= bound * (1.0 + rel_tol),
    )


def _nonuniformity(values: np.ndarray, target: float) -> float:
    v = values[values > 0]
    if v.size == 0:
        return math.inf
    return float(max(np.max(v / target), np.max(target / v)))
