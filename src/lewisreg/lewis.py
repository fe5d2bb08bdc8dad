"""Lewis weights, the exact importance-weight oracle, and row splitting.

The Lewis weights of A for a given p are the unique positive solution of

    a_i^T (A^T W^(1-2/p) A)^(-1) a_i = w_i^(2/p),   W = diag(w),

computed here by fixed-point contraction, w <- w^(1-p/2) tau(w)^(p/2) with
tau(w) the leverage scores of X = W^(1/2-1/p) A, each iterate rescaled to
sum d. The rescaling is exact: tau(c w) = tau(w), so the update maps c w to
c^(1-p/2) times the update of w, and every rescaled iterate is a positive
multiple of the plain one. Leverage scores sum to d, so the fixed point does
too; the plain iteration's scale converges only at rate 1 - p/2, and the
rescaling removes that slow direction. The leverage scores come from one
Cholesky factor of the equilibrated Gram matrix D X^T X D, with
D = diag(X^T X)^(-1/2), which costs two n x d matrix products. When that
factor fails or its condition number is too large for the iteration's
tolerance, the iteration falls back to a reduced QR of X for that step.
The iteration decides rank there and only there: an iterate that has lost
rank fails the condition bound, and the QR applies the package's one rank
rule, `matrix_rank_cutoff`, to its d x d factor R, which has X's singular
values. The importance weights apply the same rule to A once per call.
The importance weight of a row,
sup_beta |a_i^T beta|^p / ||A beta||_p^p, has no closed form for d >= 2 and
p < 2. It equals 1 / min{||A beta||_p^p : a_i^T beta = 1}, an Lp regression
on d - 1 coefficients once the constraint is eliminated, which the weighted
L1 and Lp solvers solve exactly, so both sides of the sandwich
d^-(1-p/2) w_i <= u_i <= w_i are checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateMatrixError
from .linalg import as_matrix, leverage_scores, matrix_rank_cutoff
from .solvers import CONVERGED, solve_weighted_l1, solve_weighted_lp


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

    Starts from the uniform w_i = d/n and contracts for p in [1, 2]. After
    each update w is rescaled to sum d, the sum at the fixed point: the
    update is homogeneous of degree 1 - p/2 in w, so this leaves the shape of
    every iterate as it was and removes the slow contraction of its scale.
    The stopping rule and the reported residual are those of the returned w.
    Zero rows get weight 0 and are excluded from the fixed point.
    Non-convergence within max_iter is reported through
    `converged`/`residual`, not raised.
    """
    if not 1.0 <= p <= 2.0:
        raise ValueError(f"p must be in [1, 2], got {p}")
    A = as_matrix(A)
    n, d = A.shape
    # Not a norm test: squared entries below ~1e-154 underflow to zero.
    nz = np.any(A != 0.0, axis=1)
    B = A[nz]
    if B.shape[0] < d:
        raise DegenerateMatrixError(f"{B.shape[0]} nonzero rows cannot have rank {d}")
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
        w *= d / np.sum(w)
    # Freed before the result is allocated, so `full` does not land above
    # these n x d buffers and pin the heap once they are released.
    del X, Y, B
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
    # A non-finite R passes on to the caller's non-finite check.
    if np.all(np.isfinite(R)) and matrix_rank_cutoff(R) < X.shape[1]:
        raise DegenerateMatrixError(f"rank-deficient matrix: need rank {X.shape[1]}")
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


def importance_weight_oracle(A, p: float, row: int) -> float:
    """Exact sup_beta |a_row^T beta|^p / ||A beta||_p^p (0 for a zero row)."""
    A = as_matrix(A)
    if not 0 <= row < A.shape[0]:
        raise IndexError(f"row {row} out of range for {A.shape[0]} rows")
    return float(_importance_all(A, p, rows=[row])[row])


def importance_weights(A, p: float, starts: int = 16, seed: int = 0) -> ImportanceWeights:
    """Exact importance weights of every row of A, which must have full column rank.

    `starts` and `seed` are accepted for compatibility and ignored.
    """
    A = as_matrix(A)
    return ImportanceWeights(p=p, u=_importance_all(A, p, rows=range(A.shape[0])))


def _importance_all(A, p, rows) -> np.ndarray:
    if not 1.0 <= p <= 2.0:
        raise ValueError(f"p must be in [1, 2], got {p}")
    u = np.zeros(A.shape[0])
    rows = [i for i in rows if np.any(A[i])]
    if rows and matrix_rank_cutoff(A) < A.shape[1]:
        raise DegenerateMatrixError(f"rank-deficient matrix: need rank {A.shape[1]}")
    for i in rows:
        u[i] = _sup_ratio(A, A[i], p)
    return u


def _sup_ratio(A: np.ndarray, v: np.ndarray, p: float) -> float:
    """sup_b |v^T b|^p / ||A b||_p^p for nonzero v, as 1 / min{||A b||_p^p : v^T b = 1}.

    The feasible b are b0 + N c, with b0 = v / ||v||^2 and N an orthonormal
    basis of v's orthogonal complement, so the minimum is the unconstrained
    Lp regression of -A b0 on A N. At d = 1 the feasible set is b0 alone.
    A must have full column rank, which makes A N full rank too; callers
    check that once per A. The regression must be certified to its
    duality-gap tolerance, or this raises RuntimeError, so the value is the
    supremum, not a lower bound.
    """
    Vt = np.linalg.svd(v[None, :])[2]       # Vt[0] = +-v / ||v||, Vt[1:] = N^T
    b = Vt[0] / (Vt[0] @ v)
    if A.shape[1] > 1:
        N = Vt[1:].T
        AN, y = A @ N, -(A @ b)
        res = (solve_weighted_l1(AN, y) if p == 1.0
               else solve_weighted_lp(AN, y, p, tol=1e-12))
        if res.status != CONVERGED:
            raise RuntimeError(
                f"reduced regression not certified: {res.status}, gap {res.gap:.2e}")
        b = b + N @ res.beta
    return 1.0 / float(np.sum(np.abs(A @ b) ** p))


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

    The importance weights are exact suprema, so both inequalities are
    checked to the solvers' accuracy.
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
