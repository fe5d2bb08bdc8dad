"""Lewis weights, the exact importance-weight oracle, and row splitting.

The Lewis weights of A for a given p are the unique positive solution of

    a_i^T (A^T W^(1-2/p) A)^(-1) a_i = w_i^(2/p),   W = diag(w),

computed here as the fixed point of w <- w^(1-p/2) tau(w)^(p/2), with
tau(w) the leverage scores of X = W^(1/2-1/p) A. The iterate is x = log w.
Type-II Anderson mixing of depth 2 (Walker & Ni, SIAM J. Numer. Anal. 2011)
combines the last two differences of the iterates and of their plain steps,
and drops them whenever the fixed-point residual does not fall, so the next
step is the plain one. Each iterate is rescaled to sum d. That is exact:
tau(c w) = tau(w), and leverage scores sum to d, so the fixed point does too.
The plain iteration contracts the scale only at rate 1 - p/2, and the mixing
removes the slow modes of the shape, such as those of a dominant row.
Each leverage evaluation is one kernel on two d x m buffers: B, the nonzero
rows of A as columns, and one work buffer X = B diag(v), v = w^(1/2-1/p).
Any M with M^T X X^T M = I gives tau = v^2 * colsum((M^T B)^2), so every
score comes from its own row and keeps its relative accuracy however small it
is. M = D L^(-T) from one Cholesky factor L of the equilibrated Gram matrix
D X X^T D, D = diag(X X^T)^(-1/2), while its condition number suits the
tolerance; otherwise M = R^(-1) from the triangular factor R of a QR of X^T,
whose Q is never formed. The iteration decides rank there and only there:
an iterate that has lost rank fails the condition bound, and the package's
one rank rule, `matrix_rank_cutoff`, runs on R, which has X's singular
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


# Iterations without a new minimum of the residual after which the iteration
# stops unconverged: rounding keeps it near eps * cond(X), where it only wanders.
# A converging residual misses a new minimum at most twice in a row.
_STALL_ITERATIONS = 10


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
    """Fixed point of w_i = (a_i^T (A^T W^(1-2/p) A)^(-1) a_i)^(p/2), by Anderson mixing.

    Starts from the uniform w_i = d/n. The iterate is x = log w, the plain
    step is f = (p/2) log(tau / w), and type-II Anderson mixing of depth 2
    takes x <- x + f - (dX + dF) gamma, where dX and dF hold the last two
    differences of the iterates and of their steps and gamma minimizes
    ||f - dF gamma||_2. The history is dropped whenever the residual does not
    fall, so the next step is the plain one. Each iterate is then rescaled to
    sum d, the sum at the fixed point. The returned w is the last iterate
    evaluated when the iteration converges or reaches max_iter, and the one
    with the smallest residual when it stalls; `residual`, `gamma` and
    `converged` are those of the returned w. Zero rows get weight 0 and are
    excluded from the fixed point. Non-convergence is reported through
    `converged`/`residual`, not raised: within max_iter, or once the residual
    has set no new minimum for `_STALL_ITERATIONS` iterations, which happens
    when rounding keeps it above `tol`.
    """
    if not 1.0 <= p <= 2.0:
        raise ValueError(f"p must be in [1, 2], got {p}")
    A = as_matrix(A)
    n, d = A.shape
    # Not a norm test: squared entries below ~1e-154 underflow to zero.
    nz = np.any(A != 0.0, axis=1)
    # The nonzero rows as the columns of one contiguous d x m copy, B. Every
    # pass of the kernel then runs along rows of length m.
    B = A.T.copy() if nz.all() else A.T.compress(nz, axis=1)
    m = B.shape[1]
    if m < d:
        raise DegenerateMatrixError(f"{m} nonzero rows cannot have rank {d}")
    # The kernel's one work buffer. Fresh d x m arrays each iteration cost
    # page faults whenever the allocator hands their memory back to the system.
    X = np.empty_like(B)
    # Leverage scores do not change under column scaling, and a power of two
    # is exact. Columns of max-abs in [0.5, 1) keep X X^T clear of underflow
    # and overflow, so a matrix scaled by 1e+-170 stays on the Gram path.
    np.ldexp(B, -np.frexp(np.abs(B, out=X).max(axis=1))[1][:, None], out=B)
    x = np.full(m, math.log(d / m))
    # The mixing history: the last `held` differences of f and of g = x + f,
    # oldest first, and f and g of the previous iterate.
    dF, dG, prev = np.empty((2, m)), np.empty((2, m)), np.empty((2, m))
    held, last = 0, math.inf
    # The iterate with the smallest residual so far, returned on a stall stop.
    x_best = np.empty(m)
    residual, best, stalled, iterations = math.inf, math.inf, 0, 0
    for iterations in range(1, max_iter + 1):
        # tau are the leverage scores of W^(1/2-1/p) A, so the fixed-point
        # ratio a_i^T (...)^(-1) a_i / w_i^(2/p) equals tau_i / w_i.
        f = _scaled_leverage(B, x, p, tol, X)
        with np.errstate(divide="ignore", over="ignore"):
            np.log(f, out=f)
            f -= x
            residual = float(np.max(np.abs(np.expm1([f.min(), f.max()]))))
        if not math.isfinite(residual):
            raise DegenerateMatrixError(
                f"Lewis iteration {iterations} produced non-finite leverage scores"
            )
        if residual < best:
            best, stalled = residual, 0
            np.copyto(x_best, x)
        else:
            stalled += 1
        if residual <= tol or iterations == max_iter:
            break
        if stalled == _STALL_ITERATIONS:
            x, residual = x_best, best
            break
        f *= p / 2.0
        x += f                                  # the plain step, g = x + f
        if residual >= last:
            held = 0
        elif iterations > 1:
            if held == 2:
                dF[0], dG[0] = dF[1], dG[1]
                held = 1
            np.subtract(f, prev[0], out=dF[held])
            np.subtract(x, prev[1], out=dG[held])
            held += 1
        prev[0], prev[1] = f, x
        last = residual
        if held:
            gamma = np.linalg.lstsq(dF[:held] @ dF[:held].T, dF[:held] @ f, rcond=None)[0]
            x -= gamma @ dG[:held]
        x -= math.log(np.sum(np.exp(x)) / d)
    # Freed before the result is allocated, so `full` does not land above
    # these buffers and pin the heap once they are released.
    del X, B, dF, dG, prev, x_best
    full = np.zeros(n)
    full[nz] = np.exp(x)
    return LewisWeights(
        p=p,
        w=full,
        gamma=_claimed_gamma(residual, p),
        residual=residual,
        iterations=iterations,
        converged=residual <= tol,
    )


def _scaled_leverage(B: np.ndarray, x: np.ndarray, p: float, tol: float,
                     X: np.ndarray) -> np.ndarray:
    """Leverage scores of the columns of X = B diag(v), v = exp((1/2 - 1/p) x).

    X is a work buffer shaped like B. It is overwritten, last with M^T B for
    an M with M^T X X^T M = I, so that tau = v^2 * colsum(X^2). M = D L^(-T)
    from the equilibrated Gram matrix while eps * cond(D X X^T D) stays a
    hundredth of `tol`, so a residual it reports below `tol` is one a QR
    would report too; otherwise M = R^(-1) from `_qr_inverse`.
    """
    # Overflow or underflow here leaves a non-finite Gs, which the Cholesky
    # factorization rejects, or a non-finite tau, which the caller rejects.
    with np.errstate(all="ignore"):
        v = np.exp((0.5 - 1.0 / p) * x)
        np.multiply(B, v, out=X)
        G = X @ X.T
        D = 1.0 / np.sqrt(np.diag(G))
        Gs = D[:, None] * G * D
    try:
        L = np.linalg.cholesky(Gs)
        accurate = np.finfo(np.float64).eps * np.linalg.cond(Gs) <= 1e-2 * tol
    except np.linalg.LinAlgError:
        accurate = False
    # M^T = L^(-1) D, so that M = D L^(-T).
    Mt = np.linalg.inv(L) * D if accurate else _qr_inverse(X)
    np.matmul(Mt, B, out=X)
    tau = np.einsum("ij,ij->j", X, X)
    with np.errstate(over="ignore"):
        v *= v
    tau *= v
    return tau


def _qr_inverse(X: np.ndarray) -> np.ndarray:
    """R^(-T) for the triangular factor R of X^T, after the rank rule on R.

    Q is never formed. R has X's singular values, so this is the one place
    the iteration decides rank.
    """
    R = np.linalg.qr(X.T, mode="r")
    if not np.all(np.isfinite(R)):
        raise DegenerateMatrixError("non-finite leverage scores: the scaled matrix overflows")
    if matrix_rank_cutoff(R) < X.shape[0]:
        raise DegenerateMatrixError(f"rank-deficient matrix: need rank {X.shape[0]}")
    return np.linalg.inv(R).T


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
