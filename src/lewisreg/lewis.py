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
Each leverage evaluation is one kernel on one d x m copy B, the nonzero rows
of A as columns, and one d x block work buffer, in two passes over column
blocks of B: the first sums the Gram matrix X X^T of X = B diag(v),
v = w^(1/2-1/p), and the second writes M^T B one block at a time. Any M
with M^T X X^T M = I gives tau = v^2 * colsum((M^T B)^2), so every score
comes from its own row and keeps its relative accuracy however small it is.
M = D L^(-T) from one Cholesky factor L of the equilibrated Gram matrix
D X X^T D, D = diag(X X^T)^(-1/2), while its condition number suits the
tolerance; otherwise M = R^(-1) from the triangular factor R of a QR of X^T,
whose Q is never formed; past one block, R comes from a QR of the blocks'
stacked triangular factors, which has the same R up to row signs (TSQR).
The iteration decides rank there and only there: an iterate that has lost
rank fails the condition bound, and the package's one rank rule,
`matrix_rank_cutoff`, runs on R, which has X's singular values. The
importance weights apply the same rule to A once per call.
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

# Columns of B per block of the leverage kernel and of B's copy: a d x block
# buffer stays in cache between a block's multiply and its product. Chosen by
# timing 1024 to 65536 on a 200 000 x 10 matrix, where 4096 and 8192 were
# fastest.
_BLOCK = 4096


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
    B, nz = _nonzero_rows_transposed(A)
    m = B.shape[1]
    if m < d:
        raise DegenerateMatrixError(f"{m} nonzero rows cannot have rank {d}")
    # The kernel's one work buffer, d x block. Its size does not grow with m.
    X = np.empty((d, min(m, _BLOCK)))
    # Leverage scores do not change under column scaling, and a power of two
    # is exact. Columns of max-abs in [0.5, 1) keep X X^T clear of underflow
    # and overflow, so a matrix scaled by 1e+-170 stays on the Gram path.
    # max(max, -min) is the max-abs, read without an |B| pass.
    scale = np.frexp(np.maximum(B.max(axis=1), -B.min(axis=1)))[1]
    np.ldexp(B, -scale[:, None], out=B)
    # Every m-vector of the iteration is a row of one work block, allocated
    # once: numpy asks for huge pages at 4 MB and more, which vectors of a
    # few MB each would not get. The rows are the iterate x, the step f, the
    # kernel's scaling v, a temporary, f and g = x + f of the previous
    # iterate, the iterate with the smallest residual so far (returned on a
    # stall stop), and the mixing history: the last `held` differences of f
    # and of g, oldest first.
    work = np.empty((11, m))
    x, f, v, tmp, f_prev, g_prev, x_best = work[:7]
    dF, dG = work[7:9], work[9:]
    x.fill(math.log(d / m))
    held, last = 0, math.inf
    residual, best, stalled, iterations = math.inf, math.inf, 0, 0
    for iterations in range(1, max_iter + 1):
        # tau are the leverage scores of W^(1/2-1/p) A, so the fixed-point
        # ratio a_i^T (...)^(-1) a_i / w_i^(2/p) equals tau_i / w_i.
        _scaled_leverage(B, x, p, tol, X, f, v)
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
            np.subtract(f, f_prev, out=dF[held])
            np.subtract(x, g_prev, out=dG[held])
            held += 1
        last = residual
        if held:
            gamma = np.linalg.lstsq(dF[:held] @ dF[:held].T, dF[:held] @ f, rcond=None)[0]
            # The mixed iterate goes to g_prev's row, and g stays as g_prev.
            np.subtract(x, np.matmul(gamma, dG[:held], out=tmp), out=g_prev)
            x, g_prev = g_prev, x
        else:
            np.copyto(g_prev, x)
        f, f_prev = f_prev, f
        x -= math.log(np.sum(np.exp(x, out=tmp)) / d)
    np.exp(x, out=x)
    # Freed before the result is allocated, so `full` does not land above
    # these buffers and pin the heap once they are released.
    del X, B
    full = np.zeros(n)
    full[nz] = x
    return LewisWeights(
        p=p,
        w=full,
        gamma=_claimed_gamma(residual, p),
        residual=residual,
        iterations=iterations,
        converged=residual <= tol,
    )


def _nonzero_rows_transposed(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """B, the nonzero rows of A as the columns of a d x m array, and their mask.

    A is copied in blocks of `_BLOCK` rows into one d x n allocation, each
    block transposed and compressed to its nonzero rows in turn. With zero
    rows, B is a compact copy of the first m columns, so the d x n
    allocation is not held past the call. Every pass of the kernel then runs
    along rows of B.
    """
    n, d = A.shape
    B = np.empty((d, n))
    nz = np.empty(n, dtype=bool)
    m = 0
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        Bb = B[:, m:m + stop - start]
        np.copyto(Bb, A[start:stop].T)
        # Not a norm test: squared entries below ~1e-154 underflow to zero.
        keep = np.any(Bb, axis=0, out=nz[start:stop])
        k = int(np.count_nonzero(keep))
        if k < keep.size:
            B[:, m:m + k] = Bb[:, keep]
        m += k
    return (B if m == n else B[:, :m].copy()), nz


def _scaled_leverage(B: np.ndarray, x: np.ndarray, p: float, tol: float,
                     X: np.ndarray, tau: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Leverage scores of the columns of B diag(v), v = exp((1/2 - 1/p) x).

    The scores are written to tau and the scaling to v, both m-vectors, and
    tau is returned. Two passes over blocks of `_BLOCK` columns, each through
    the d x block work buffer X. The first forms X_b = B_b diag(v_b) and sums
    the Gram matrix G = sum_b X_b X_b^T. The second writes M^T B_b, for an M
    with M^T G M = I, so that tau_b = v_b^2 * colsum((M^T B_b)^2).
    M = D L^(-T) from the equilibrated Gram matrix while eps * cond(D G D)
    stays a hundredth of `tol`, so a residual it reports below `tol` is one a
    QR would report too; otherwise M = R^(-1) from `_qr_inverse` of X within
    one block, or of the blocks' stacked triangular factors beyond.
    """
    d, m = B.shape
    blocks = [(start, min(start + _BLOCK, m)) for start in range(0, m, _BLOCK)]
    # Overflow or underflow here leaves a non-finite Gs, which the Cholesky
    # factorization rejects, or a non-finite tau, which the caller rejects.
    with np.errstate(all="ignore"):
        np.exp(np.multiply(x, 0.5 - 1.0 / p, out=v), out=v)
        G = np.zeros((d, d))
        for start, stop in blocks:
            Xb = X[:, :stop - start]
            np.multiply(B[:, start:stop], v[start:stop], out=Xb)
            G += Xb @ Xb.T
        D = 1.0 / np.sqrt(np.diag(G))
        Gs = D[:, None] * G * D
    try:
        L = np.linalg.cholesky(Gs)
        accurate = np.finfo(np.float64).eps * np.linalg.cond(Gs) <= 1e-2 * tol
    except np.linalg.LinAlgError:
        accurate = False
    # M^T = L^(-1) D, so that M = D L^(-T).
    # With one block, X already holds B diag(v) from the first pass.
    Mt = (np.linalg.inv(L) * D if accurate
          else _qr_inverse(X if len(blocks) == 1 else _stacked_r(B, v, X, blocks)))
    for start, stop in blocks:
        Xb = X[:, :stop - start]
        np.matmul(Mt, B[:, start:stop], out=Xb)
        np.einsum("ij,ij->j", Xb, Xb, out=tau[start:stop])
    with np.errstate(over="ignore"):
        v *= v
    tau *= v
    return tau


def _stacked_r(B: np.ndarray, v: np.ndarray, X: np.ndarray, blocks) -> np.ndarray:
    """A d x (blocks * d) matrix S with S S^T = Y Y^T for Y = B diag(v).

    S = [R_1^T R_2^T ...] from the triangular factor R_b of a QR of each
    block's Y_b^T, formed in the work buffer X (the first level of TSQR), so
    the QR of S^T has the triangular factor of Y^T.
    """
    factors = []
    with np.errstate(all="ignore"):
        for start, stop in blocks:
            Xb = X[:, :stop - start]
            np.multiply(B[:, start:stop], v[start:stop], out=Xb)
            factors.append(np.linalg.qr(Xb.T, mode="r").T)
    return np.hstack(factors)


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


def uniformity_report(A, p: float, lw: LewisWeights) -> UniformityReport:
    """Check that leverage non-uniformity is at most alpha^(4/p - 1), to a relative 1e-6."""
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
        ok=alpha_lev <= bound * (1.0 + 1e-6),
    )


def _nonuniformity(values: np.ndarray, target: float) -> float:
    v = values[values > 0]
    if v.size == 0:
        return math.inf
    return float(max(np.max(v / target), np.max(target / v)))
