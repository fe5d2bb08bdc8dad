"""Dense matrix primitives: validation, leverage scores, norms, weighted losses, TSQR."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMatrixError

# Singular values at or below RANK_CUTOFF * sigma_max count as zero. The
# package's one rank rule, `matrix_rank_cutoff(M) < d`: the Lewis iteration,
# the solvers and the cross-term check apply it to the d x d triangular
# factor of the QR they already take, the importance weights once to A.
RANK_CUTOFF = 1e-10

# Rows of an n x d matrix per block of the package's blocked kernels: the
# Lewis leverage kernel and its copy of A, `tsqr`, and the solvers' n x d
# reductions. A block of a 10-column matrix is 320 KB, so its temporaries
# stay in cache between a block's multiply and its product. Chosen by timing
# 1024 to 65536 rows of the leverage kernel on a 200 000 x 10 matrix, where
# 4096 and 8192 were fastest.
BLOCK = 4096


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return a finite float64 2-D array."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    # A finite sum needs every entry finite and takes no n x d mask; only a
    # sum that is not finite (a bad entry, or an overflow) runs the full test.
    with np.errstate(over="ignore"):
        total = m.sum()
    if not np.isfinite(total) and not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains NaN or Inf")
    return m


def as_vector(a, name: str = "vector") -> np.ndarray:
    """Validate and return a finite float64 1-D array."""
    v = np.asarray(a, dtype=np.float64).reshape(-1)
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains NaN or Inf")
    return v


@dataclass(frozen=True)
class LeverageScores:
    scores: np.ndarray
    rank: int


def leverage_scores(A) -> LeverageScores:
    """Per-row statistical leverage a_i^T (A^T A)^+ a_i via a rank-revealing SVD.

    Scores sum to rank(A); rank uses the RANK_CUTOFF relative threshold so
    degenerate inputs degrade gracefully instead of blowing up the Gram inverse.
    """
    A = as_matrix(A)
    U, sv, _ = np.linalg.svd(A, full_matrices=False)
    if sv.size == 0 or sv[0] <= 0.0:
        raise DegenerateMatrixError("all-zero matrix has no leverage scores")
    rank = int(np.sum(sv > RANK_CUTOFF * sv[0]))
    scores = np.einsum("ij,ij->i", U[:, :rank], U[:, :rank])
    np.clip(scores, 0.0, 1.0, out=scores)
    return LeverageScores(scores=scores, rank=rank)


def lp_norm(v, p: float) -> float:
    """(sum |v_i|^p)^(1/p) for p in [1, 2]; 0 for the zero vector."""
    if not 1.0 <= p <= 2.0:
        raise ValueError(f"p must be in [1, 2], got {p}")
    v = as_vector(v)
    m = np.max(np.abs(v)) if v.size else 0.0
    if m == 0.0:
        return 0.0
    # Factor out the max so huge entries cannot overflow under the power.
    return float(m * np.sum(np.abs(v / m) ** p) ** (1.0 / p))


def weighted_lp_loss(A, y, beta, s=None, p: float = 1.0) -> float:
    """sum_i s_i |a_i^T beta - y_i|^p; s=None means all-ones (the full loss)."""
    A = as_matrix(A)
    y = as_vector(y, "labels")
    beta = as_vector(beta, "beta")
    if A.shape[0] != y.size or A.shape[1] != beta.size:
        raise ValueError(
            f"dimension mismatch: A {A.shape}, y {y.size}, beta {beta.size}"
        )
    r = np.abs(A @ beta - y)
    if s is None:
        return float(np.sum(r**p))
    s = as_vector(s, "weights")
    if s.size != y.size:
        raise ValueError(f"dimension mismatch: weights {s.size}, rows {y.size}")
    if np.any(s < 0):
        raise ValueError("negative sample weight")
    return float(np.sum(s * r**p))


def row_blocks(n: int):
    """(start, stop) of consecutive blocks of at most BLOCK rows covering n rows."""
    return [(start, min(start + BLOCK, n)) for start in range(0, n, BLOCK)]


def tsqr(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A = QR with Q column-major n x k orthonormal and R k x d, k = min(n, d).

    TSQR (Demmel, Grigori, Hoemmen & Langou, SIAM J. Sci. Comput. 2012):
    each block of `BLOCK` rows is factored on its own into Q's rows, the
    stacked triangular factors once more, and each block's Q is multiplied
    by its slice of that second Q in place. Besides Q and R only block-sized
    arrays are allocated. R is the R of a Householder QR of A up to row
    signs, so it has A's singular values.
    """
    n, d = A.shape
    if n <= BLOCK:
        Q, R = np.linalg.qr(A)
        return np.asfortranarray(Q), R
    Q = np.empty((n, d), order="F")
    blocks = row_blocks(n)
    factors = []
    for start, stop in blocks:
        Qb, Rb = np.linalg.qr(A[start:stop])
        Q[start:stop, :Qb.shape[1]] = Qb
        factors.append(Rb)
    Qs, R = np.linalg.qr(np.vstack(factors))
    offset = 0
    for (start, stop), Rb in zip(blocks, factors):
        k = Rb.shape[0]
        Q[start:stop] = Q[start:stop, :k] @ Qs[offset:offset + k]
        offset += k
    return Q, R


def abs_matvec(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """|M| @ |v|, one block of `BLOCK` rows at a time, so |M| is never whole."""
    out = np.empty(M.shape[0])
    v = np.abs(v)
    for start, stop in row_blocks(M.shape[0]):
        np.matmul(np.abs(M[start:stop]), v, out=out[start:stop])
    return out


def matrix_rank_cutoff(A) -> int:
    """Rank of A under the package-wide relative singular value cutoff."""
    sv = np.linalg.svd(as_matrix(A), compute_uv=False)
    if sv.size == 0 or sv[0] <= 0.0:
        return 0
    return int(np.sum(sv > RANK_CUTOFF * sv[0]))
