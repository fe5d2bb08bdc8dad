"""Dense matrix primitives: validation, leverage scores, norms, weighted losses."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMatrixError

# Singular values at or below RANK_CUTOFF * sigma_max count as zero. The
# package's one rank rule, `matrix_rank_cutoff(M) < d`: the Lewis iteration
# and the solvers apply it to the d x d triangular factor of the QR they
# already take, the importance weights and the cross-term check once to A.
RANK_CUTOFF = 1e-10


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


def matrix_rank_cutoff(A) -> int:
    """Rank of A under the package-wide relative singular value cutoff."""
    sv = np.linalg.svd(as_matrix(A), compute_uv=False)
    if sv.size == 0 or sv[0] <= 0.0:
        return 0
    return int(np.sum(sv > RANK_CUTOFF * sv[0]))
