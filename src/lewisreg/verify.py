"""Empirical certification of the sampling guarantees.

The RUC and embedding checks approximate suprema over beta by structured
sampling: random directions crossed with a radius grid that covers the three
regimes where the loss difference behaves differently (small, intermediate,
and dominant ||A(beta - beta*)|| relative to the optimal loss), plus a local
ascent from the worst sampled point. The cross term is linear in beta, so its
normalized supremum is computed exactly, as the importance weight of a
vector (see `lewis`). All of it is harness instrumentation: computing the
full-data minimizer and reading all labels is allowed here, never in the
query-limited solve path.

Battery losses are computed a few megabytes of residual columns at a time,
each block taken to |.|^p in place. The RUC ascent moves along fixed
directions, so their images under A and A_s are computed once per trial and
each candidate is scored from the carried residual vectors, with no mat-vec.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import DegenerateMatrixError
from .lewis import _sup_ratio
from .linalg import as_matrix, as_vector, lp_norm, matrix_rank_cutoff
from .oracle import RegressionInstance
from .sampling import Sketch


@dataclass(frozen=True)
class BetaSample:
    """How to sample candidate beta for the empirical suprema."""

    directions: int = 40
    seed: int = 0
    radii: tuple | None = None   # multipliers of L(beta*) on the p-power scale
    ascent_rounds: int = 80


@dataclass(frozen=True)
class RucTrial:
    delta_value: float           # L(beta*) - Ltilde(beta*)
    max_rel_violation: float     # corrected, over the beta battery
    max_uncorrected: float       # |Ltilde - L| / L, same battery
    violation_at_star: float
    betas_evaluated: int


@dataclass(frozen=True)
class EmbedReport:
    p: float
    directions: int
    max_ratio_dev: float
    passed: bool


@dataclass(frozen=True)
class CrossTermReport:
    p: float
    max_ratio: float             # max_beta cross / (||A beta||_p ||y||_p^(p-1))
    reference: float | None      # sqrt(gamma d^(2/p) / (delta m)) when m given
    fitted_c: float | None
    precondition_residual: float


@dataclass(frozen=True)
class TaylorReport:
    p: float
    samples: int
    sup_ratio: float
    argmax_t: float


# `_loss_batch` holds one block of residual columns at a time, about
# _BLOCK_BYTES (32 columns at n = 20 000), small enough to stay near the cache.
# BLAS kernels compute columns in groups of up to _BLOCK_ALIGN, so block
# widths that are multiples of it round every column the same way.
_BLOCK_BYTES = 5 << 20
_BLOCK_ALIGN = 16


def default_radii(eps: float, delta: float) -> tuple:
    """Radius grid covering the three regimes of the loss-difference argument."""
    edge = 25.0 / (eps * delta)
    inner = (0.25, 1.0, 2.9)
    middle = tuple(np.geomspace(3.2, 0.96 * edge, 5))
    outer = (1.5 * edge, 5.0 * edge)
    return inner + middle + outer


def _unit_directions(seed: int, count: int, d: int) -> np.ndarray:
    """The nonzero rows of a seeded Gaussian (count, d) draw, scaled to unit length."""
    dirs = rng.normal_matrix(seed, count, d)
    norms = np.linalg.norm(dirs, axis=1)
    return dirs[norms > 0] / norms[norms > 0, None]


def _beta_battery(A, beta_star, L_star, p, spec: BetaSample, eps, delta) -> np.ndarray:
    dirs = _unit_directions(rng.derive(spec.seed, 0xBE), spec.directions, A.shape[1])
    radii = spec.radii if spec.radii is not None else default_radii(eps, delta)
    base = L_star if L_star > 0 else 1.0
    rows = [beta_star[None, :]]
    for eta in dirs:
        energy = lp_norm(A @ eta, p) ** p
        if energy == 0:
            continue
        t = (np.asarray(radii) * base / energy) ** (1.0 / p)
        rows.append(beta_star[None, :] + t[:, None] * eta[None, :])
    return np.vstack(rows)


def _block_columns(n: int) -> int:
    """Battery columns per block of `_loss_batch` for n rows."""
    return max(_BLOCK_ALIGN, _BLOCK_BYTES // (8 * n) // _BLOCK_ALIGN * _BLOCK_ALIGN)


def _loss_batch(A, y, betas, p, s=None) -> np.ndarray:
    """L(beta) (or the s-weighted loss) for every row of `betas`; y=None is y = 0.

    With one BLAS thread a column's value does not depend on the block width,
    since widths are multiples of _BLOCK_ALIGN. A last block of one column
    joins the one before it, because numpy computes a lone column by other
    routines (a mat-vec and a pairwise sum) that round differently.
    """
    k = betas.shape[0]
    cols = _block_columns(A.shape[0])
    out = np.empty(k)
    lo = 0
    while lo < k:
        hi = lo + cols if k - lo > cols + 1 else k
        R = A @ betas[lo:hi].T
        if y is not None:
            R -= y[:, None]
        np.abs(R, out=R)
        if p != 1.0:
            np.power(R, p, out=R)
        out[lo:hi] = (s @ R) if s is not None else R.sum(axis=0)
        lo = hi
    return out


def _check_unit_interval(name: str, value: float) -> None:
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must be in (0, 1), got {value}")


def ruc_check(
    instance: RegressionInstance,
    sketch: Sketch,
    beta_star,
    betas: BetaSample = BetaSample(),
    eps: float = 0.25,
    delta: float = 0.1,
) -> RucTrial:
    """One-trial robust uniform convergence audit for a realized sketch.

    Records the corrected violation |(Ltilde(b) - Ltilde(b*)) - (L(b) - L(b*))| / L(b)
    maximized over the battery plus a local ascent, and the uncorrected
    |Ltilde(b) - L(b)| / L(b) over the same battery.
    """
    _check_unit_interval("eps", eps)
    _check_unit_interval("delta", delta)
    A = instance.A
    p = instance.p
    y = instance.reveal_hidden_labels()
    beta_star = as_vector(beta_star, "beta_star")
    A_s = A[sketch.indices]
    y_s = y[sketch.indices]
    w_s = sketch.weights

    radius_scale = float(np.sum(np.abs(A @ beta_star - y) ** p))
    B = _beta_battery(A, beta_star, radius_scale, p, betas, eps, delta)
    L = _loss_batch(A, y, B, p)
    Lt = _loss_batch(A_s, y_s, B, p, s=w_s)
    # beta* is battery row 0; using the batched values for the reference makes
    # the violation at beta* vanish identically rather than to rounding.
    L_star = float(L[0])
    Lt_star = float(Lt[0])
    delta_corr = L_star - Lt_star
    good = L > 0
    corrected = np.zeros(B.shape[0])
    uncorrected = np.zeros(B.shape[0])
    corrected[good] = np.abs((Lt[good] - Lt_star) - (L[good] - L_star)) / L[good]
    uncorrected[good] = np.abs(Lt[good] - L[good]) / L[good]

    worst = int(np.argmax(corrected))
    dirs = _unit_directions(rng.derive(betas.seed, 0xAC), betas.ascent_rounds, A.shape[1])
    x0 = B[worst]
    refined = _ruc_climb(
        A @ x0 - y, dirs @ A.T, A_s @ x0 - y_s, dirs @ A_s.T, w_s, p,
        L_star, Lt_star, 0.5 * max(np.linalg.norm(x0), 1.0),
    )
    return RucTrial(
        delta_value=delta_corr,
        max_rel_violation=max(float(np.max(corrected)), refined),
        max_uncorrected=float(np.max(uncorrected)),
        violation_at_star=float(corrected[0]),
        betas_evaluated=B.shape[0],
    )


def _ruc_climb(r, D, r_s, D_s, w_s, p, L_star, Lt_star, step) -> float:
    """Greedy hill climb of the corrected violation along the rows of D and D_s.

    r and r_s are the full and sketched residuals at the start, D and D_s the
    images of the unit directions under A and A_s. Each round tries +step
    then -step along one direction, keeps the first improvement, and
    otherwise shrinks the step by 0.7, stopping once it falls below 1e-12.
    """

    def score(r, r_s) -> float:
        Lb = _residual_loss(r, p)
        if Lb <= 0:
            return 0.0
        Ltb = _residual_loss(r_s, p, w_s)
        return abs((Ltb - Lt_star) - (Lb - L_star)) / Lb

    best = score(r, r_s)
    for k in range(D.shape[0]):
        improved = False
        for sign in (1.0, -1.0):
            c = sign * step
            cand, cand_s = r + c * D[k], r_s + c * D_s[k]
            val = score(cand, cand_s)
            if val > best:
                best, r, r_s = val, cand, cand_s
                improved = True
                break
        if not improved:
            step *= 0.7
            if step < 1e-12:
                break
    return float(best)


def _residual_loss(r, p, s=None) -> float:
    R = np.abs(r)
    if p != 1.0:
        np.power(R, p, out=R)
    return float(R.sum() if s is None else s @ R)


def embedding_check(
    A, sketch: Sketch, p: float, eps: float, directions: int = 200, seed: int = 0
) -> EmbedReport:
    """max over sampled unit beta of | ||SA beta||_p^p / ||A beta||_p^p - 1 |."""
    if not 1.0 <= p <= 2.0:
        raise ValueError(f"p must be in [1, 2], got {p}")
    _check_unit_interval("eps", eps)
    A = as_matrix(A)
    dirs = _unit_directions(rng.derive(seed, 0xE3), directions, A.shape[1])
    full = _loss_batch(A, None, dirs, p)
    sk = _loss_batch(A[sketch.indices], None, dirs, p, s=sketch.weights)
    good = full > 0
    dev = float(np.max(np.abs(sk[good] / full[good] - 1.0))) if good.any() else 0.0
    return EmbedReport(p=p, directions=int(good.sum()), max_ratio_dev=dev,
                       passed=dev <= eps)


def cross_term_check(
    A,
    y_centered,
    sketch: Sketch,
    p: float,
    m: float | None = None,
    gamma: float = 1.0,
    delta: float = 0.1,
    precondition_tol: float = 1e-6,
) -> CrossTermReport:
    """Bound the first-order cross term sum_i s_i p |y_i|^(p-1) sign(y_i) a_i^T beta.

    Requires y_centered to be the residual at the full-data minimizer so the
    unweighted cross term vanishes identically. The weighted one is v^T beta
    for a fixed v, so its normalized supremum is the exact
    sup_beta |v^T beta|^p / ||A beta||_p^p, solved as a constrained Lp
    regression.
    """
    if not 1.0 < p < 2.0:
        raise ValueError(f"p must be in (1, 2), got {p}")
    A = as_matrix(A)
    y = as_vector(y_centered, "y_centered")
    psi = p * np.abs(y) ** (p - 1.0) * np.sign(y)
    grad = A.T @ psi
    scale = float(np.sum(np.abs(psi) * np.linalg.norm(A, axis=1)))
    rel = float(np.linalg.norm(grad) / scale) if scale > 0 else 0.0
    if rel > precondition_tol:
        raise ValueError(
            f"labels are not centered at the minimizer: gradient residual {rel:.2e}"
        )
    v = A[sketch.indices].T @ (sketch.weights * psi[sketch.indices])
    y_norm = lp_norm(y, p)
    if y_norm == 0 or not np.any(v):
        max_ratio = 0.0
    elif matrix_rank_cutoff(A) < A.shape[1]:
        raise DegenerateMatrixError(f"rank-deficient matrix: need rank {A.shape[1]}")
    else:
        max_ratio = _sup_ratio(A, v, p) ** (1.0 / p) / y_norm ** (p - 1.0)
    reference = None
    fitted = None
    if m is not None and m > 0:
        d = A.shape[1]
        reference = math.sqrt(gamma * d ** (2.0 / p) / (delta * m))
        fitted = max_ratio / reference
    return CrossTermReport(p=p, max_ratio=float(max_ratio), reference=reference,
                           fitted_c=fitted, precondition_residual=rel)


def taylor_remainder_ratio(t, p: float):
    """|  |1-t|^p - 1 + p t  | / |t|^p, evaluated without catastrophic cancellation.

    This is the scale-free form of the remainder |a-b|^p - |a|^p + p|a|^(p-1)
    sign(a) b with t = b/a (both sides scale by |a|^p). Small |t| uses the
    binomial series, the mid range uses expm1/log1p, large |t| is direct.
    """
    if not 1.0 < p <= 2.0:
        raise ValueError(f"p must be in (1, 2], got {p}")
    t = np.asarray(t, dtype=np.float64)
    at = np.abs(t)
    g = np.zeros_like(t)
    c2 = p * (p - 1.0) / 2.0
    c3 = -p * (p - 1.0) * (p - 2.0) / 6.0
    c4 = p * (p - 1.0) * (p - 2.0) * (p - 3.0) / 24.0
    small = (at > 0) & (at <= 1e-4)
    mid = (at > 1e-4) & (at < 0.5)
    big = at >= 0.5
    ts = t[small]
    g[small] = ts * ts * (c2 + ts * (c3 + ts * c4))
    tm = t[mid]
    g[mid] = np.expm1(p * np.log1p(-tm)) + p * tm
    tb = t[big]
    g[big] = np.abs(1.0 - tb) ** p - 1.0 + p * tb
    out = np.zeros_like(t)
    nz = at > 0
    out[nz] = np.abs(g[nz]) / at[nz] ** p
    return out


def taylor_claim_check(p: float, samples: int = 10**6, seed: int = 0) -> TaylorReport:
    """Empirical sup of the remainder ratio over ratios b/a spanning all regimes."""
    half = samples // 2
    u = rng.uniform_array(rng.derive(seed, 0x7A),
                          np.arange(samples, dtype=np.uint64),
                          np.zeros(samples, dtype=np.uint64))
    mag = np.empty(samples)
    mag[:half] = 10.0 ** (-9.0 + 18.0 * u[:half])        # wide sweep
    mag[half:] = 10.0 ** (-1.0 + 2.0 * u[half:])         # dense near the peak
    signs = np.where(
        rng.uniform_array(rng.derive(seed, 0x7B),
                          np.arange(samples, dtype=np.uint64),
                          np.zeros(samples, dtype=np.uint64)) < 0.5,
        -1.0, 1.0,
    )
    t = signs * mag
    ratios = taylor_remainder_ratio(t, p)
    k = int(np.argmax(ratios))
    return TaylorReport(p=p, samples=samples, sup_ratio=float(ratios[k]),
                        argmax_t=float(t[k]))
