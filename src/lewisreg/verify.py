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

Every battery and ascent point lies on a line r + t A eta in residual space.
The images A eta are formed IMAGE_BLOCK directions at a time, the sketched
images are gathered from each block, and a block is reduced and released
before the next is formed, so memory does not grow with the number of
directions. `_line_losses` sums each line's points along contiguous rows with
ufuncs only, so no loss depends on the other points of a call, on the block
it came in or on the BLAS thread count.
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
from .solvers import _duality_gap

# Direction images are formed this many directions at a time. A block never
# has fewer than _MIN_IMAGE_ROWS rows (the last absorbs a short remainder):
# numpy sends a one-row product to gemv, which rounds differently from gemm,
# while gemm blocks of 4 to 32 rows give the bits of one product of all rows.
IMAGE_BLOCK = 8
_MIN_IMAGE_ROWS = 4

# cross_term_check takes labels as centered at the minimizer when beta = 0 is
# optimal for them to this relative duality gap, the solvers' default
# tolerance. A relative gap g allows a relative gradient of order sqrt(g), so
# the gradient is reported, not tested against a limit of its own.
_CENTERING_GAP = 1e-8


@dataclass(frozen=True)
class BetaSample:
    """How to sample candidate beta for the empirical suprema."""

    directions: int = 40
    seed: int = 0
    ascent_rounds: int = 80


@dataclass(frozen=True)
class RucTrial:
    delta_value: float           # L(beta*) - Ltilde(beta*)
    max_rel_violation: float     # corrected, over the beta battery
    max_uncorrected: float       # |Ltilde - L| / L, same battery
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


def _image_blocks(dirs, A, rows):
    """Yield (start, D, D_s) over consecutive blocks of the rows of `dirs`.

    D = dirs[start:start + len(D)] @ A.T and D_s = D[:, rows]. The generator
    forms a block only when it is asked for it.
    """
    count = dirs.shape[0]
    start = 0
    while start < count:
        stop = start + IMAGE_BLOCK
        if count - stop < _MIN_IMAGE_ROWS:
            stop = count
        D = dirs[start:stop] @ A.T
        yield start, D, D.take(rows, axis=1)
        start = stop


def _violations(L, Lt, L_star, Lt_star):
    """Corrected and uncorrected relative violations, zero where L is not positive."""
    good = L > 0
    corrected = np.zeros(L.size)
    uncorrected = np.zeros(L.size)
    corrected[good] = np.abs((Lt[good] - Lt_star) - (L[good] - L_star)) / L[good]
    uncorrected[good] = np.abs(Lt[good] - L[good]) / L[good]
    return corrected, uncorrected


def _line_losses(r0, D, T, p, s=None) -> np.ndarray:
    """sum_i s_i |r0_i + t D[k, i]|^p for every t in row k of T, for every row k of D.

    s=None is s = 1, and r0 may be a scalar. Each line's points form one
    contiguous block, so a value equals the 1-D form
    `np.sum(s * np.abs(r0 + t * D[k]) ** p)` bit for bit, whatever else
    the call holds.
    """
    out = np.empty(T.shape)
    R = np.empty((T.shape[1], D.shape[1]))
    for k, t in enumerate(T):
        np.multiply(t[:, None], D[k], out=R)
        R += r0
        out[k] = _row_losses(R, p, s)
    return out


def _row_losses(R, p, s=None) -> np.ndarray:
    """sum_i s_i |R[k, i]|^p for every row k of the C-contiguous R, overwritten.

    R is taken to |R|^p in place and reduced along its rows by ufuncs only, so
    each value is numpy's pairwise sum of its own row, and no BLAS routine
    (nor its thread count) takes part.
    """
    np.abs(R, out=R)
    if p != 1.0:
        np.power(R, p, out=R)
    if s is not None:
        R *= s
    return R.sum(axis=1)


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
    |Ltilde(b) - L(b)| / L(b) over the same battery: b* and, along each sampled
    direction eta with A eta != 0, the b* + t eta with ||t A eta||_p^p equal to
    `default_radii(eps, delta)` times L(b*), whose residuals are A b* - y + t A eta.
    """
    _check_unit_interval("eps", eps)
    _check_unit_interval("delta", delta)
    A = instance.A
    p = instance.p
    y = instance.reveal_hidden_labels()
    beta_star = as_vector(beta_star, "beta_star")
    rows, w_s = sketch.indices, sketch.weights

    r0 = A @ beta_star - y
    r0_s = r0[rows]
    L_star = float(np.sum(np.abs(r0) ** p))
    Lt_star = float(np.sum(w_s * np.abs(r0_s) ** p))
    scale = np.asarray(default_radii(eps, delta)) * (L_star if L_star > 0 else 1.0)
    # b* is battery point 0. Its losses are L_star and Lt_star themselves, so
    # the violation at b* vanishes identically rather than to rounding.
    corrected, uncorrected = _violations(np.array([L_star]), np.array([Lt_star]),
                                         L_star, Lt_star)
    best = corrected[0]
    top_uncorrected = uncorrected[0]
    evaluated = 1
    x0, r, r_s = beta_star, r0, r0_s
    dirs = _unit_directions(rng.derive(betas.seed, 0xBE), betas.directions, A.shape[1])
    for start, D, D_s in _image_blocks(dirs, A, rows):
        energy = _line_losses(0.0, D, np.ones((D.shape[0], 1)), p)[:, 0]
        kept = np.flatnonzero(energy > 0)
        if kept.size == 0:
            continue
        if kept.size < energy.size:
            D, D_s, energy = D[kept], D_s[kept], energy[kept]
        T = (scale / energy[:, None]) ** (1.0 / p)
        L = _line_losses(r0, D, T, p).ravel()
        corrected, uncorrected = _violations(L, _line_losses(r0_s, D_s, T, p, w_s).ravel(),
                                             L_star, Lt_star)
        evaluated += L.size
        top_uncorrected = np.maximum(top_uncorrected, np.max(uncorrected))
        # The first worst point of the whole battery, NaN first as np.argmax takes it.
        i = int(np.argmax(corrected))
        if corrected[i] > best or (np.isnan(corrected[i]) and not np.isnan(best)):
            best = corrected[i]
            k, j = divmod(i, T.shape[1])
            t = T[k, j]
            x0 = beta_star + t * dirs[start + kept[k]]
            r, r_s = t * D[k] + r0, t * D_s[k] + r0_s
    D = D_s = None   # release the last block before the climb forms its own
    dirs = _unit_directions(rng.derive(betas.seed, 0xAC), betas.ascent_rounds, A.shape[1])
    refined = _ruc_climb(r, r_s, _image_blocks(dirs, A, rows), w_s, p, L_star, Lt_star,
                         float(best), 0.5 * max(np.linalg.norm(x0), 1.0))
    return RucTrial(
        delta_value=L_star - Lt_star,
        max_rel_violation=max(float(best), refined),
        max_uncorrected=float(top_uncorrected),
        betas_evaluated=evaluated,
    )


def _ruc_climb(r, r_s, blocks, w_s, p, L_star, Lt_star, best, step) -> float:
    """Greedy hill climb of the corrected violation along the unit directions' images.

    r and r_s are the full and sketched residuals at the start, `best` their
    violation, and `blocks` yields the images D and D_s of consecutive blocks
    of directions under A and A_s (see `_image_blocks`), so a block is formed
    only once the climb reaches it. Each round tries +step then -step along
    one direction, keeps the first improvement, and otherwise shrinks the step
    by 0.7, stopping once it falls below 1e-12.
    """
    for _, D, D_s in blocks:
        for k in range(D.shape[0]):
            for c in (step, -step):
                T = np.full((1, 1), c)
                Lb = float(_line_losses(r, D[k:k + 1], T, p)[0, 0])
                if Lb <= 0:
                    continue
                Ltb = float(_line_losses(r_s, D_s[k:k + 1], T, p, w_s)[0, 0])
                val = abs((Ltb - Lt_star) - (Lb - L_star)) / Lb
                if val > best:
                    # The same sums `_line_losses` formed, so val stays exact.
                    best, r, r_s = val, c * D[k] + r, c * D_s[k] + r_s
                    break
            else:
                step *= 0.7
                if step < 1e-12:
                    return float(best)
    return float(best)


def embedding_check(
    A, sketch: Sketch, p: float, eps: float, directions: int = 200, seed: int = 0
) -> EmbedReport:
    """max over sampled unit beta of | ||SA beta||_p^p / ||A beta||_p^p - 1 |.

    The images A beta are formed in blocks of IMAGE_BLOCK directions, the
    sketched ones are gathered from each block, and both are reduced in place
    as `_line_losses` reduces a line before the next block is formed.
    """
    if not 1.0 <= p <= 2.0:
        raise ValueError(f"p must be in [1, 2], got {p}")
    _check_unit_interval("eps", eps)
    A = as_matrix(A)
    dirs = _unit_directions(rng.derive(seed, 0xE3), directions, A.shape[1])
    sk = np.empty(dirs.shape[0])
    full = np.empty(dirs.shape[0])
    for start, D, D_s in _image_blocks(dirs, A, sketch.indices):
        sk[start:start + D.shape[0]] = _row_losses(D_s, p, sketch.weights)
        full[start:start + D.shape[0]] = _row_losses(D, p)
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
) -> CrossTermReport:
    """Bound the first-order cross term sum_i s_i p |y_i|^(p-1) sign(y_i) a_i^T beta.

    Requires y_centered to be the residual at the full-data minimizer so the
    unweighted cross term vanishes identically: the duality gap of beta = 0
    on these labels, the solvers' certificate, must be at most
    `_CENTERING_GAP`. The weighted one is v^T beta for a fixed v, so its
    normalized supremum is the exact sup_beta |v^T beta|^p / ||A beta||_p^p,
    solved as a constrained Lp regression.
    """
    if not 1.0 < p < 2.0:
        raise ValueError(f"p must be in (1, 2), got {p}")
    A = as_matrix(A)
    y = as_vector(y_centered, "y_centered")
    psi = p * np.abs(y) ** (p - 1.0) * np.sign(y)
    # At beta = 0 the residual is -y, whose loss gradient is -psi.
    gap = _duality_gap(A, y, np.ones(y.size), p, np.zeros(A.shape[1]), -psi)[0]
    if gap > _CENTERING_GAP:
        raise ValueError(f"labels are not centered at the minimizer: duality gap {gap:.2e}")
    grad = A.T @ psi
    scale = float(np.sum(np.abs(psi) * np.linalg.norm(A, axis=1)))
    rel = float(np.linalg.norm(grad) / scale) if scale > 0 else 0.0
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
    u = rng.uniform_array(rng.derive(seed, 0x7A), np.arange(samples, dtype=np.uint64), 0)
    mag = np.empty(samples)
    mag[:half] = 10.0 ** (-9.0 + 18.0 * u[:half])        # wide sweep
    mag[half:] = 10.0 ** (-1.0 + 2.0 * u[half:])         # dense near the peak
    signs = np.where(
        rng.uniform_array(rng.derive(seed, 0x7B), np.arange(samples, dtype=np.uint64), 0)
        < 0.5,
        -1.0, 1.0,
    )
    t = signs * mag
    ratios = taylor_remainder_ratio(t, p)
    k = int(np.argmax(ratios))
    return TaylorReport(p=p, samples=samples, sup_ratio=float(ratios[k]),
                        argmax_t=float(t[k]))
