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
The images A eta of a trial's directions come from one matrix product, and
the sketched images are gathered from them. `_line_losses` sums each line's
points along contiguous rows with ufuncs only, so no loss depends on the
other points of a call or on the BLAS thread count.
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
    the radii times L(b*), whose residuals are A b* - y + t A eta.
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
    dirs = _unit_directions(rng.derive(betas.seed, 0xBE), betas.directions, A.shape[1])
    # One product for all directions: a block of it can round a row differently.
    D = dirs @ A.T
    energy = _line_losses(0.0, D, np.ones((D.shape[0], 1)), p)[:, 0]
    keep = energy > 0
    if not keep.all():
        dirs, D, energy = dirs[keep], D[keep], energy[keep]
    radii = betas.radii if betas.radii is not None else default_radii(eps, delta)
    base = L_star if L_star > 0 else 1.0
    T = (np.asarray(radii) * base / energy[:, None]) ** (1.0 / p)
    D_s = D.take(rows, axis=1)
    # b* is battery row 0. Its losses are L_star and Lt_star themselves, so
    # the violation at b* vanishes identically rather than to rounding.
    L = np.concatenate(([L_star], _line_losses(r0, D, T, p).ravel()))
    Lt = np.concatenate(([Lt_star], _line_losses(r0_s, D_s, T, p, w_s).ravel()))
    good = L > 0
    corrected = np.zeros(L.size)
    uncorrected = np.zeros(L.size)
    corrected[good] = np.abs((Lt[good] - Lt_star) - (L[good] - L_star)) / L[good]
    uncorrected[good] = np.abs(Lt[good] - L[good]) / L[good]

    worst = int(np.argmax(corrected))
    x0, r, r_s = beta_star, r0, r0_s
    if worst > 0:
        k, j = divmod(worst - 1, T.shape[1])
        t = T[k, j]
        x0, r, r_s = beta_star + t * dirs[k], t * D[k] + r0, t * D_s[k] + r0_s
    del D, D_s
    dirs = _unit_directions(rng.derive(betas.seed, 0xAC), betas.ascent_rounds, A.shape[1])
    D = dirs @ A.T
    refined = _ruc_climb(r, D, r_s, D.take(rows, axis=1), w_s, p, L_star, Lt_star,
                         float(corrected[worst]), 0.5 * max(np.linalg.norm(x0), 1.0))
    return RucTrial(
        delta_value=L_star - Lt_star,
        max_rel_violation=max(float(np.max(corrected)), refined),
        max_uncorrected=float(np.max(uncorrected)),
        violation_at_star=float(corrected[0]),
        betas_evaluated=L.size,
    )


def _ruc_climb(r, D, r_s, D_s, w_s, p, L_star, Lt_star, best, step) -> float:
    """Greedy hill climb of the corrected violation along the rows of D and D_s.

    r and r_s are the full and sketched residuals at the start, `best` their
    violation, and D and D_s the images of the unit directions under A and
    A_s. Each round tries +step then -step along one direction, keeps the
    first improvement, and otherwise shrinks the step by 0.7, stopping once
    it falls below 1e-12.
    """
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
                break
    return float(best)


def embedding_check(
    A, sketch: Sketch, p: float, eps: float, directions: int = 200, seed: int = 0
) -> EmbedReport:
    """max over sampled unit beta of | ||SA beta||_p^p / ||A beta||_p^p - 1 |.

    The images A beta come from one product, the sketched ones are gathered
    from it, and both are reduced in place as `_line_losses` reduces a line.
    """
    if not 1.0 <= p <= 2.0:
        raise ValueError(f"p must be in [1, 2], got {p}")
    _check_unit_interval("eps", eps)
    A = as_matrix(A)
    dirs = _unit_directions(rng.derive(seed, 0xE3), directions, A.shape[1])
    D = dirs @ A.T
    sk = _row_losses(D.take(sketch.indices, axis=1), p, sketch.weights)
    full = _row_losses(D, p)
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
