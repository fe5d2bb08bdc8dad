"""Benchmark instance families and the biased-label hardness experiment."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .oracle import RegressionInstance

# seed namespaces so a single experiment seed cannot alias sub-generators
_NS_MATRIX = 0x11
_NS_BETA = 0x22
_NS_NOISE = 0x33
_NS_OUTLIER = 0x44
_NS_LABELS = 0x55
_NS_COIN = 0x66

# The coin game draws about this many label uniforms per block.
_COIN_BLOCK = 1 << 22


@dataclass(frozen=True)
class GeneratedInstance:
    instance: RegressionInstance
    beta0: np.ndarray
    outlier_rows: np.ndarray
    family: str
    seed: int


def gen_random(
    n: int,
    d: int,
    noise_std: float = 1.0,
    n_outliers: int = 0,
    outlier_scale: float = 1e4,
    heavy_row_scale: float | None = None,
    p: float = 1.0,
    seed: int = 0,
) -> GeneratedInstance:
    """i.i.d. standard normal A with y = A beta0 + noise and planted outliers.

    Outlier entries are replaced by +-outlier_scale times the noise scale at
    rows drawn uniformly (which, for this family, are never rows a Lewis plan
    would clamp to probability 1). `heavy_row_scale` inflates row 0 to build
    the coherent variant.

    A is one C-contiguous array drawn a block of rows at a time, and the noise
    is added to y one `rng.DRAW_BLOCK` block at a time, so besides A and y
    the draw holds only block-sized buffers.
    """
    if n < d:
        raise ValueError("need n >= d")
    A = rng.normal_matrix(rng.derive(seed, _NS_MATRIX), n, d)
    if heavy_row_scale is not None:
        A[0] *= heavy_row_scale
    beta0 = rng.normal_array(rng.derive(seed, _NS_BETA), np.arange(1), d)[0]
    y = A @ beta0
    if noise_std > 0:
        noise_seed = rng.derive(seed, _NS_NOISE)
        for start in range(0, n, rng.DRAW_BLOCK):
            stop = min(start + rng.DRAW_BLOCK, n)
            z = rng.normal_array(noise_seed, np.arange(start, stop, dtype=np.uint64), 1)
            z *= noise_std
            y[start:stop] += z[:, 0]
    out_rows = np.array([], dtype=np.int64)
    if n_outliers > 0:
        mag = outlier_scale * (noise_std if noise_std > 0 else 1.0)
        out_seed = rng.derive(seed, _NS_OUTLIER)
        out_rows = rng.choose_prefix(out_seed, n, n_outliers)
        signs = np.where(
            rng.uniform_array(out_seed, np.arange(n, n + n_outliers, dtype=np.uint64), 0)
            < 0.5,
            -1.0, 1.0,
        )
        y[out_rows] = signs * mag
    return GeneratedInstance(
        instance=RegressionInstance(A, y, p),
        beta0=beta0,
        outlier_rows=out_rows,
        family="random",
        seed=seed,
    )


@dataclass(frozen=True)
class LowerBoundInstance:
    n: int
    d: int
    eps: float
    b: np.ndarray              # hidden sign vector in {+-1}^d
    instance: RegressionInstance


def gen_lower_bound(
    n: int, d: int, eps: float, b=None, seed: int = 0
) -> LowerBoundInstance:
    """Block design: n/d copies of each canonical basis row, biased +-1 labels.

    Block j's labels are i.i.d. +1 with probability 1/2 + b_j * eps, so the
    full problem separates into d independent one-dimensional subproblems.
    """
    if n % d != 0:
        raise ValueError(f"d={d} must divide n={n}")
    if not 0.0 < eps <= 0.5:
        raise ValueError(f"eps must be in (0, 0.5], got {eps}")
    block = n // d
    if b is None:
        u = rng.uniform_array(rng.derive(seed, _NS_BETA), np.arange(d, dtype=np.uint64), 0)
        b = np.where(u < 0.5, -1.0, 1.0)
    else:
        b = np.asarray(b, dtype=np.float64)
        if b.shape != (d,) or not np.all(np.abs(b) == 1.0):
            raise ValueError("b must be a +-1 vector of length d")
    A = np.repeat(np.eye(d), block, axis=0)
    probs = np.repeat(0.5 + b * eps, block)
    u = rng.uniform_array(rng.derive(seed, _NS_LABELS), np.arange(n, dtype=np.uint64), 0)
    y = np.where(u < probs, 1.0, -1.0)
    return LowerBoundInstance(
        n=n, d=d, eps=eps, b=b, instance=RegressionInstance(A, y, 1.0)
    )


def sign_recovery_experiment(
    n_prime: int,
    eps: float,
    m_queries: int,
    trials: int,
    seed: int = 0,
) -> float:
    """Win rate of majority-of-m-uniform-queries against the biased label coin.

    Each trial hides a uniformly random sign alpha, draws the queried labels
    i.i.d. +1 with probability 1/2 + alpha*eps, and guesses the majority sign
    (a fair coin on ties and for m = 0). Returns the fraction of correct
    guesses over `trials`.
    """
    if m_queries > n_prime:
        raise ValueError("cannot query more labels than exist")
    if not 0.0 < eps <= 0.5:
        raise ValueError(f"eps must be in (0, 0.5], got {eps}")
    coin_seed = rng.derive(seed, _NS_COIN)
    alpha = np.where(
        rng.uniform_array(coin_seed, np.arange(trials, dtype=np.uint64), 0) < 0.5,
        -1.0, 1.0,
    )
    probs = 0.5 + alpha * eps
    counts = np.zeros(trials, dtype=np.int64)
    label_seed = rng.derive(seed, _NS_LABELS)
    cols_per_block = max(1, _COIN_BLOCK // max(trials, 1))
    streams = np.arange(trials, dtype=np.uint64)[:, None]
    start = 0
    while start < m_queries:
        width = min(cols_per_block, m_queries - start)
        counters = np.arange(start, start + width, dtype=np.uint64)[None, :]
        u = rng.uniform_array(label_seed, streams, counters)
        counts += np.sum(u < probs[:, None], axis=1)
        start += width
    minority = m_queries - counts
    guess = np.where(counts > minority, 1.0, -1.0)
    ties = counts == minority
    if ties.any():
        flip = rng.uniform_array(rng.derive(seed, _NS_COIN, 1),
                                 np.arange(trials, dtype=np.uint64)[ties], 0)
        guess[ties] = np.where(flip < 0.5, -1.0, 1.0)
    return float(np.mean(guess == alpha))


def per_block_solve(lb: LowerBoundInstance) -> np.ndarray:
    """Exact per-block minimizers (weighted medians) of the separable L1 loss."""
    y = lb.instance.reveal_hidden_labels()
    block = lb.n // lb.d
    out = np.empty(lb.d)
    for j in range(lb.d):
        seg = np.sort(y[j * block:(j + 1) * block])
        k = int(math.ceil(block / 2)) - 1
        out[j] = seg[k]
    return out
