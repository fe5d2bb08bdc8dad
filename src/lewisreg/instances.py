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

    Each trial hides a uniformly random sign alpha and guesses the majority
    sign of m labels that are +1 with probability 1/2 + alpha*eps (a fair
    coin on ties and for m = 0). The guess reads only the count of +1s, so
    each trial draws that Binomial count from one uniform by exact inversion.
    Returns the fraction of correct guesses, and nan for zero trials.
    """
    if trials < 0 or not 0 <= m_queries <= n_prime:
        raise ValueError(f"need trials >= 0 and 0 <= m_queries <= n_prime={n_prime}, "
                         f"got trials={trials}, m_queries={m_queries}")
    if not 0.0 < eps < 0.5:
        raise ValueError(f"eps must be in (0, 0.5), got {eps}")
    streams = np.arange(trials, dtype=np.uint64)
    alpha = np.where(rng.uniform_array(rng.derive(seed, _NS_COIN), streams, 0) < 0.5,
                     -1.0, 1.0)
    u = rng.uniform_array(rng.derive(seed, _NS_LABELS), streams, 0)
    counts = _binomial_inverse(u, m_queries, 0.5 + alpha * eps)
    minority = m_queries - counts
    guess = np.where(counts > minority, 1.0, -1.0)
    ties = counts == minority
    flip = rng.uniform_array(rng.derive(seed, _NS_COIN, 1), streams[ties], 0)
    guess[ties] = np.where(flip < 0.5, -1.0, 1.0)
    return float(np.mean(guess == alpha)) if trials else math.nan


def _binomial_inverse(u: np.ndarray, m: int, q: np.ndarray) -> np.ndarray:
    """Binomial(m, q) counts: the smallest k with CDF(k) >= u, for u on the 2^-53 grid.

    Above u = 1/2 the mirrored coin is inverted at 1 - u (CDF(k) > u: the same
    count unless u is a CDF value), so each tail keeps its relative accuracy.
    The ceiling of `bdtrik` is the count or one above it, which one `bdtr` test
    on k - 1 settles; each count is then certified, so a failed inversion raises.
    """
    from scipy.special import bdtr, bdtrik  # not loaded by `import lewisreg`

    upper = u > 0.5
    v = np.where(upper, 1.0 - u, u)
    r = np.where(upper, 1.0 - q, q)
    # with v = 0 or no labels the count is 0 (bdtrik is unreliable or nan there)
    k = np.clip(np.where((v > 0) & (m > 0), np.ceil(bdtrik(v, m, r)), 0.0), 0, m)
    k -= bdtr(k - 1, m, r) >= v
    # CDF(k - 1) < v <= CDF(k); bdtr is nan at k = -1 and for a non-finite k
    if not np.all((bdtr(k, m, r) >= v) & ~(bdtr(k - 1, m, r) >= v)):
        raise FloatingPointError("binomial inversion failed its CDF check")
    return np.where(upper, m - k, k).astype(np.int64)


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
