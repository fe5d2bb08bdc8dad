"""Portable counter-based random streams (splitmix64).

Every draw in this package is addressed by (seed, stream, counter). A stream
is typically a row index, so realizing a sampling plan in parallel, in any
row order, gives bit-identical output to the serial path. The generator is
plain 64-bit integer arithmetic (no platform-dependent state), pinned by the
test vectors in tests/test_rng.py.

Scalar helpers use Python ints; the `*_array` variants are vectorized numpy
uint64 implementations of the same arithmetic (wrapping is identical).
"""

from __future__ import annotations

import math

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_U_GOLDEN = np.uint64(_GOLDEN)
_U_MIX1 = np.uint64(_MIX1)
_U_MIX2 = np.uint64(_MIX2)

# Poisson rates at or above this use the scalar rejection sampler.
POISSON_INVERSION_CUTOFF = 30.0

# Per-row draws over many rows hash this many rows at a time, so their
# temporaries take one block of memory, not n.
DRAW_BLOCK = 16384


def mix64(z: int) -> int:
    """splitmix64 finalizer of a 64-bit integer."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _U_MIX1
    z = (z ^ (z >> np.uint64(27))) * _U_MIX2
    return z ^ (z >> np.uint64(31))


def raw(seed: int, stream: int, counter: int) -> int:
    """The 64-bit output at (seed, stream, counter)."""
    base = mix64((seed & _MASK) ^ (((stream + 1) * _GOLDEN) & _MASK))
    return mix64((base + ((counter + 1) * _GOLDEN)) & _MASK)


def uniform(seed: int, stream: int, counter: int) -> float:
    """One double in [0, 1) at (seed, stream, counter)."""
    return (raw(seed, stream, counter) >> 11) * 2.0 ** -53


def _stream_base_array(seed: int, streams: np.ndarray) -> np.ndarray:
    s = streams.astype(np.uint64, copy=False)
    return _mix64_array(np.uint64(seed & _MASK) ^ ((s + np.uint64(1)) * _U_GOLDEN))


def uniform_array(seed: int, streams: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """Vectorized `uniform`; `streams` and `counters` broadcast together."""
    base = _stream_base_array(seed, np.asarray(streams, dtype=np.uint64))
    c = np.asarray(counters, dtype=np.uint64)
    z = _mix64_array(base + (c + np.uint64(1)) * _U_GOLDEN)
    return (z >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


def derive(seed: int, *parts: int) -> int:
    """Fold integers into a seed to namespace independent sub-generators."""
    s = seed & _MASK
    for part in parts:
        s = mix64((s ^ mix64(part & _MASK)) + _GOLDEN)
    return s


class ScalarStream:
    """Sequential view of one (seed, stream) substream."""

    def __init__(self, seed: int, stream: int):
        self._base = mix64((seed & _MASK) ^ (((stream + 1) * _GOLDEN) & _MASK))
        self._k = 0

    def next_uniform(self) -> float:
        z = mix64((self._base + ((self._k + 1) * _GOLDEN)) & _MASK)
        self._k += 1
        return (z >> 11) * 2.0 ** -53


def normal_array(seed: int, streams: np.ndarray, count: int) -> np.ndarray:
    """`count` standard normals per stream (Box-Muller), shape (len(streams), count)."""
    streams = np.asarray(streams, dtype=np.uint64)
    pairs = (count + 1) // 2
    c = np.arange(2 * pairs, dtype=np.uint64)
    u = uniform_array(seed, streams[:, None], c[None, :])
    u1 = u[:, 0::2]
    u2 = u[:, 1::2]
    r = np.sqrt(-2.0 * np.log1p(-u1))
    theta = 2.0 * np.pi * u2
    z = np.empty((streams.size, 2 * pairs))
    z[:, 0::2] = r * np.cos(theta)
    z[:, 1::2] = r * np.sin(theta)
    return z[:, :count]


def normal_matrix(seed: int, rows: int, cols: int) -> np.ndarray:
    """Seeded (rows, cols) standard-normal matrix; row i is stream i."""
    return normal_array(seed, np.arange(rows, dtype=np.uint64), cols)


def choose_prefix(seed: int, n: int, m: int) -> np.ndarray:
    """m distinct indices from range(n) via a partial Fisher-Yates shuffle."""
    if not 0 <= m <= n:
        raise ValueError(f"cannot choose {m} of {n}")
    idx = np.arange(n, dtype=np.int64)
    for i in range(m):
        j = i + int(uniform(seed, i, 0) * (n - i))
        idx[i], idx[j] = idx[j], idx[i]
    return np.sort(idx[:m])


def _poisson_inversion_array(lam: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Exact Poisson counts by CDF inversion; requires lam < ~30 for accuracy."""
    k = np.zeros(lam.shape, dtype=np.int64)
    prob = np.exp(-lam)
    cdf = prob.copy()
    # Rows still below their uniform; most stop at k = 0, and each pass
    # touches only the rows left.
    active = np.flatnonzero(u >= cdf)
    # Terminates well before the cap: k stays within ~lam + O(sqrt(lam)).
    for _ in range(2000):
        if active.size == 0:
            break
        k[active] += 1
        prob[active] *= lam[active] / k[active]
        cdf[active] += prob[active]
        active = active[u[active] >= cdf[active]]
    return k


def _poisson_ptrs(lam: float, stream: ScalarStream) -> int:
    """Exact Poisson via Hormann's transformed rejection; for lam >= ~10."""
    b = 0.931 + 2.53 * math.sqrt(lam)
    a = -0.059 + 0.02483 * b
    inv_alpha = 1.1239 + 1.1328 / (b - 3.4)
    v_r = 0.9277 - 3.6224 / (b - 2.0)
    log_lam = math.log(lam)
    while True:
        u = stream.next_uniform() - 0.5
        v = stream.next_uniform()
        us = 0.5 - abs(u)
        k = math.floor((2.0 * a / us + b) * u + lam + 0.43)
        if us >= 0.07 and v <= v_r:
            return int(k)
        if k < 0 or (us < 0.013 and v > us):
            continue
        if math.log(v * inv_alpha / (a / (us * us) + b)) <= (
            k * log_lam - lam - math.lgamma(k + 1.0)
        ):
            return int(k)


def poisson_array(seed: int, rates: np.ndarray) -> np.ndarray:
    """Poisson counts, one per rate; rate i is drawn from stream i.

    Rates below POISSON_INVERSION_CUTOFF use single-uniform inversion
    (vectorized, DRAW_BLOCK rows at a time); larger rates fall back to the
    scalar rejection sampler. Either way the draw depends only on
    (seed, i, rates[i]). A negative or non-finite rate raises ValueError.
    """
    rates = np.asarray(rates, dtype=np.float64)
    k = np.zeros(rates.shape, dtype=np.int64)
    if rates.size == 0:
        return k
    # min and max are NaN or infinite exactly when some rate is.
    lo, hi = np.min(rates), np.max(rates)
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError("Poisson rates must be finite")
    if lo < 0:
        raise ValueError("negative Poisson rate")
    for start in range(0, rates.size, DRAW_BLOCK):
        block = rates[start:start + DRAW_BLOCK]
        idx = np.flatnonzero((block > 0) & (block < POISSON_INVERSION_CUTOFF))
        if idx.size:
            u = uniform_array(seed, idx + start, 0)
            k[idx + start] = _poisson_inversion_array(block[idx], u)
        for i in np.flatnonzero(block >= POISSON_INVERSION_CUTOFF) + start:
            k[i] = _poisson_ptrs(float(rates[i]), ScalarStream(seed, int(i)))
    return k
