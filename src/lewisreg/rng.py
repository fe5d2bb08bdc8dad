"""Portable counter-based random streams (splitmix64).

Every draw in this package is addressed by (seed, stream, counter). A stream
is typically a row index, so realizing a sampling plan in parallel, in any
row order, gives bit-identical output to the serial path. The generator is
plain 64-bit integer arithmetic (no platform-dependent state), pinned by the
test vectors in tests/test_rng.py.

Scalar helpers use Python ints; the `*_array` variants are the same wrapping
uint64 arithmetic in numpy. Draws over many rows (normals, Poisson counts)
run DRAW_BLOCK values or rows at a time in elementwise arithmetic, so their
temporaries take one block of memory, not n, and their values do not depend
on the block size.
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
    """`mix64` of every element of the uint64 array z, in place; returns z."""
    z ^= z >> np.uint64(30)
    z *= _U_MIX1
    z ^= z >> np.uint64(27)
    z *= _U_MIX2
    z ^= z >> np.uint64(31)
    return z


def raw(seed: int, stream: int, counter: int) -> int:
    """The 64-bit output at (seed, stream, counter)."""
    base = mix64((seed & _MASK) ^ (((stream + 1) * _GOLDEN) & _MASK))
    return mix64((base + ((counter + 1) * _GOLDEN)) & _MASK)


def uniform(seed: int, stream: int, counter: int) -> float:
    """One double in [0, 1) at (seed, stream, counter)."""
    return (raw(seed, stream, counter) >> 11) * 2.0 ** -53


def _stream_base_array(seed: int, streams: np.ndarray) -> np.ndarray:
    z = (streams.astype(np.uint64, copy=False) + np.uint64(1)) * _U_GOLDEN
    z ^= np.uint64(seed & _MASK)
    return _mix64_array(z)


def _to_uniform(z: np.ndarray) -> np.ndarray:
    """The doubles (z >> 11) * 2**-53 of the uint64 array z, in z's memory."""
    z >>= np.uint64(11)
    u = z.view(np.float64)
    # Below 2**53 the conversion and the power-of-two scaling are exact.
    np.multiply(z, 2.0 ** -53, out=u)
    return u


def uniform_array(seed: int, streams: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """Vectorized `uniform`; `streams` and `counters` broadcast together."""
    c = (np.asarray(counters, dtype=np.uint64) + np.uint64(1)) * _U_GOLDEN
    # Unnamed, the stream bases are freed before the sum is mixed.
    z = _stream_base_array(seed, np.asarray(streams, dtype=np.uint64)) + c
    return _to_uniform(_mix64_array(np.asarray(z)))


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


def _normal_rows(seed: int, n: int, count: int, block_streams) -> np.ndarray:
    """The (n, count) Box-Muller draw of `normal_array`, filled a block at a time.

    `block_streams(start, stop)` gives the streams of rows start..stop-1. Row
    i's values 2j and 2j+1 are r cos(theta) and r sin(theta), where
    r = sqrt(-2 log1p(-u1)) and theta = 2 pi u2 for the uniforms u1, u2 at
    counters 2j and 2j+1 of the row's stream. Each block of rows spans about
    DRAW_BLOCK values and is hashed into two (rows, pairs) buffers, which are
    turned into r and theta in place; every step is the same elementwise
    arithmetic as on the whole array, so the values do not depend on the
    block size.
    """
    out = np.empty((n, count))
    pairs = (count + 1) // 2
    if n == 0 or pairs == 0:
        return out
    step = 2 * np.arange(pairs, dtype=np.uint64)
    even = (step + np.uint64(1)) * _U_GOLDEN          # counters 0, 2, 4, ...
    odd = (step + np.uint64(2)) * _U_GOLDEN           # counters 1, 3, 5, ...
    rows = max(1, DRAW_BLOCK // (2 * pairs))
    buf1 = np.empty((rows, pairs), dtype=np.uint64)
    buf2 = np.empty((rows, pairs), dtype=np.uint64)
    trig = np.empty((rows, pairs))
    # With an odd count the last pair's sine is not used.
    sines = count // 2
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        k = stop - start
        base = _stream_base_array(seed, block_streams(start, stop))[:, None]
        r = _to_uniform(_mix64_array(np.add(base, even, out=buf1[:k])))
        np.negative(r, out=r)
        np.log1p(r, out=r)
        r *= -2.0
        np.sqrt(r, out=r)
        theta = _to_uniform(_mix64_array(np.add(base, odd, out=buf2[:k])))
        theta *= 2.0 * np.pi
        block = out[start:stop]
        t = trig[:k]
        np.cos(theta, out=t)
        np.multiply(r, t, out=block[:, 0::2])
        np.sin(theta[:, :sines], out=t[:, :sines])
        np.multiply(r[:, :sines], t[:, :sines], out=block[:, 1::2])
    return out


def normal_array(seed: int, streams: np.ndarray, count: int) -> np.ndarray:
    """`count` standard normals per stream, shape (len(streams), count).

    Box-Muller on each stream's counters 0 .. 2*ceil(count/2) - 1 (see
    `_normal_rows`). The result is one C-contiguous array that owns its
    data, drawn a block of rows at a time, so nothing else of size n is
    held while it fills.
    """
    streams = np.asarray(streams)
    return _normal_rows(seed, streams.size, count,
                        lambda start, stop: streams[start:stop])


def normal_matrix(seed: int, rows: int, cols: int) -> np.ndarray:
    """Seeded (rows, cols) standard-normal matrix; row i is stream i."""
    return _normal_rows(seed, rows, cols,
                        lambda start, stop: np.arange(start, stop, dtype=np.uint64))


def choose_prefix(seed: int, n: int, m: int) -> np.ndarray:
    """m distinct indices from range(n) via a partial Fisher-Yates shuffle.

    Only the positions the shuffle has swapped are stored (position -> value),
    so the memory is O(m) whatever n is.
    """
    if not 0 <= m <= n:
        raise ValueError(f"cannot choose {m} of {n}")
    moved: dict[int, int] = {}
    out = np.empty(m, dtype=np.int64)
    for i in range(m):
        j = i + int(uniform(seed, i, 0) * (n - i))
        out[i] = moved.get(j, j)
        moved[j] = moved.get(i, i)
    return np.sort(out)


def _poisson_continue(lam: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Poisson counts by CDF inversion of rows whose uniform u reached exp(-lam).

    Those rows have a positive count, so each starts at k = 1; each pass then
    steps on only the rows still at or above their CDF. Accurate for lam < ~30.
    """
    k = np.ones(lam.shape, dtype=np.int64)
    cdf = np.exp(-lam)
    prob = cdf * lam            # the recursion's first step, prob * (lam / 1)
    cdf += prob
    active = np.flatnonzero(u >= cdf)
    # k stays near lam + O(sqrt(lam)); where the CDF rounds short of u, k stops at 2000.
    for _ in range(1999):
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


def poisson_support(seed: int, rates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows with a positive Poisson count, increasing, and their counts.

    Row i's count depends only on (seed, i, rates[i]); rows are drawn
    DRAW_BLOCK at a time, so nothing of size n is allocated. Rates below
    POISSON_INVERSION_CUTOFF hash one uniform u < 1 per row and continue the
    inversion only where u >= exp(-rate), the rows with a positive count;
    larger rates use the scalar rejection sampler on the row's stream. Rates
    that are not 1-D, negative or non-finite raise ValueError.
    """
    rates = np.asarray(rates, dtype=np.float64)
    if rates.ndim != 1:
        raise ValueError("Poisson rates must be a 1-D array")
    rows, counts = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    # min and max are NaN or infinite exactly when some rate is.
    lo, hi = (np.min(rates), np.max(rates)) if rates.size else (0.0, 0.0)
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError("Poisson rates must be finite")
    if lo < 0:
        raise ValueError("negative Poisson rate")
    for start in range(0, rates.size, DRAW_BLOCK):
        block = rates[start:start + DRAW_BLOCK]
        u = uniform_array(seed, np.arange(start, start + block.size, dtype=np.uint64), 0)
        idx = np.flatnonzero((u >= np.exp(-block)) & (block < POISSON_INVERSION_CUTOFF))
        k = _poisson_continue(block[idx], u[idx])
        large = np.flatnonzero(block >= POISSON_INVERSION_CUTOFF)
        if large.size:
            k_large = [_poisson_ptrs(float(block[i]), ScalarStream(seed, start + int(i)))
                       for i in large]
            idx, k = np.concatenate([idx, large]), np.concatenate([k, k_large])
            order = np.argsort(idx)
            order = order[k[order] > 0]
            idx, k = idx[order], k[order]
        rows.append(idx + start)
        counts.append(k)
    return np.concatenate(rows), np.concatenate(counts)
