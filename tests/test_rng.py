"""Pin the portable generator with test vectors and check its samplers."""

import numpy as np
import pytest

from lewisreg import rng

# Frozen vectors define the stream format; any change here is a breaking change.
MIX64_VECTORS = {
    0x0: 0x0,
    0x1: 0x5692161D100B05E5,
    0x9E3779B97F4A7C15: 0xE220A8397B1DCDAF,  # splitmix64(state=0) first output
    0xFFFFFFFFFFFFFFFF: 0xB4D055FCF2CBBD7B,
}

RAW_VECTORS = {
    (0, 0, 0): 0xA706DD2F4D197E6F,
    (0, 0, 1): 0xB382A305F4414F5E,
    (0, 1, 0): 0x46B73E79F0C37C00,
    (42, 7, 3): 0xCE8188134FAAF6D8,
    (2**63, 123456, 2): 0x982148515D4B63D3,
}


def test_mix64_vectors():
    for z, expect in MIX64_VECTORS.items():
        assert rng.mix64(z) == expect


def test_raw_vectors():
    for (seed, stream, k), expect in RAW_VECTORS.items():
        assert rng.raw(seed, stream, k) == expect


def test_uniform_range_and_value():
    assert rng.uniform(0, 0, 0) == pytest.approx(0.6524484863740322, abs=0)
    us = [rng.uniform(3, s, k) for s in range(50) for k in range(4)]
    assert all(0.0 <= u < 1.0 for u in us)


def test_vectorized_matches_scalar():
    streams = np.array([0, 1, 5, 123456], dtype=np.uint64)
    counters = np.array([0, 2, 9, 31], dtype=np.uint64)
    for seed in (0, 42, 2**63 + 17):
        got = rng.uniform_array(seed, streams[:, None], counters[None, :])
        want = np.array([[rng.uniform(seed, int(s), int(k)) for k in counters]
                         for s in streams])
        np.testing.assert_array_equal(got, want)


def test_scalar_stream_walks_counters():
    st = rng.ScalarStream(7, 3)
    assert [st.next_uniform() for _ in range(3)] == [
        rng.uniform(7, 3, 0), rng.uniform(7, 3, 1), rng.uniform(7, 3, 2)
    ]


def test_derive_distinct_and_stable():
    a = rng.derive(1, 2, 3)
    assert a == rng.derive(1, 2, 3)
    assert a != rng.derive(1, 3, 2)
    assert a != rng.derive(2, 2, 3)


def test_normal_matrix_moments():
    z = rng.normal_matrix(11, 400, 50)
    assert abs(z.mean()) < 0.02
    assert abs(z.std() - 1.0) < 0.02


def _poisson_counts(seed, rates):
    """Dense counts from `poisson_support`, one per rate."""
    rows, counts = rng.poisson_support(seed, rates)
    k = np.zeros(len(rates), dtype=np.int64)
    k[rows] = counts
    return k


def test_poisson_moments_both_regimes():
    # inversion branch
    k = _poisson_counts(5, np.full(40000, 3.2))
    assert k.mean() == pytest.approx(3.2, abs=0.05)
    assert k.var() == pytest.approx(3.2, rel=0.05)
    # rejection branch (rate above the cutoff)
    k = _poisson_counts(6, np.full(40000, 64.0))
    assert k.mean() == pytest.approx(64.0, abs=0.3)
    assert k.var() == pytest.approx(64.0, rel=0.05)


def test_poisson_zero_rate_and_validation():
    rows, counts = rng.poisson_support(0, np.array([0.0, 0.0]))
    assert rows.tolist() == counts.tolist() == []
    with pytest.raises(ValueError, match="negative"):
        rng.poisson_support(0, np.array([-1.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_poisson_rejects_non_finite_rates(bad):
    with pytest.raises(ValueError, match="finite"):
        rng.poisson_support(0, np.array([1.0, bad, 40.0]))


@pytest.mark.parametrize("rates", [np.array(0.5), np.full((2, 3), 0.5)])
def test_poisson_rejects_rates_that_are_not_1d(rates):
    with pytest.raises(ValueError, match="1-D"):
        rng.poisson_support(0, rates)


def _poisson_inversion_full_mask(lam, u):
    """Reference: every pass runs over all rows through a boolean mask."""
    k = np.zeros(lam.shape, dtype=np.int64)
    prob = np.exp(-lam)
    cdf = prob.copy()
    active = u >= cdf
    for _ in range(2000):
        if not active.any():
            break
        k[active] += 1
        prob[active] *= lam[active] / k[active]
        cdf[active] += prob[active]
        active &= u >= cdf
    return k


def test_poisson_inversion_matches_full_mask_loop():
    r = np.random.default_rng(17)
    lam = np.concatenate([np.zeros(50), 30.0 * r.random(20000), 1e-3 * r.random(5000)])
    u = rng.uniform_array(3, np.arange(lam.size, dtype=np.uint64),
                          np.zeros(lam.size, dtype=np.uint64))
    u[:200] = 1.0 - 2.0**-53        # deep tails
    u[200:400] = 0.0
    # The continuation sees only the rows whose count is positive.
    passed = u >= np.exp(-lam)
    k = np.zeros(lam.size, dtype=np.int64)
    k[passed] = rng._poisson_continue(lam[passed], u[passed])
    np.testing.assert_array_equal(k, _poisson_inversion_full_mask(lam, u))
    assert k.max() > 40 and np.mean(k == 0) > 0.1


def test_poisson_deterministic_per_row():
    rates = np.linspace(0.1, 40.0, 200)
    a = rng.poisson_support(99, rates)
    b = rng.poisson_support(99, rates)
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])
    # Each row's count is its own: a prefix draws the same counts.
    c = rng.poisson_support(99, rates[:150])
    keep = a[0] < 150
    np.testing.assert_array_equal(c[0], a[0][keep])
    np.testing.assert_array_equal(c[1], a[1][keep])


def test_poisson_support_rows_use_their_own_streams():
    # Rates across several blocks, zero, inversion and rejection regimes; the
    # reference draws each positive row alone from its stream.
    n = 3 * rng.DRAW_BLOCK + 5
    rates = np.zeros(n)
    rows = np.random.default_rng(2).choice(n, 300, replace=False)
    rates[rows] = np.linspace(0.01, 45.0, rows.size)
    rates[[0, rng.DRAW_BLOCK - 1, rng.DRAW_BLOCK, n - 1]] = [2.0, 3.0, 50.0, 1.5]
    seed = 2**63 + 17
    want = {}
    for i in np.flatnonzero(rates):
        if rates[i] < rng.POISSON_INVERSION_CUTOFF:
            k = _poisson_inversion_full_mask(rates[i:i + 1],
                                             np.array([rng.uniform(seed, int(i), 0)]))[0]
        else:
            k = rng._poisson_ptrs(float(rates[i]), rng.ScalarStream(seed, int(i)))
        if k > 0:
            want[int(i)] = int(k)
    got_rows, got_counts = rng.poisson_support(seed, rates)
    assert got_rows.tolist() == sorted(want)
    assert got_counts.tolist() == [want[i] for i in sorted(want)]
    assert rng.poisson_support(seed, np.zeros(0))[0].size == 0


def _poisson_support_two_stage(seed, rates):
    """Reference: the earlier two-stage draw. Each block gathers its rows with
    a rate in (0, cutoff), inverts all of them from k = 0 on their counter-0
    uniforms, draws the larger rates by rejection, scatters every count into
    a block-length array and searches that for the positive rows."""
    rows, counts = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for start in range(0, rates.size, rng.DRAW_BLOCK):
        block = rates[start:start + rng.DRAW_BLOCK]
        k = np.zeros(block.size, dtype=np.int64)
        idx = np.flatnonzero((block > 0) & (block < rng.POISSON_INVERSION_CUTOFF))
        if idx.size:
            k[idx] = _poisson_inversion_full_mask(
                block[idx], rng.uniform_array(seed, idx + start, 0))
        for i in np.flatnonzero(block >= rng.POISSON_INVERSION_CUTOFF):
            k[i] = rng._poisson_ptrs(float(block[i]), rng.ScalarStream(seed, start + int(i)))
        positive = np.flatnonzero(k)
        rows.append(positive + start)
        counts.append(k[positive])
    return np.concatenate(rows), np.concatenate(counts)


@pytest.mark.parametrize("seed", [0, 2021, 2**63 + 17])
def test_poisson_support_matches_two_stage_reference(seed):
    # Three blocks and a short last one, mixing zero rates, 1e-6 rates,
    # rates up to either side of the cutoff and rejection-sampled rates.
    n = 3 * rng.DRAW_BLOCK + 777
    r = np.random.default_rng(seed % 2**32)
    cutoff = rng.POISSON_INVERSION_CUTOFF
    pools = [np.zeros(n), np.full(n, 1e-6), 1e-3 * r.random(n), 2.0 * r.random(n),
             cutoff * r.random(n), cutoff + 40.0 * r.random(n),
             np.full(n, np.nextafter(cutoff, 0.0)), np.full(n, cutoff)]
    rates = np.choose(r.integers(0, len(pools), n), pools)
    rates[rng.DRAW_BLOCK:2 * rng.DRAW_BLOCK] = 1e-6       # a nearly empty block
    rows, counts = rng.poisson_support(seed, rates)
    want_rows, want_counts = _poisson_support_two_stage(seed, rates)
    assert rows.dtype == counts.dtype == np.int64
    np.testing.assert_array_equal(rows, want_rows)
    np.testing.assert_array_equal(counts, want_counts)
    assert np.all(counts > 0) and np.all(np.diff(rows) > 0)
    assert counts.max() > 40 and np.any((rows >= n - 777) & (rates[rows] < 1.0))


def test_choose_prefix_properties():
    idx = rng.choose_prefix(4, 100, 17)
    assert idx.size == 17
    assert np.unique(idx).size == 17
    assert np.all(np.diff(idx) > 0)
    np.testing.assert_array_equal(idx, rng.choose_prefix(4, 100, 17))


def _normal_array_unblocked(seed, streams, count):
    """Reference: the whole Box-Muller draw at once, even columns then odd."""
    streams = np.asarray(streams, dtype=np.uint64)
    pairs = (count + 1) // 2
    c = np.arange(2 * pairs, dtype=np.uint64)
    u = rng.uniform_array(seed, streams[:, None], c[None, :])
    u1 = u[:, 0::2]
    u2 = u[:, 1::2]
    r = np.sqrt(-2.0 * np.log1p(-u1))
    theta = 2.0 * np.pi * u2
    z = np.empty((streams.size, 2 * pairs))
    z[:, 0::2] = r * np.cos(theta)
    z[:, 1::2] = r * np.sin(theta)
    return z[:, :count]


@pytest.mark.parametrize("seed", [0, 42, 2**63 + 17])
def test_normal_array_matches_unblocked_reference(seed):
    block = rng.DRAW_BLOCK
    for n in (0, 1, 7, block - 1, block + 1, 3 * block + 5):
        streams = np.arange(n, dtype=np.uint64)
        for count in range(12):
            got = rng.normal_array(seed, streams, count)
            want = _normal_array_unblocked(seed, streams, count)
            assert got.shape == want.shape == (n, count)
            assert got.tobytes() == want.tobytes(), (n, count)


def test_normal_array_matches_reference_on_scattered_streams():
    r = np.random.default_rng(5)
    scattered = [
        r.permutation(20_000).astype(np.uint64),
        r.integers(0, 2**64 - 1, 9_000, dtype=np.uint64, endpoint=True),
        np.array([2**64 - 1, 0, 2**63, 7, 7], dtype=np.uint64),
        np.arange(2 * rng.DRAW_BLOCK, 0, -3, dtype=np.int64),
    ]
    for seed in (0, 42, 2**63 + 17):
        for streams in scattered:
            for count in (1, 2, 5, 10):
                got = rng.normal_array(seed, streams, count)
                want = _normal_array_unblocked(seed, streams, count)
                assert got.tobytes() == want.tobytes(), (streams.size, count)


def _choose_prefix_dense(seed, n, m):
    """Reference: the partial Fisher-Yates shuffle on a full index array."""
    idx = np.arange(n, dtype=np.int64)
    for i in range(m):
        j = i + int(rng.uniform(seed, i, 0) * (n - i))
        idx[i], idx[j] = idx[j], idx[i]
    return np.sort(idx[:m])


def test_choose_prefix_matches_dense_shuffle():
    for seed in (0, 4, 42, 2**63 + 17):
        for n, m in ((1, 0), (1, 1), (5, 5), (100, 0), (100, 17), (100, 100),
                     (1000, 999), (1_000_000, 10)):
            got = rng.choose_prefix(seed, n, m)
            want = _choose_prefix_dense(seed, n, m)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want)


def test_choose_prefix_memory_independent_of_n(traced_peak):
    _, peak, _ = traced_peak(lambda: rng.choose_prefix(3, 10**6, 10))
    assert peak < 10_000


def test_normal_matrix_peak_memory(traced_peak):
    # The matrix itself plus about 0.34 MB of block buffers.
    A, peak, _ = traced_peak(lambda: rng.normal_matrix(5, 200_000, 10))
    assert peak <= A.nbytes + 2**20
