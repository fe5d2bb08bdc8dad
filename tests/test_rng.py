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


def test_poisson_moments_both_regimes():
    # inversion branch
    k = rng.poisson_array(5, np.full(40000, 3.2))
    assert k.mean() == pytest.approx(3.2, abs=0.05)
    assert k.var() == pytest.approx(3.2, rel=0.05)
    # rejection branch (rate above the cutoff)
    k = rng.poisson_array(6, np.full(40000, 64.0))
    assert k.mean() == pytest.approx(64.0, abs=0.3)
    assert k.var() == pytest.approx(64.0, rel=0.05)


def test_poisson_zero_rate_and_validation():
    assert rng.poisson_array(0, np.array([0.0, 0.0])).tolist() == [0, 0]
    with pytest.raises(ValueError):
        rng.poisson_array(0, np.array([-1.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_poisson_rejects_non_finite_rates(bad):
    with pytest.raises(ValueError, match="finite"):
        rng.poisson_array(0, np.array([1.0, bad, 40.0]))


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
    k = rng._poisson_inversion_array(lam, u)
    np.testing.assert_array_equal(k, _poisson_inversion_full_mask(lam, u))
    assert k.max() > 40 and np.mean(k == 0) > 0.1


def test_poisson_deterministic_per_row():
    rates = np.linspace(0.1, 40.0, 200)
    a = rng.poisson_array(99, rates)
    b = rng.poisson_array(99, rates)
    np.testing.assert_array_equal(a, b)


def test_choose_prefix_properties():
    idx = rng.choose_prefix(4, 100, 17)
    assert idx.size == 17
    assert np.unique(idx).size == 17
    assert np.all(np.diff(idx) > 0)
    np.testing.assert_array_equal(idx, rng.choose_prefix(4, 100, 17))
