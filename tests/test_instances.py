import hashlib

import numpy as np
import pytest
import scipy.special
from scipy.special import bdtr, bdtrc, gammaln

from lewisreg import (
    gen_lower_bound,
    gen_random,
    lewis_weights,
    sign_recovery_experiment,
    solve_weighted_l1,
    weighted_lp_loss,
)
from lewisreg import rng
from lewisreg.instances import _NS_COIN, _NS_LABELS, _binomial_inverse, per_block_solve


def test_noiseless_instance_has_zero_optimum():
    gen = gen_random(50, 4, noise_std=0.0, seed=3)
    y = gen.instance.reveal_hidden_labels()
    assert weighted_lp_loss(gen.instance.A, y, gen.beta0, p=1.0) == pytest.approx(
        0.0, abs=1e-10
    )


def test_gen_random_reproducible():
    a = gen_random(30, 3, n_outliers=2, seed=9)
    b = gen_random(30, 3, n_outliers=2, seed=9)
    np.testing.assert_array_equal(a.instance.A, b.instance.A)
    np.testing.assert_array_equal(
        a.instance.reveal_hidden_labels(), b.instance.reveal_hidden_labels()
    )
    np.testing.assert_array_equal(a.outlier_rows, b.outlier_rows)
    c = gen_random(30, 3, n_outliers=2, seed=10)
    assert not np.array_equal(a.instance.A, c.instance.A)


def test_outlier_planted_and_solver_ignores_it():
    gen = gen_random(400, 3, noise_std=1.0, n_outliers=1, outlier_scale=1e4, seed=5)
    y = gen.instance.reveal_hidden_labels()
    row = gen.outlier_rows[0]
    assert abs(y[row]) == pytest.approx(1e4)
    full = solve_weighted_l1(gen.instance.A, y)
    # the L1 fit stays near beta0 despite the huge label
    np.testing.assert_allclose(full.beta, gen.beta0, atol=0.5)


def test_heavy_row_variant():
    gen = gen_random(100, 3, heavy_row_scale=50.0, seed=7)
    norms = np.linalg.norm(gen.instance.A, axis=1)
    assert norms[0] > 10 * np.median(norms)


def test_lower_bound_structure():
    lb = gen_lower_bound(40, 4, 0.2, seed=1)
    A = lb.instance.A
    y = lb.instance.reveal_hidden_labels()
    assert A.shape == (40, 4)
    for j in range(4):
        block = A[j * 10:(j + 1) * 10]
        expect = np.zeros(4)
        expect[j] = 1.0
        np.testing.assert_array_equal(block, np.tile(expect, (10, 1)))
    assert set(np.unique(y)) <= {-1.0, 1.0}
    assert set(np.unique(lb.b)) <= {-1.0, 1.0}


def test_lower_bound_degenerate_bias():
    lb = gen_lower_bound(30, 3, 0.5, b=np.array([1.0, -1.0, 1.0]), seed=2)
    y = lb.instance.reveal_hidden_labels()
    for j, bj in enumerate(lb.b):
        np.testing.assert_array_equal(y[j * 10:(j + 1) * 10], bj)
    full = solve_weighted_l1(lb.instance.A, y)
    np.testing.assert_allclose(full.beta, lb.b, atol=1e-12)


def test_lower_bound_validation():
    with pytest.raises(ValueError):
        gen_lower_bound(10, 3, 0.1)
    with pytest.raises(ValueError):
        gen_lower_bound(12, 3, 0.7)
    with pytest.raises(ValueError):
        gen_lower_bound(12, 3, 0.1, b=np.array([1.0, 2.0, 1.0]))


def test_separability_per_block_equals_joint():
    lb = gen_lower_bound(60, 3, 0.3, seed=4)
    y = lb.instance.reveal_hidden_labels()
    joint = solve_weighted_l1(lb.instance.A, y)
    blockwise = per_block_solve(lb)
    obj_block = weighted_lp_loss(lb.instance.A, y, blockwise, p=1.0)
    assert joint.objective == pytest.approx(obj_block, abs=1e-8)


def test_lower_bound_lewis_weights_uniform():
    lb = gen_lower_bound(40, 4, 0.2, seed=5)
    lw = lewis_weights(lb.instance.A, 1.0)
    np.testing.assert_allclose(lw.w, 4.0 / 40.0, atol=1e-8)


def test_block_objective_separation_claim():
    # majority label +1 with margin: loss at beta=1 is 2*minority; any beta in
    # (-1, 0] costs at least n'
    n1, nm1 = 7, 3
    y = np.concatenate([np.ones(n1), -np.ones(nm1)])
    A = np.ones((10, 1))
    at_b = weighted_lp_loss(A, y, [1.0], p=1.0)
    assert at_b == pytest.approx(2 * nm1)
    for beta in (0.0, -0.5, -0.99):
        assert weighted_lp_loss(A, y, [beta], p=1.0) >= 10.0 - 1e-12


def test_sign_recovery_blind_guess():
    rate = sign_recovery_experiment(100, 0.05, 0, 4000, seed=1)
    assert rate == pytest.approx(0.5, abs=0.03)


def test_sign_recovery_full_information():
    rate = sign_recovery_experiment(10000, 0.05, 10000, 400, seed=2)
    assert rate >= 0.99


def test_sign_recovery_reproducible_and_validated():
    a = sign_recovery_experiment(100, 0.1, 20, 500, seed=3)
    b = sign_recovery_experiment(100, 0.1, 20, 500, seed=3)
    assert a == b
    with pytest.raises(ValueError):
        sign_recovery_experiment(10, 0.1, 11, 5)
    with pytest.raises(ValueError):
        sign_recovery_experiment(10, 0.1, -1, 5)
    with pytest.raises(ValueError):
        sign_recovery_experiment(10, 0.1, 5, -1)
    with pytest.raises(ValueError):   # a deterministic coin has no binomial to invert
        sign_recovery_experiment(10, 0.5, 5, 5)


def _log_space_inverse(u, m, q):
    """Smallest k with CDF(k) >= u, from the cumulative pmf summed in log space."""
    k = np.arange(m + 1)
    log_pmf = (gammaln(m + 1) - gammaln(k + 1) - gammaln(m - k + 1)
               + k * np.log(q) + (m - k) * np.log1p(-q))
    cdf = np.exp(np.logaddexp.accumulate(log_pmf))
    return np.minimum(np.searchsorted(cdf, u, side="left"), m)


@pytest.mark.parametrize("m", [1, 2, 25, 1000, 20_000])
@pytest.mark.parametrize("q", [0.48, 0.52, 0.6])
def test_binomial_inverse_matches_log_space_cdf(m, q):
    u = rng.uniform_array(rng.derive(7, m), np.arange(20_000, dtype=np.uint64), 0)
    got = _binomial_inverse(u, m, np.full(u.size, q))
    assert int(np.sum(got != _log_space_inverse(u, m, q))) == 0


@pytest.mark.parametrize("m", [1, 2, 25, 1000, 20_000])
@pytest.mark.parametrize("q", [0.48, 0.52, 0.6])
def test_binomial_inverse_edges(m, q):
    low, high = _binomial_inverse(np.array([0.0, 1.0 - 2.0**-53]), m, np.full(2, q))
    assert low == 0
    # the largest uniform: P(X > k) < 2^-53 <= P(X > k - 1), read from the
    # upper tail, which keeps its accuracy where the CDF rounds to 1
    assert bdtrc(high, m, q) < 2.0**-53 <= bdtrc(high - 1, m, q)
    if m <= 25:
        assert high == m
    # u on a CDF value: bdtrik's ceiling mostly lands one above the count.
    # Uniforms are multiples of 2^-53, and the half up to 1/2 takes CDF(k) >= u.
    k = np.arange(m + 1)
    cdf = bdtr(k, m, q)
    lower = (cdf >= 2.0**-53) & (cdf <= 0.5)
    assert np.array_equal(_binomial_inverse(cdf[lower], m, np.full(lower.sum(), q)), k[lower])


def test_binomial_inverse_never_guesses_from_nan(monkeypatch):
    monkeypatch.setattr(scipy.special, "bdtrik", lambda y, n, p: np.full(np.shape(y), np.nan))
    with pytest.raises(FloatingPointError):
        _binomial_inverse(np.array([0.25, 0.75]), 25, np.array([0.52, 0.48]))


def test_sign_recovery_matches_exact_majority_probability():
    # Win rate at m = 25 (odd, so no ties) is P(Binomial(25, 1/2 + eps) > 12).
    trials, eps = 20_000, 0.02
    exact = 1.0 - bdtr(12, 25, 0.5 + eps)
    se = np.sqrt(exact * (1.0 - exact) / trials)
    rate = sign_recovery_experiment(25, eps, 25, trials, seed=4)
    assert abs(rate - exact) <= 4 * se


def test_sign_recovery_flips_a_fair_coin_on_ties():
    # Replays the game's streams at an even m: every tie takes its guess from
    # the flip stream, and the flips go both ways.
    seed, m, eps, trials = 5, 2, 0.1, 4000
    streams = np.arange(trials, dtype=np.uint64)
    alpha = np.where(rng.uniform_array(rng.derive(seed, _NS_COIN), streams, 0) < 0.5,
                     -1.0, 1.0)
    u = rng.uniform_array(rng.derive(seed, _NS_LABELS), streams, 0)
    counts = _binomial_inverse(u, m, 0.5 + alpha * eps)
    guess = np.sign(2 * counts - m).astype(np.float64)
    ties = guess == 0
    flip = rng.uniform_array(rng.derive(seed, _NS_COIN, 1), streams[ties], 0)
    guess[ties] = np.where(flip < 0.5, -1.0, 1.0)
    assert 0.4 < ties.mean() < 0.6
    assert 0.4 < np.mean(guess[ties] == 1.0) < 0.6
    assert sign_recovery_experiment(m, eps, m, trials, seed=seed) == np.mean(guess == alpha)


# sha256 of A then y, as little-endian doubles in row order. These define
# the random family's draws: a change here moves every preset built on it.
GEN_RANDOM_DIGESTS = [
    (dict(n=1000, d=5, n_outliers=3, seed=11),
     "022e69b8314e1b47babd46ac76c6ea64c9c041f39f9e19459cb2b3f3cfb26d5e"),
    (dict(n=20_000, d=10, n_outliers=10, seed=2021),
     "2643c504f7674868e3bfb527a4c2fcfe722db4ba5eb6bdffdc07c18189ea1b0d"),
    (dict(n=16_385, d=7, n_outliers=4, heavy_row_scale=1e3, noise_std=0.5, seed=7),
     "6c6d1c71e83ea5f7a8dc2e826a4a8f86023dfa87f1bac7be58405c580abf0a8b"),
]


@pytest.mark.parametrize("kwargs,digest", GEN_RANDOM_DIGESTS,
                         ids=["1000x5", "20000x10", "16385x7"])
def test_gen_random_draws_pinned(kwargs, digest):
    gen = gen_random(**kwargs)
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(gen.instance.A, dtype="<f8").tobytes())
    h.update(np.ascontiguousarray(gen.instance.reveal_hidden_labels(), dtype="<f8").tobytes())
    assert h.hexdigest() == digest


def test_gaussian_matrices_are_contiguous_and_own_their_data():
    # Odd widths too: no matrix is a view of a wider Box-Muller block.
    for A in (gen_random(1000, 5).instance.A, rng.normal_matrix(3, 100, 5),
              gen_random(1000, 4).instance.A):
        assert A.flags.c_contiguous and A.flags.owndata


def test_gen_random_peak_memory(traced_peak):
    # A is drawn a block of rows at a time into one array and the noise is
    # added to y a block at a time: A, y and block buffers make 1.15 A
    # measured. Drawn whole, the Box-Muller temporaries made 3.6 A.
    gen, peak, _ = traced_peak(lambda: gen_random(200_000, 10, n_outliers=10))
    assert peak <= 1.2 * gen.instance.A.nbytes
