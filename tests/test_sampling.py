import hashlib
import math

import numpy as np
import pytest

from lewisreg import (
    SamplePlan,
    gen_random,
    lewis_weights,
    plan_l1,
    plan_lp,
    plan_uniform,
    realize,
    support_size_bound,
    weighted_lp_loss,
)
from lewisreg.rng import DRAW_BLOCK, POISSON_INVERSION_CUTOFF
from lewisreg.sampling import POISSON_LP, Sketch


def test_plan_l1_uniform_below_threshold():
    w = np.full(50, 0.02)
    plan = plan_l1(w, gamma=1.0, u_override=1.0)
    np.testing.assert_allclose(plan.params, 0.02)


def test_plan_l1_expected_support_example():
    w = np.full(100, 0.02)
    plan = plan_l1(w, gamma=1.0, u_override=0.1)
    np.testing.assert_allclose(plan.params, 0.2)
    assert plan.expected_support == pytest.approx(20.0)


def test_plan_l1_clamped_row_always_sampled():
    w = np.array([0.5, 0.001, 0.001])
    plan = plan_l1(w, gamma=1.0, u_override=0.1)
    assert plan.params[0] == 1.0
    for seed in range(20):
        sk = realize(plan, seed)
        k = np.searchsorted(sk.indices, 0)
        assert k < sk.indices.size and sk.indices[k] == 0
        assert sk.weights[k] == 1.0


def test_plan_l1_default_u_formula():
    w = np.full(10, 0.4)
    eps, delta, d, gamma, c_u = 0.25, 0.1, 4, 1.5, 0.7
    plan = plan_l1(w, gamma=gamma, eps=eps, delta=delta, d=d, c_u=c_u)
    u = c_u * eps**2 / math.log(gamma * d / (delta * eps))
    assert plan.u == pytest.approx(u)
    np.testing.assert_allclose(plan.params, np.minimum(gamma * w / u, 1.0))
    # support never exceeds the gamma^2 d / u cap
    assert plan.expected_support <= gamma**2 * d / u + 1e-9


def test_plan_l1_validation():
    with pytest.raises(ValueError):
        plan_l1(np.array([0.1]), u_override=0.0)
    with pytest.raises(ValueError):
        plan_l1(np.array([-0.1]), u_override=0.5)
    with pytest.raises(ValueError):
        plan_l1(np.array([0.1]), gamma=0.5, u_override=0.5)
    with pytest.raises(ValueError):
        plan_l1(np.array([0.1]), eps=0.25, delta=0.1)  # d missing


def test_plans_reject_unconverged_gamma():
    # One Lewis iteration leaves residual ~400, reported as gamma = inf.
    A = gen_random(2000, 5, heavy_row_scale=1e6, seed=1).instance.A
    A[1] = 0.0
    lw = lewis_weights(A, 1.0, max_iter=1)
    assert lw.gamma == math.inf
    with pytest.raises(ValueError, match="gamma"):
        plan_l1(lw.w, gamma=lw.gamma, eps=0.25, delta=0.1, d=5)
    # with u given, 0 * inf used to make a NaN probability for the zero row
    with pytest.raises(ValueError, match="gamma"):
        plan_l1(lw.w, gamma=lw.gamma, u_override=0.01)
    with pytest.raises(ValueError, match="gamma"):
        plan_lp(lw.w, gamma=lw.gamma, d=5, p=1.5, m_override=100.0)
    with pytest.raises(ValueError, match="gamma"):
        plan_l1(lw.w, gamma=math.nan, u_override=0.01)


@pytest.mark.parametrize("scheme, params", [
    ("bernoulli-l1", [0.5, math.nan]),
    ("bernoulli-l1", [0.5, 1.5]),
    ("bernoulli-l1", [-0.1, 0.5]),
    ("uniform", [0.5, math.inf]),
    ("uniform", [1.2, 0.5]),
    ("poisson-lp", [2.0, math.inf]),
    ("poisson-lp", [math.nan, 2.0]),
    ("poisson-lp", [-1.0, 2.0]),
])
def test_sample_plan_rejects_invalid_params(scheme, params):
    with pytest.raises(ValueError):
        SamplePlan(scheme=scheme, n=2, params=np.array(params))


@pytest.mark.parametrize("scheme", ["bernoulli-l1", "poisson-lp", "uniform"])
def test_sample_plan_rejects_params_that_are_not_1d(scheme):
    # Before the check, realize raised a broadcast or index error on these,
    # or (uniform) silently drew 3 rows of 6.
    with pytest.raises(ValueError, match="1-D"):
        SamplePlan(scheme=scheme, n=6, params=np.full((2, 3), 0.5), m=3.0)
    with pytest.raises(ValueError, match="1-D"):
        SamplePlan(scheme=scheme, n=1, params=np.array(0.5), m=1.0)
    with pytest.raises(ValueError, match="length n"):
        SamplePlan(scheme=scheme, n=6, params=np.full(5, 0.5), m=3.0)


def test_sample_plan_accepts_boundary_params():
    SamplePlan(scheme="bernoulli-l1", n=2, params=np.array([0.0, 1.0]))
    SamplePlan(scheme="poisson-lp", n=2, params=np.array([0.0, 40.0]))


def test_plan_lp_rejects_overflowing_rates():
    with np.errstate(over="ignore"), pytest.raises(ValueError):
        plan_lp(np.full(4, 4.0), d=2, p=1.5, m_override=1e308)


def test_plan_lp_uniform_rates():
    n, d = 40, 4
    w = np.full(n, d / n)
    plan = plan_lp(w, d=d, p=1.5, m_override=100.0)
    np.testing.assert_allclose(plan.params, 100.0 / n)


def test_plan_lp_default_m_formula():
    w = np.full(30, 0.1)
    eps, delta, d, p, gamma, c_m = 0.3, 0.1, 3, 1.5, 1.2, 0.8
    plan = plan_lp(w, gamma=gamma, eps=eps, delta=delta, d=d, p=p, c_m=c_m)
    m = c_m * (gamma * d**2 * math.log(d / (eps * delta)) / eps**2
               + gamma * d ** (2.0 / p) / (eps**2 * delta))
    assert plan.m == pytest.approx(m)


def test_poisson_mean_one_and_hit_probability():
    n = 400
    w = np.full(n, 5.0 / n)
    plan = plan_lp(w, d=5, p=1.5, m_override=800.0)
    lam = plan.params[0]
    hits = np.zeros(n)
    acc = np.zeros(n)
    T = 4000
    for t in range(T):
        sk = realize(plan, t)
        hits[sk.indices] += 1
        acc[sk.indices] += sk.weights
    # Pr[s_i > 0] = 1 - exp(-lambda_i)
    expect_hit = 1.0 - math.exp(-lam)
    assert hits.mean() / T == pytest.approx(expect_hit, rel=0.02)
    # E[s_i] = 1
    se = math.sqrt(1.0 / lam / T)
    assert np.abs(acc / T - 1.0).mean() <= 3 * se


def test_realize_full_inclusion_reproduces_loss():
    r = np.random.default_rng(0)
    A = r.standard_normal((30, 3))
    y = r.standard_normal(30)
    beta = r.standard_normal(3)
    plan = plan_l1(np.full(30, 0.5), gamma=1.0, u_override=1e-6)
    sk = realize(plan, 9)
    assert sk.support_size == 30
    np.testing.assert_allclose(sk.weights, 1.0)
    assert weighted_lp_loss(A, y, beta, sk.dense(30), 1.0) == pytest.approx(
        weighted_lp_loss(A, y, beta, p=1.0)
    )


def test_realize_bit_exact_replay():
    w = np.random.default_rng(5).uniform(0.001, 0.2, 500)
    for plan in (
        plan_l1(w, gamma=1.0, u_override=0.05),
        plan_lp(w, d=3, p=1.5, m_override=300.0),
        plan_uniform(500, 60),
    ):
        a = realize(plan, 42)
        b = realize(plan, 42)
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_array_equal(a.weights, b.weights)
        assert a.plan_hash == b.plan_hash
        c = realize(plan, 43)
        assert not (
            a.indices.size == c.indices.size and np.array_equal(a.indices, c.indices)
        )


# sha256 over the indices and weights that `realize` draws at seeds
# 0, 1, 2021 and 2**63 + 5. Realized rows are part of the replay contract:
# a change here is a versioned break that bumps SCHEMA_VERSION.
GOLDEN_REALIZE = {
    "bernoulli": "c97686a5a18d53c1fd98f2300af96be17a36bf5c3668cf3526f536adba46f62a",
    "poisson": "c23f3d1a56fa89c194a636990d29ecf445dfa8f5d50e905f1ce5ce9309d9d328",
    "uniform": "376eaea9fbd7ca9b9adfacba4fb428079c4c626e09072580122b31536e0a946a",
}


def test_realize_golden_hashes():
    rates = np.append(60.0 * np.linspace(0.0, 1.0, 600) ** 3, POISSON_INVERSION_CUTOFF)
    assert np.any(rates == 0) and np.any((rates > 0) & (rates < POISSON_INVERSION_CUTOFF))
    assert np.sum(rates >= POISSON_INVERSION_CUTOFF) > 100
    plans = {
        "bernoulli": plan_l1((np.arange(600) % 23 + 1) / 230.0, u_override=0.4),
        "poisson": SamplePlan(scheme=POISSON_LP, n=rates.size, params=rates),
        "uniform": plan_uniform(1000, 37),
    }
    for name, plan in plans.items():
        h = hashlib.sha256()
        for seed in (0, 1, 2021, 2**63 + 5):
            sk = realize(plan, seed)
            h.update(np.ascontiguousarray(sk.indices, dtype="<i8").tobytes())
            h.update(np.ascontiguousarray(sk.weights, dtype="<f8").tobytes())
        assert h.hexdigest() == GOLDEN_REALIZE[name], name


def test_bernoulli_realize_peak_memory(traced_peak):
    # Rows are hashed DRAW_BLOCK at a time and the plan digest hashes the
    # params in place, so the temporaries peak near five 8-byte block-vectors
    # (4.6 measured) whatever n is. Unblocked they peaked at five n-vectors.
    for n in (200_000, 500_000):
        plan = plan_l1(np.full(n, 10.0 / n), u_override=0.01)
        _, peak, _ = traced_peak(lambda: realize(plan, 7))
        assert peak <= 7 * 8 * DRAW_BLOCK, n


def test_poisson_realize_peak_memory(traced_peak):
    # Each block hashes its rows once and continues the inversion only on
    # its positive rows, so the peak is the hashing of one block plus the
    # support (about 8000 rows here): 5.5-5.7 8-byte block-vectors measured,
    # whatever n is. Inverting every positive rate with dense block counts,
    # it was 8.4-8.7; unblocked, 7.4 n-vectors.
    for n in (200_000, 500_000, 2_000_000):
        plan = plan_lp(np.full(n, 10.0 / n), d=10, p=1.5, m_override=8000.0)
        _, peak, _ = traced_peak(lambda: realize(plan, 7))
        assert peak <= 7 * 8 * DRAW_BLOCK, n


def test_sketch_indices_sorted_unique_positive_weights():
    w = np.random.default_rng(6).uniform(0.0, 0.3, 200)
    w[::7] = 0.0
    plan = plan_lp(np.maximum(w, 0), d=4, p=1.3, m_override=500.0)
    sk = realize(plan, 3)
    assert np.all(np.diff(sk.indices) > 0)
    assert np.all(sk.weights > 0)
    # zero-weight rows can never enter the support
    assert not np.intersect1d(sk.indices, np.nonzero(w == 0)[0]).size


@pytest.mark.parametrize("plan", [
    plan_l1(np.full(300, 0.05), u_override=0.5),
    plan_lp(np.full(300, 0.05), d=4, p=1.5, m_override=100.0),
    plan_uniform(300, 40),
], ids=["bernoulli", "poisson", "uniform"])
def test_realized_arrays_are_read_only(plan):
    sk = realize(plan, 5)
    assert sk.support_size > 0
    # Read-only arrays that own their data: a ledger may hold the indices.
    assert sk.indices.flags.owndata and sk.weights.flags.owndata
    with pytest.raises(ValueError, match="read-only"):
        sk.indices[0] = 1
    with pytest.raises(ValueError, match="read-only"):
        sk.weights[0] = 1.0


@pytest.mark.parametrize("indices, weights, match", [
    (np.array([[0, 1]]), np.ones((1, 2)), "1-D integer"),
    (np.array([0.0, 1.0]), np.ones(2), "1-D integer"),
    ([0, 1], np.ones(2), "1-D integer"),
    (np.array([0, 1]), np.ones(3), "as long as"),
    (np.array([0, 1]), np.ones((2, 1)), "as long as"),
    (np.array([-1, 1]), np.ones(2), "nonnegative"),
    (np.array([0, 2, 2]), np.ones(3), "strictly increasing"),
    (np.array([0, 3, 1]), np.ones(3), "strictly increasing"),
    (np.array([0, 1]), np.array([1.0, 0.0]), "finite and positive"),
    (np.array([0, 1]), np.array([1.0, -2.0]), "finite and positive"),
    (np.array([0, 1]), np.array([np.nan, 1.0]), "finite and positive"),
    (np.array([0, 1]), np.array([1.0, np.inf]), "finite and positive"),
])
def test_sketch_rejects_invalid_state(indices, weights, match):
    with pytest.raises(ValueError, match=match):
        Sketch(indices=indices, weights=weights, seed=0, plan_hash="bad")


def test_sketch_keeps_the_callers_arrays():
    # Validation neither copies the arrays nor changes their flags; only
    # `realize` makes its own arrays read-only.
    idx, w = np.array([0, 4, 9], dtype=np.int32), np.full(3, 2.0)
    sk = Sketch(indices=idx, weights=w, seed=0, plan_hash="ok")
    assert sk.indices is idx and sk.weights is w
    assert idx.flags.writeable and w.flags.writeable
    empty = Sketch(indices=np.empty(0, dtype=np.int64), weights=np.empty(0), seed=0,
                   plan_hash="empty")
    assert empty.support_size == 0


def test_uniform_scheme():
    plan = plan_uniform(100, 25)
    sk = realize(plan, 11)
    assert sk.support_size == 25
    np.testing.assert_allclose(sk.weights, 4.0)
    assert np.unique(sk.indices).size == 25


def test_support_mean_matches_binomial():
    plan = plan_l1(np.full(100, 0.02), gamma=1.0, u_override=0.1)  # p_i = 0.2
    sizes = np.fromiter(
        (realize(plan, t).support_size for t in range(20000)), dtype=np.int64
    )
    assert sizes.mean() == pytest.approx(20.0, abs=0.5)


def test_support_size_bound_formula():
    plan = plan_l1(np.full(100, 0.02), gamma=1.0, u_override=0.1)
    mu = 20.0
    expect = mu + math.sqrt(2 * mu * math.log(20.0)) + math.log(20.0)
    assert support_size_bound(plan, 0.1) == pytest.approx(expect)
    with pytest.raises(ValueError):
        support_size_bound(plan, 0.0)


def test_support_size_bound_full_plan():
    plan = plan_l1(np.full(10, 1.0), gamma=1.0, u_override=0.5)
    assert np.all(plan.params == 1.0)
    assert support_size_bound(plan, 0.2) >= 10
    assert realize(plan, 0).support_size == 10


def test_support_bound_exceedance_rate():
    plan = plan_l1(np.full(100, 0.02), gamma=1.0, u_override=0.1)
    bound = support_size_bound(plan, 0.1)
    exceed = sum(realize(plan, t).support_size > bound for t in range(10000))
    assert exceed / 10000 <= 0.1


def test_unbiasedness_of_sketched_loss():
    r = np.random.default_rng(21)
    n, d = 120, 3
    A = r.standard_normal((n, d))
    y = r.standard_normal(n)
    beta = r.standard_normal(d)
    full = weighted_lp_loss(A, y, beta, p=1.0)
    w = np.full(n, d / n)
    plan = plan_l1(w, gamma=1.0, u_override=0.08)
    vals = np.empty(4000)
    for t in range(vals.size):
        sk = realize(plan, t)
        vals[t] = np.sum(sk.weights * np.abs(A[sk.indices] @ beta - y[sk.indices]))
    se = vals.std() / math.sqrt(vals.size)
    assert abs(vals.mean() - full) <= 3 * se
