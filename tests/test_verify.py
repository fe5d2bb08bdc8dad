import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import lewisreg as lr
from lewisreg import BetaSample, rng, verify
from lewisreg.sampling import Sketch


def full_sketch(n, plan_hash="full"):
    return Sketch(indices=np.arange(n, dtype=np.int64), weights=np.ones(n),
                  seed=0, plan_hash=plan_hash)


def make_instance(n=400, d=3, seed=0, outliers=0, p=1.0):
    gen = lr.gen_random(n, d, noise_std=1.0, n_outliers=outliers, p=p, seed=seed)
    inst = gen.instance
    y = inst.reveal_hidden_labels()
    if p == 1.0:
        full = lr.solve_weighted_l1(inst.A, y)
    else:
        full = lr.solve_weighted_lp(inst.A, y, p, tol=1e-12)
    return inst, full


def test_ruc_violation_zero_at_beta_star_and_full_sketch():
    inst, full = make_instance()
    trial = lr.ruc_check(inst, full_sketch(inst.n), full.beta,
                         BetaSample(directions=10, seed=1), eps=0.25)
    # The sketched residuals are the full ones gathered and the reductions
    # are the same ufunc sums, so on unit weights Lt equals L bit for bit.
    assert trial.violation_at_star == 0.0
    assert trial.max_rel_violation == 0.0
    assert trial.max_uncorrected == 0.0
    assert trial.delta_value == 0.0


def test_ruc_sampled_sketch_reports_positive_violation():
    inst, full = make_instance(seed=2)
    lw = lr.lewis_weights(inst.A, 1.0)
    plan = lr.plan_l1(lw.w, gamma=lw.gamma, eps=0.3, delta=0.1, d=inst.d)
    sketch = lr.realize(plan, 7)
    trial = lr.ruc_check(inst, sketch, full.beta, BetaSample(directions=15, seed=3),
                         eps=0.3)
    assert trial.violation_at_star == 0.0
    assert 0.0 < trial.max_rel_violation < 1.0
    assert trial.betas_evaluated > 100


def _ascend_scalar_reference(fn, x0, rounds, seed) -> float:
    """The greedy random-direction hill climb that re-evaluates fn at every point."""
    x = np.asarray(x0, dtype=np.float64).copy()
    best = fn(x)
    step = 0.5 * max(np.linalg.norm(x), 1.0)
    dirs = rng.normal_matrix(seed, max(rounds, 1), x.size)
    for k in range(rounds):
        eta = dirs[k]
        nrm = np.linalg.norm(eta)
        if nrm == 0:
            continue
        eta = eta / nrm
        improved = False
        for sign in (1.0, -1.0):
            cand = x + sign * step * eta
            val = fn(cand)
            if val > best:
                best, x = val, cand
                improved = True
                break
        if not improved:
            step *= 0.7
            if step < 1e-12:
                break
    return float(best)


def _ruc_reference(inst, sketch, beta_star, spec, eps, delta) -> float:
    """max_rel_violation of `ruc_check`, with every loss evaluated from its beta."""
    A, p = inst.A, inst.p
    y = inst.reveal_hidden_labels()
    A_s, y_s, w_s = A[sketch.indices], y[sketch.indices], sketch.weights

    def losses(beta):
        return (float(np.sum(np.abs(A @ beta - y) ** p)),
                float(np.sum(w_s * np.abs(A_s @ beta - y_s) ** p)))

    L_star, Lt_star = losses(beta_star)

    def violation(beta):
        Lb, Ltb = losses(beta)
        return abs((Ltb - Lt_star) - (Lb - L_star)) / Lb if Lb > 0 else 0.0

    radii = np.asarray(verify.default_radii(eps, delta))
    battery = [beta_star]
    dirs = verify._unit_directions(rng.derive(spec.seed, 0xBE), spec.directions, inst.d)
    for eta in dirs:
        energy = np.sum(np.abs(A @ eta) ** p)
        if energy > 0:
            ts = (radii * L_star / energy) ** (1.0 / p)
            battery += [beta_star + t * eta for t in ts]
    scores = [violation(beta) for beta in battery]
    worst = int(np.argmax(scores))
    refined = _ascend_scalar_reference(violation, battery[worst], spec.ascent_rounds,
                                       rng.derive(spec.seed, 0xAC))
    return max(max(scores), refined)


@pytest.mark.parametrize("p", [1.0, 1.5])
@pytest.mark.parametrize("seed", [12, 13, 14])
def test_ruc_climb_matches_reference_ascent(p, seed):
    inst, full = make_instance(n=2000, d=4, seed=seed, outliers=1, p=p)
    lw = lr.lewis_weights(inst.A, p)
    plan = lr.plan_l1(lw.w, gamma=lw.gamma, eps=0.3, delta=0.1, d=inst.d)
    sketch = lr.realize(plan, seed)
    spec = BetaSample(directions=12, seed=seed)
    trial = lr.ruc_check(inst, sketch, full.beta, spec, eps=0.3)
    want = _ruc_reference(inst, sketch, full.beta, spec, 0.3, 0.1)
    assert want > 0.0
    assert trial.max_rel_violation == pytest.approx(want, rel=1e-12, abs=0.0)


def test_ruc_check_memory_stays_blocked():
    # Half of one n x 256 block of residuals (41 MB at n = 20 000): the battery's
    # direction images take 6.4 MB and the climb's 12.8 MB, one after the other.
    n, d = 20_000, 10
    inst = lr.gen_random(n, d, noise_std=1.0, n_outliers=1, seed=15).instance
    beta = np.linalg.lstsq(inst.A, inst.reveal_hidden_labels(), rcond=None)[0]
    rows = np.arange(0, n, 10, dtype=np.int64)
    sketch = Sketch(indices=rows, weights=np.full(rows.size, 10.0), seed=0,
                    plan_hash="every-10th")
    tracemalloc.start()
    try:
        lr.ruc_check(inst, sketch, beta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6


@pytest.mark.parametrize("kw", [dict(eps=0.0), dict(eps=1.0), dict(eps=-0.1),
                                dict(delta=0.0), dict(delta=1.5)])
def test_ruc_check_rejects_eps_delta_outside_unit_interval(kw):
    inst, full = make_instance(n=200, d=3, seed=16)
    with pytest.raises(ValueError):
        lr.ruc_check(inst, full_sketch(inst.n), full.beta, BetaSample(directions=4), **kw)


@pytest.mark.parametrize("p,eps", [(3.0, 0.25), (0.5, 0.25), (1.0, 7.0), (1.0, 0.0)])
def test_embedding_check_rejects_p_and_eps_out_of_range(p, eps):
    A = np.random.default_rng(17).standard_normal((100, 4))
    with pytest.raises(ValueError):
        lr.embedding_check(A, full_sketch(100), p, eps=eps, directions=10)


@pytest.mark.parametrize("p", [1.0, 1.5])
def test_line_losses_bit_identical_to_one_line_form(p):
    n, K, J = 12_000, 4, 6
    r = np.random.default_rng(18)
    D = r.standard_normal((K, n))
    r0 = r.standard_normal(n)
    s = r.random(n)
    T = r.standard_normal((K, J)) * 10.0 ** r.integers(-3, 4, (K, J))
    for base in (r0, 0.0):
        for w in (None, s):
            got = verify._line_losses(base, D, T, p, w)
            for k in range(K):
                for j in range(J):
                    R = np.abs(base + T[k, j] * D[k]) ** p
                    want = R.sum() if w is None else (w * R).sum()
                    assert got[k, j] == want, (k, j)
                # A value does not depend on the other lines or points of a call.
                alone = verify._line_losses(base, D[k:k + 1], T[k:k + 1], p, w)
                assert np.array_equal(alone, got[k:k + 1])
                for j in range(J):
                    one = verify._line_losses(base, D[k:k + 1], T[k:k + 1, j:j + 1], p, w)
                    assert one[0, 0] == got[k, j]


_THREADS_SCRIPT = """
import hashlib, sys
import numpy as np
from lewisreg import BetaSample, RegressionInstance, embedding_check, ruc_check
from lewisreg.sampling import Sketch

r = np.random.default_rng(19)
n, d = 12_000, 7
A = r.standard_normal((n, d))
y = r.standard_normal(n)
y[::997] *= 1e3
beta = r.standard_normal(d)
rows = np.sort(r.choice(n, 1500, replace=False))
sketch = Sketch(indices=rows, weights=1.0 + 15.0 * r.random(rows.size), seed=0,
                plan_hash="threads")
trial = ruc_check(RegressionInstance(A, y, 1.0), sketch, beta, BetaSample(directions=30))
embed = embedding_check(A, sketch, 1.5, eps=0.5, directions=100)
values = [trial.delta_value, trial.max_rel_violation, trial.max_uncorrected,
          trial.violation_at_star, float(trial.betas_evaluated), embed.max_ratio_dev]
sys.stdout.write(hashlib.sha256(repr([v.hex() for v in values]).encode()).hexdigest())
"""


def test_ruc_and_embedding_independent_of_blas_threads():
    src = str(Path(verify.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", _THREADS_SCRIPT], env=env,
                             capture_output=True, text=True, timeout=300, check=True)
        digests.append(out.stdout)
    assert len(digests[0]) == 64
    assert digests[0] == digests[1]


def test_delta_correction_identity():
    # [Lt(b) - Lt(b*)] - [L(b) - L(b*)] == [Lt(b) - L(b)] + Delta, exactly
    inst, full = make_instance(seed=4)
    y = inst.reveal_hidden_labels()
    lw = lr.lewis_weights(inst.A, 1.0)
    plan = lr.plan_l1(lw.w, gamma=lw.gamma, eps=0.3, delta=0.1, d=inst.d)
    sketch = lr.realize(plan, 11)
    s = sketch.dense(inst.n)
    L_star = lr.weighted_lp_loss(inst.A, y, full.beta, p=1.0)
    Lt_star = lr.weighted_lp_loss(inst.A, y, full.beta, s, 1.0)
    delta = L_star - Lt_star
    r = np.random.default_rng(0)
    for _ in range(20):
        beta = full.beta + r.standard_normal(inst.d)
        L = lr.weighted_lp_loss(inst.A, y, beta, p=1.0)
        Lt = lr.weighted_lp_loss(inst.A, y, beta, s, 1.0)
        lhs = (Lt - Lt_star) - (L - L_star)
        rhs = (Lt - L) + delta
        assert lhs == pytest.approx(rhs, abs=1e-10 * (1 + abs(rhs)))


def test_embedding_full_sketch_zero_deviation():
    A = np.random.default_rng(5).standard_normal((100, 4))
    rep = lr.embedding_check(A, full_sketch(100), 1.0, eps=0.25, directions=50, seed=2)
    assert rep.max_ratio_dev == 0.0
    assert rep.passed
    assert rep.directions == 50


def test_embedding_sampled_sketch_finite_deviation():
    A = np.random.default_rng(6).standard_normal((2000, 4))
    lw = lr.lewis_weights(A, 1.0)
    plan = lr.plan_l1(lw.w, gamma=lw.gamma, eps=0.4, delta=0.1, d=4)
    sketch = lr.realize(plan, 1)
    rep = lr.embedding_check(A, sketch, 1.0, eps=0.4, directions=60, seed=3)
    assert np.isfinite(rep.max_ratio_dev)
    assert rep.max_ratio_dev > 0.0


def test_cross_term_zero_for_full_sketch():
    inst, full = make_instance(n=500, d=3, seed=7, p=1.5)
    y_centered = inst.reveal_hidden_labels() - inst.A @ full.beta
    rep = lr.cross_term_check(inst.A, y_centered, full_sketch(inst.n), 1.5)
    # with s = 1 the cross term is the optimality condition, identically ~0
    assert rep.max_ratio <= 1e-6
    assert rep.precondition_residual <= 1e-6


def test_cross_term_precondition_rejects_uncentered_labels():
    inst, _ = make_instance(n=200, d=3, seed=8, p=1.5)
    with pytest.raises(ValueError):
        lr.cross_term_check(inst.A, inst.reveal_hidden_labels(),
                            full_sketch(inst.n), 1.5)


def test_cross_term_sampled_sketch():
    inst, full = make_instance(n=2000, d=4, seed=9, p=1.5)
    y_centered = inst.reveal_hidden_labels() - inst.A @ full.beta
    lw = lr.lewis_weights(inst.A, 1.5)
    plan = lr.plan_lp(lw.w, gamma=lw.gamma, d=4, p=1.5, m_override=400.0)
    sketch = lr.realize(plan, 3)
    rep = lr.cross_term_check(inst.A, y_centered, sketch, 1.5,
                              m=plan.m, gamma=plan.gamma, delta=0.1)
    assert rep.max_ratio > 0.0
    assert rep.fitted_c == pytest.approx(rep.max_ratio / rep.reference)


@pytest.mark.parametrize("p", [1.25, 1.5])
def test_cross_term_d2_matches_angle_sweep(p):
    inst, full = make_instance(n=300, d=2, seed=10, p=p)
    y_centered = inst.reveal_hidden_labels() - inst.A @ full.beta
    lw = lr.lewis_weights(inst.A, p)
    plan = lr.plan_lp(lw.w, gamma=lw.gamma, d=2, p=p, m_override=60.0)
    sketch = lr.realize(plan, 5)
    rep = lr.cross_term_check(inst.A, y_centered, sketch, p)
    psi = p * np.abs(y_centered) ** (p - 1.0) * np.sign(y_centered)
    v = inst.A[sketch.indices].T @ (sketch.weights * psi[sketch.indices])
    thetas = np.linspace(0.0, np.pi, 200_001)
    B = np.stack([np.cos(thetas), np.sin(thetas)])
    sup = np.max(np.abs(v @ B) ** p / np.sum(np.abs(inst.A @ B) ** p, axis=0))
    sweep = sup ** (1.0 / p) / np.sum(np.abs(y_centered) ** p) ** ((p - 1.0) / p)
    assert sweep * (1 - 1e-12) <= rep.max_ratio <= sweep * (1 + 1e-4)


def test_taylor_ratio_examples():
    # b = 0: remainder vanishes
    assert lr.taylor_remainder_ratio(0.0, 1.5) == 0.0
    # a = b = 1, p = 1.5: |0|^p - 1 + 1.5 = 0.5
    assert lr.taylor_remainder_ratio(1.0, 1.5) == pytest.approx(0.5)
    # p = 2 the remainder is exactly b^2, ratio 1 everywhere
    ts = np.array([1e-8, 1e-3, 0.3, 0.7, 5.0, -2.0, -1e-6])
    np.testing.assert_allclose(lr.taylor_remainder_ratio(ts, 2.0), 1.0, rtol=1e-10)


def test_taylor_ratio_cancellation_safe():
    # high-precision references (mpmath, 40 digits) for p = 1.5
    refs = {
        1e-6: 0.00037500006250002344,
        -1e-6: 0.00037499993750002344,
        1e-10: 3.7500000000625e-6,
        0.3: 0.21703213354519376,
        -0.3: 0.19613368232556558,
        2.5: 1.1604590867819335,
    }
    for t, want in refs.items():
        got = float(lr.taylor_remainder_ratio(t, 1.5))
        assert got == pytest.approx(want, rel=1e-10), t


def test_taylor_claim_sup_finite_and_stable():
    sups = [lr.taylor_claim_check(1.5, samples=200_000, seed=s).sup_ratio
            for s in range(3)]
    assert all(np.isfinite(v) for v in sups)
    spread = (max(sups) - min(sups)) / min(sups)
    assert spread <= 0.1
