"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Statistical criteria run the frozen experiment presets (fixed seeds, tuned
constants); property criteria enumerate their stated corpora directly.
"""

import time

import numpy as np
import pytest

import lewisreg as lr
from lewisreg import rng
from lewisreg.experiments import fit_loglog_slope, preset_config, run_experiment, sweep

ALL_P = (1.0, 1.25, 1.5, 2.0)


@pytest.fixture
def report(capsys):
    def _report(name: str, ok: bool, detail: str = ""):
        with capsys.disabled():
            tag = "PASS" if ok else "FAIL"
            suffix = f" ({detail})" if detail else ""
            print(f"[acceptance] {name}: {tag}{suffix}")
        assert ok, f"{name}{suffix}"

    return _report


def lewis_corpus():
    mats = []
    for k in range(50):
        r = np.random.default_rng(1000 + k)
        n = int(r.integers(20, 501))
        d = int(r.integers(2, 11))
        n = max(n, 2 * d)
        mats.append(r.standard_normal((n, d)))
    return mats


def test_criterion_01_lewis_fixed_point(report):
    worst_resid, worst_sum_err, worst_time = 0.0, 0.0, 0.0
    for A in lewis_corpus():
        d = A.shape[1]
        for p in ALL_P:
            t0 = time.perf_counter()
            lw = lr.lewis_weights(A, p, tol=1e-8, max_iter=500)
            dt = time.perf_counter() - t0
            worst_time = max(worst_time, dt)
            worst_resid = max(worst_resid, lw.residual)
            worst_sum_err = max(worst_sum_err, abs(lw.total - d))
            if not (lw.converged and lw.residual <= 1e-6 and dt < 1.0):
                report("criterion 1 (Lewis fixed point)", False,
                       f"p={p} resid={lw.residual:.2e} time={dt:.2f}s")
    ok = worst_resid <= 1e-6 and worst_sum_err <= 1e-6 and worst_time < 1.0
    report("criterion 1 (Lewis fixed point)", ok,
           f"max resid {worst_resid:.2e}, max |sum-d| {worst_sum_err:.2e}, "
           f"max time {worst_time * 1e3:.0f}ms")


def test_criterion_02_p2_equals_leverage(report):
    worst = 0.0
    for A in lewis_corpus():
        lw = lr.lewis_weights(A, 2.0)
        lev = lr.leverage_scores(A).scores
        worst = max(worst, float(np.max(np.abs(lw.w - lev))))
    report("criterion 2 (p=2 equals leverage)", worst <= 1e-8,
           f"max entrywise gap {worst:.2e}")


def test_criterion_03_sandwich(report):
    slack = 1e-3
    bad = 0
    for k in range(30):
        r = np.random.default_rng(2000 + k)
        n = int(r.integers(8, 51))
        d = int(r.integers(2, 5))
        n = max(n, 2 * d)
        A = r.standard_normal((n, d))
        for p in ALL_P:
            lw = lr.lewis_weights(A, p)
            iw = lr.importance_weights(A, p, starts=12, seed=7)
            rep = lr.sandwich_check(A, p, lw, iw, slack=slack)
            if not rep.ok:
                bad += 1
    report("criterion 3 (importance-weight sandwich)", bad == 0,
           f"{bad} of 120 instance/p pairs with violations")


def test_criterion_04_split_invariance(report):
    worst_lewis, worst_imp = 0.0, 0.0
    for k in range(20):
        r = np.random.default_rng(3000 + k)
        d = 1 if k < 8 else int(r.integers(2, 5))
        n = int(r.integers(max(2 * d, 4), 25))
        A = r.standard_normal((n, d))
        p = ALL_P[k % 4]
        row = int(r.integers(0, n))
        kk = int(r.integers(2, 6))
        B = lr.split_row(A, row, kk, p)
        w = lr.lewis_weights(A, p, tol=1e-10).w
        expect_w = np.concatenate([w[:row], np.full(kk, w[row] / kk), w[row + 1:]])
        got_w = lr.lewis_weights(B, p, tol=1e-10).w
        worst_lewis = max(worst_lewis, float(np.max(np.abs(got_w - expect_w))))
        if d == 1:
            u = lr.importance_weights(A, p).u
            expect_u = np.concatenate([u[:row], np.full(kk, u[row] / kk), u[row + 1:]])
            got_u = lr.importance_weights(B, p).u
            worst_imp = max(worst_imp, float(np.max(np.abs(got_u - expect_u))))
    ok = worst_lewis <= 1e-6 and worst_imp <= 1e-6
    report("criterion 4 (row-splitting invariance)", ok,
           f"lewis gap {worst_lewis:.2e}, importance gap {worst_imp:.2e}")


def test_criterion_05_unbiasedness(report):
    trials = 10_000
    worst_z = 0.0
    for k in range(10):
        r = np.random.default_rng(4000 + k)
        n, d = 200, 3
        A = r.standard_normal((n, d))
        y = A @ r.standard_normal(d) + r.standard_normal(n)
        beta = r.standard_normal(d)
        lw = lr.lewis_weights(A, 1.0)
        plans = [
            lr.plan_l1(lw.w, gamma=lw.gamma, eps=0.4, delta=0.2, d=d),
            lr.plan_lp(lr.lewis_weights(A, 1.5).w, gamma=1.0, d=d, p=1.5,
                       m_override=80.0),
        ]
        for plan, p in zip(plans, (1.0, 1.5)):
            full = lr.weighted_lp_loss(A, y, beta, p=p)
            vals = np.empty(trials)
            for t in range(trials):
                sk = lr.realize(plan, rng.derive(k, t))
                rr = A[sk.indices] @ beta - y[sk.indices]
                vals[t] = np.sum(sk.weights * np.abs(rr) ** p)
            se = vals.std() / np.sqrt(trials)
            z = abs(vals.mean() - full) / se
            worst_z = max(worst_z, z)
    report("criterion 5 (unbiasedness of the sketched loss)", worst_z <= 3.0,
           f"worst |z| {worst_z:.2f} (3 SE budget)")


def test_criterion_06_subspace_embedding(report):
    t0 = time.perf_counter()
    config = preset_config("embed-accept")
    rep = run_experiment(config)
    dt = time.perf_counter() - t0
    agg = rep.aggregates
    ok = (rep.passed and agg["pass_count"] >= 90
          and agg["expected_support"] <= 4000 and dt < 120.0)
    report("criterion 6 (L1 subspace embedding)", ok,
           f"{agg['pass_count']}/100 seeds, support {agg['expected_support']:.0f}, "
           f"{dt:.0f}s")


def test_criterion_07_end_to_end_l1(report):
    t0 = time.perf_counter()
    config = preset_config("l1-accept")
    rep = run_experiment(config)
    dt = time.perf_counter() - t0
    agg = rep.aggregates
    within_budget = all(t["within_budget"] for t in rep.trials)
    ok = (agg["pass_count"] >= 90 and within_budget and dt < 600.0
          and agg["ratio_bound"] == pytest.approx(4.0 / 3.0))
    report("criterion 7 (end-to-end L1 at eps=0.25)", ok,
           f"{agg['pass_count']}/100 seeds, median ratio "
           f"{agg['median_ratio']:.4f}, budget {agg['budget']}, {dt:.0f}s")


def test_criterion_08_end_to_end_lp(report):
    config = preset_config("lp-accept")
    rep = run_experiment(config)
    agg = rep.aggregates
    ok = agg["pass_count"] >= 85
    report("criterion 8 (end-to-end Lp at p=1.5)", ok,
           f"{agg['pass_count']}/100 seeds, median ratio {agg['median_ratio']:.4f}")


def test_criterion_09_ruc_vs_uncorrected(report):
    config = preset_config("ruc-accept")
    rep = run_experiment(config)
    agg = rep.aggregates
    corrected_ok = agg["pass_count"] >= 90
    uncorrected_ok = agg["uncorrected_exceed_fraction"] >= 0.5
    report("criterion 9 (robust uniform convergence beats uncorrected)",
           corrected_ok and uncorrected_ok,
           f"corrected {agg['pass_count']}/100, uncorrected exceeds eps in "
           f"{agg['uncorrected_exceed_fraction'] * 100:.0f}%")


def test_criterion_10_eps_scaling(report):
    ms = [250, 500, 1000, 2000, 4000, 8000]
    config = preset_config("scaling-ruc")
    reports = sweep(config, "m_target", ms)
    medians = [r.aggregates["median_violation"] for r in reports]
    slope = fit_loglog_slope(ms, medians)
    report("criterion 10 (violation decays like m^-1/2)",
           -0.65 <= slope <= -0.35, f"slope {slope:.3f}")


def test_criterion_11_biased_coin(report):
    t0 = time.perf_counter()
    config = preset_config("coin-accept")
    rep = run_experiment(config)
    dt = time.perf_counter() - t0
    agg = rep.aggregates
    ok = (agg["win_rate_small"] <= 0.75 and agg["win_rate_large"] >= 0.99
          and dt < 60.0)
    report("criterion 11 (biased-coin hardness)", ok,
           f"25 queries -> {agg['win_rate_small']:.3f}, "
           f"250000 queries -> {agg['win_rate_large']:.3f}, {dt:.0f}s")


def test_criterion_12_query_ledger_exactness(report):
    gen = lr.gen_random(2000, 4, noise_std=1.0, seed=77)
    inst = gen.instance
    lw = lr.lewis_weights(inst.A, 1.0)
    plan = lr.plan_l1(lw.w, gamma=lw.gamma, eps=0.3, delta=0.1, d=4)
    exact = True
    for seed in range(25):
        outcome = lr.active_solve(inst, plan, seed)
        same_count = outcome.ledger.count == outcome.sketch.support_size
        same_set = np.array_equal(np.sort(outcome.ledger.queried),
                                  outcome.sketch.indices)
        exact = exact and same_count and same_set
    report("criterion 12 (query ledger equals sketch support)", exact,
           "25 active solves, zero tolerance")


def test_criterion_13_cross_term_scaling(report):
    ms = [500, 1000, 2000, 4000, 8000]
    config = preset_config("scaling-cross")
    reports = sweep(config, "m_target", ms)
    medians = [r.aggregates["median_max_ratio"] for r in reports]
    slope = fit_loglog_slope(ms, medians)
    report("criterion 13 (cross term decays like m^-1/2)",
           -0.65 <= slope <= -0.35, f"slope {slope:.3f}")


def test_criterion_14_taylor_claim(report):
    ok = True
    details = []
    for p in (1.25, 1.5, 1.75, 2.0):
        sups = [lr.taylor_claim_check(p, samples=10**6, seed=s).sup_ratio
                for s in range(5)]
        finite = all(np.isfinite(v) for v in sups)
        spread = (max(sups) - min(sups)) / min(sups)
        ok = ok and finite and spread <= 0.10
        details.append(f"p={p}: sup {max(sups):.3f} spread {spread * 100:.2f}%")
    report("criterion 14 (Taylor remainder claim)", ok, "; ".join(details))
