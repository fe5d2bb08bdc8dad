import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

import lewisreg
from lewisreg import (
    approx_transfer_bound,
    solve_weighted_l1,
    solve_weighted_lp,
    weighted_lp_loss,
    weighted_median,
)
from lewisreg import experiments, solvers
from lewisreg.instances import per_block_solve
from lewisreg.solvers import _first_reaching, _line_search


def subgradient_l1_oracle(A, y, s=None, epochs=30, iters_per_epoch=2500):
    """Independent long-horizon reference: subgradient descent with geometric
    step decay restarted from the incumbent. Shares no code with the solvers."""
    n, d = A.shape
    s = np.ones(n) if s is None else s
    sw = np.sqrt(s)
    beta, *_ = np.linalg.lstsq(sw[:, None] * A, sw * y, rcond=None)
    best_beta = beta.copy()
    best = float(np.sum(s * np.abs(A @ beta - y)))
    step0 = float(np.linalg.norm(beta)) + 1.0
    for epoch in range(epochs):
        step = step0 * 0.5**epoch
        x = best_beta.copy()
        for _ in range(iters_per_epoch):
            g = A.T @ (s * np.sign(A @ x - y))
            gn = np.linalg.norm(g)
            if gn == 0.0:
                break
            x -= step * g / gn
            obj = float(np.sum(s * np.abs(A @ x - y)))
            if obj < best:
                best = obj
                best_beta = x.copy()
    return best_beta, best


def bisect_scalar_lp(y, s, p, lo, hi, iters=200):
    """Root of the scalar optimality condition sum s_i sign(b-y_i)|b-y_i|^(p-1)."""

    def g(b):
        return float(np.sum(s * np.sign(b - y) * np.abs(b - y) ** (p - 1.0)))

    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if g(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_median_outlier_immune():
    res = solve_weighted_l1(np.ones((5, 1)), [1.0, 2.0, 3.0, 4.0, 100.0])
    assert res.beta[0] == pytest.approx(3.0)
    assert res.status == "converged"


def test_weighted_median_mass():
    res = solve_weighted_l1(np.ones((5, 1)), [0.0, 1.0, 2.0, 3.0, 4.0],
                            [1.0, 1.0, 1.0, 3.0, 1.0])
    assert res.beta[0] == pytest.approx(3.0)


def test_weighted_median_tie_break_lowest():
    # cumulative weight reaches exactly half at the first value
    assert weighted_median([1.0, 2.0], [1.0, 1.0]) == 1.0
    assert weighted_median([5.0, 2.0, 8.0], [1.0, 2.0, 1.0]) == 2.0
    with pytest.raises(ValueError):
        weighted_median([1.0], [-1.0])


@pytest.mark.parametrize("seed", range(4))
def test_first_reaching_matches_full_sort(seed):
    # Breakpoints with few distinct values and signed zeros, distinct
    # continuous breakpoints (the default sort with no stable fallback), and
    # distinct breakpoints but for a 0.0 and a -0.0; weights with zeros, and
    # levels from 0 to past the total, some hit exactly: with and without the
    # head, the position and the order through it are those of a full stable
    # sort, whether the prefix reaches the level or the full sort runs.
    r = np.random.default_rng(seed)
    prefixes = 0
    cases = [(n, "ties") for n in (1, 31, 32, 33, 200, 3000)]
    cases += [(n, kind) for n in (33, 200, 3000) for kind in ("distinct", "signed-zero")]
    for n, kind in cases:
        if kind == "ties":
            t = r.integers(-2, 3, n) * r.choice([0.5, 1.0], n)
            t[t == 0] *= r.choice([-1.0, 1.0], int(np.sum(t == 0)))
        else:
            t = r.standard_normal(n)
            if kind == "signed-zero":
                i, j = np.sort(r.choice(n, 2, replace=False))
                t[i], t[j] = r.permutation([0.0, -0.0])
        w = r.integers(0, 3, n).astype(float)
        order = np.argsort(t, kind="stable")
        cum = np.cumsum(w[order])
        levels = [0.0, *(cum[-1] * np.array([1e-3, 0.01, 0.1, 0.5, 1.0, 1.5])),
                  *cum[r.integers(0, n, 4)]]
        for level in levels:
            m = min(int(np.searchsorted(cum, level)), n - 1)
            for head in (True, False):
                got, k = _first_reaching(t, w, level, head=head)
                assert k == m
                np.testing.assert_array_equal(got[:k + 1], order[:m + 1])
                prefixes += got.size < n
                assert head or got.size == n
    assert prefixes > 0


@pytest.mark.parametrize("seed", range(3))
def test_weighted_median_matches_stable_sort_reference(seed):
    # The lowest value whose stable-sorted cumulative weight reaches half the
    # total, on distinct values, on values with ties and signed zeros, and on
    # weights with zeros.
    r = np.random.default_rng(seed)
    for n in (1, 2, 33, 200, 3000):
        for v in (r.standard_normal(n), r.integers(-3, 4, n) * r.choice([-0.0, 1.0], n)):
            w = r.integers(0, 4, n).astype(float)
            w[r.integers(n)] += 1.0
            order = np.argsort(v, kind="stable")
            cum = np.cumsum(w[order])
            want = v[order[min(int(np.searchsorted(cum, 0.5 * cum[-1])), n - 1)]]
            got = weighted_median(v, w)
            assert got == want and np.signbit(got) == np.signbit(want)


def test_l1_matches_subgradient_oracle():
    for seed in (0, 1, 2):
        r = np.random.default_rng(seed)
        A = r.standard_normal((30, 3))
        y = A @ r.standard_normal(3) + r.standard_normal(30)
        res = solve_weighted_l1(A, y)
        _, oracle_obj = subgradient_l1_oracle(A, y)
        assert res.objective <= oracle_obj * (1 + 1e-9)
        assert abs(res.objective - oracle_obj) <= 1e-6 * oracle_obj


def test_l1_weighted_matches_oracle():
    r = np.random.default_rng(3)
    A = r.standard_normal((40, 4))
    y = r.standard_normal(40) * 2.0
    s = r.uniform(0.1, 3.0, 40)
    res = solve_weighted_l1(A, y, s)
    _, oracle_obj = subgradient_l1_oracle(A, y, s)
    assert abs(res.objective - oracle_obj) <= 1e-6 * oracle_obj


def test_p2_closed_form():
    r = np.random.default_rng(4)
    A = r.standard_normal((25, 4))
    y = r.standard_normal(25)
    s = r.uniform(0.5, 2.0, 25)
    res = solve_weighted_lp(A, y, 2.0, s)
    sw = np.sqrt(s)
    expect, *_ = np.linalg.lstsq(sw[:, None] * A, sw * y, rcond=None)
    np.testing.assert_allclose(res.beta, expect, atol=1e-10)


def test_p15_scalar_bisection_oracle():
    y = np.array([0.0, 0.0, 3.0])
    res = solve_weighted_lp(np.ones((3, 1)), y, 1.5)
    expect = bisect_scalar_lp(y, np.ones(3), 1.5, 0.0, 3.0)
    assert expect == pytest.approx(0.6, abs=1e-10)  # closed form for this data
    assert res.beta[0] == pytest.approx(expect, abs=1e-8)


def test_exact_fit_returns_zero():
    r = np.random.default_rng(5)
    A = r.standard_normal((10, 3))
    beta0 = r.standard_normal(3)
    for p in (1.0, 1.5, 2.0):
        res = (solve_weighted_l1 if p == 1.0 else
               lambda A_, y_: solve_weighted_lp(A_, y_, p))(A, A @ beta0)
        np.testing.assert_allclose(res.beta, beta0, atol=1e-8)
        assert res.objective == pytest.approx(0.0, abs=1e-12)


def test_objective_field_consistent():
    r = np.random.default_rng(6)
    A = r.standard_normal((20, 3))
    y = r.standard_normal(20)
    s = r.uniform(0.0, 2.0, 20)
    for p in (1.0, 1.5):
        res = (solve_weighted_l1(A, y, s) if p == 1.0
               else solve_weighted_lp(A, y, p, s))
        assert res.objective == pytest.approx(
            weighted_lp_loss(A, y, res.beta, s, p), abs=1e-12 * (1 + res.objective)
        )


def test_l1_coordinate_probes():
    r = np.random.default_rng(7)
    A = r.standard_normal((35, 4))
    y = r.standard_normal(35) * 3
    res = solve_weighted_l1(A, y)
    L = res.objective
    scale = L / 35
    for h_rel in (1e-4, 1e-6):
        h = h_rel * scale
        for j in range(4):
            for sign in (1.0, -1.0):
                beta = res.beta.copy()
                beta[j] += sign * h
                assert weighted_lp_loss(A, y, beta, p=1.0) >= L - 1e-8 * L


def test_lp_gradient_matches_finite_differences():
    r = np.random.default_rng(8)
    A = r.standard_normal((15, 3))
    y = r.standard_normal(15)
    s = r.uniform(0.5, 1.5, 15)
    p = 1.5
    beta = r.standard_normal(3)
    res = A @ beta - y
    grad = A.T @ (s * p * np.abs(res) ** (p - 1.0) * np.sign(res))
    h = 1e-6
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        num = (weighted_lp_loss(A, y, beta + e, s, p)
               - weighted_lp_loss(A, y, beta - e, s, p)) / (2 * h)
        assert num == pytest.approx(grad[j], rel=1e-5, abs=1e-8)


def test_gap_small_at_convergence():
    r = np.random.default_rng(9)
    A = r.standard_normal((40, 5))
    y = r.standard_normal(40)
    for p in (1.0, 1.25, 1.75):
        res = (solve_weighted_l1(A, y) if p == 1.0 else solve_weighted_lp(A, y, p))
        assert res.status == "converged"
        assert res.gap <= 1e-8


def test_translation_equivariance():
    r = np.random.default_rng(10)
    A = r.standard_normal((30, 3))
    y = r.standard_normal(30)
    c = r.standard_normal(3)
    for solve in (solve_weighted_l1, lambda A_, y_: solve_weighted_lp(A_, y_, 1.5)):
        base = solve(A, y)
        shifted = solve(A, y + A @ c)
        np.testing.assert_allclose(shifted.beta, base.beta + c, atol=1e-8)


def test_objective_trace_monotone():
    r = np.random.default_rng(11)
    A = r.standard_normal((50, 4))
    y = r.standard_normal(50) * 2
    for p in (1.0, 1.5):
        trace = []
        if p == 1.0:
            solve_weighted_l1(A, y, trace=trace)
        else:
            solve_weighted_lp(A, y, p, trace=trace)
        t = np.asarray(trace)
        assert np.all(np.diff(t) <= 1e-12 * np.maximum(t[:-1], 1.0))


def test_degenerate_fewer_than_d_rows():
    A = np.random.default_rng(12).standard_normal((10, 3))
    y = np.arange(10.0)
    s = np.zeros(10)
    s[:2] = 1.0
    res = solve_weighted_l1(A, y, s)
    assert res.status == "degenerate"
    res = solve_weighted_lp(A, y, 1.5, s)
    assert res.status == "degenerate"


def test_degenerate_rank_deficient_support():
    A = np.zeros((6, 2))
    A[:, 0] = 1.0  # second column identically zero
    res = solve_weighted_l1(A, np.arange(6.0))
    assert res.status == "degenerate"


def test_heavily_weighted_rows_are_not_degenerate():
    # Rank comes from the unweighted rows: weighted, this matrix has a
    # singular value ratio near 1e-14, yet the problem is well posed.
    r = np.random.default_rng(0)
    A = r.standard_normal((50, 3))
    y = A @ r.standard_normal(3) + r.standard_normal(50)
    s = np.ones(50)
    s[:2] = 1e30
    assert solve_weighted_l1(A, y, s).status == "converged"
    assert solve_weighted_lp(A, y, 1.5, s).status == "converged"


@pytest.mark.parametrize("p", [1.0, 1.5])
def test_heavy_weights_are_certified_on_every_seed(p):
    # One ulp of residual on a row weighted 1e30 outweighs the rest of the
    # loss, so the certificate counts a residual within the rounding of
    # computing it as zero. Before it did, 12 (p = 1) and 7 (p = 1.5) of
    # these 20 problems with two rows weighted 1e30 ended max-iter with
    # gap 1.0.
    for seed in range(20):
        r = np.random.default_rng(seed)
        A = r.standard_normal((50, 3))
        y = A @ r.standard_normal(3) + r.standard_normal(50)
        for heavy, light in ((1e30, 1.0), (1e100, 1e-100)):
            s = np.full(50, light)
            s[:2] = heavy
            res = solve_weighted_l1(A, y, s) if p == 1.0 else solve_weighted_lp(A, y, p, s)
            assert res.status == "converged", (seed, heavy, res.gap)


def test_approx_transfer_bound():
    assert approx_transfer_bound(0.25) == pytest.approx(4.0 / 3.0)
    assert approx_transfer_bound(0.5) == pytest.approx(2.0)
    assert approx_transfer_bound(1e-9) == pytest.approx(1.0, abs=1e-8)
    for bad in (1.0, 1.5, -0.1):
        with pytest.raises(ValueError):
            approx_transfer_bound(bad)


def test_solver_p_domain():
    with pytest.raises(ValueError):
        solve_weighted_lp(np.ones((3, 1)), np.zeros(3), 1.0)
    with pytest.raises(ValueError):
        solve_weighted_lp(np.ones((3, 1)), np.zeros(3), 2.5)


@pytest.mark.parametrize("p", [1.0, 1.5])
def test_positive_weights_solve_without_copying_a(p, traced_peak):
    # With every weight positive the solve reads A in place. tracemalloc sees
    # 2.53 (p = 1) and 2.22 (p = 1.5) n x d matrices at the peak: Q and the
    # walk's or the Newton step's n-vectors, which set it. It does not see
    # the copies numpy.linalg makes inside its calls; the ru_maxrss test
    # below does. A copy of A[active] would add one more n x d matrix.
    inst = lewisreg.gen_random(20_000, 10, n_outliers=1, seed=15).instance
    A, y = inst.A, inst.reveal_hidden_labels()
    res, peak, _ = traced_peak(lambda: solve_weighted_l1(A, y) if p == 1.0
                               else solve_weighted_lp(A, y, p))
    assert res.status == "converged"
    assert peak <= 3 * A.nbytes


@pytest.mark.skipif(sys.platform != "linux", reason="reads ru_maxrss in KiB")
def test_full_data_l1_solve_peak_rss():
    # The solve holds one n x d matrix, the Q of a TSQR, plus n-vectors:
    # ru_maxrss grows by about 2.65 n x d. A reduced np.linalg.qr of A and
    # lstsq starts and projections on n x d copies grew it by 4.1.
    src = os.path.dirname(os.path.dirname(os.path.abspath(lewisreg.__file__)))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    code = "\n".join([
        "import resource, lewisreg",
        "warm = lewisreg.gen_random(2000, 10, seed=1).instance",
        "lewisreg.solve_weighted_l1(warm.A, warm.reveal_hidden_labels())",
        "inst = lewisreg.gen_random(200_000, 10, seed=1).instance",
        "A, y = inst.A, inst.reveal_hidden_labels()",
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss",
        "assert lewisreg.solve_weighted_l1(A, y).status == 'converged'",
        "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss",
        "print(1024 * (after - before) / A.nbytes)",
    ])
    proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=300,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout.split()[-1]) <= 3.25


def test_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize is most of the package's import time, and no solver path
    # loads it: not the L1 walk on a degenerate optimum, not the Lp iteration,
    # and not their duality-gap certificates.
    src = os.path.dirname(os.path.dirname(os.path.abspath(lewisreg.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = "\n".join([
        "import sys, numpy as np, lewisreg",
        "r = np.random.default_rng(0)",
        "A = r.integers(-3, 4, size=(40, 3)).astype(float)",
        "y = A @ np.array([1.0, -2.0, 1.0])",
        "y[:10] += 5.0",                 # 30 of 40 rows fit exactly: many ties
        "assert lewisreg.solve_weighted_l1(A, y).status == 'converged'",
        "assert lewisreg.solve_weighted_lp(A, y, 1.25).status == 'converged'",
        "sys.exit(3 if 'scipy.optimize' in sys.modules else 0)",
    ])
    proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=120)
    assert proc.returncode == 0


def _highs_l1(A, y, s):
    """Weighted L1 optimum by HiGHS, evaluated at HiGHS's own beta.

    The LP is min sum_i s_i (u_i + v_i) s.t. A b - u + v = y, u, v >= 0.
    Evaluating the loss at the returned b makes the value an upper bound on
    the optimum even where HiGHS stops inside its feasibility tolerance.
    """
    from scipy.optimize import linprog

    n, d = A.shape
    res = linprog(np.concatenate([np.zeros(d), s, s]),
                  A_eq=np.hstack([A, -np.eye(n), np.eye(n)]), b_eq=y,
                  bounds=[(None, None)] * d + [(0.0, None)] * (2 * n), method="highs")
    assert res.status == 0, res.message
    return weighted_lp_loss(A, y, res.x[:d], s, p=1.0)


def _tie_instance(seed):
    """Integer rows, 60% of them fit exactly by an integer beta: a degenerate optimum."""
    r = np.random.default_rng(seed)
    n, d = int(r.integers(40, 301)), int(r.integers(3, 9))
    A = r.integers(-5, 6, size=(n, d)).astype(float)
    y = A @ r.integers(-3, 4, size=d).astype(float)
    off = r.random(n) >= 0.6
    y[off] += r.integers(-20, 21, size=int(off.sum()))
    s = r.integers(1, 6, size=n).astype(float) if seed % 2 else np.ones(n)
    return A, y, s


def _minimize_lp(A, y, s, p):
    """Weighted Lp optimum by scipy BFGS, evaluated at BFGS's own point.

    BFGS runs on Q of A = QR, which has the same optimum and keeps the
    collinear inputs well conditioned. The value is an upper bound on the
    optimum up to the rounding of evaluating the loss.
    """
    from scipy.optimize import minimize

    Q = np.linalg.qr(A)[0]
    sw = np.sqrt(s)
    x0 = np.linalg.lstsq(sw[:, None] * Q, sw * y, rcond=None)[0]

    def loss(x):
        r = Q @ x - y
        grad = Q.T @ (s * p * np.abs(r) ** (p - 1.0) * np.sign(r))
        return float(np.sum(s * np.abs(r) ** p)), grad

    x = minimize(loss, x0, jac=True, method="BFGS", options={"gtol": 0.0}).x
    return weighted_lp_loss(Q, y, x, s, p)


def _fuzz_cases(reference, p=1.0):
    """(label, A, y, s, reference(A, y, s)) on the fuzz inputs, for the loss exponent p."""
    for k in range(24):
        A, y, s = _tie_instance(k)
        yield f"ties-{k}", A, y, s, reference(A, y, s)
    for k in range(3):
        A, y, s = _tie_instance(100 + k)
        rep = np.random.default_rng(k).integers(1, 4, size=A.shape[0])
        A, y, s = np.repeat(A, rep, axis=0), np.repeat(y, rep), np.repeat(s, rep)
        yield f"duplicates-{k}", A, y, s, reference(A, y, s)
    for k in range(3):
        gen = lewisreg.gen_random(200, 5, n_outliers=3, heavy_row_scale=1e6, seed=k)
        A, y, s = gen.instance.A, gen.instance.reveal_hidden_labels(), np.ones(200)
        yield f"heavy-row-{k}", A, y, s, reference(A, y, s)
    for k in range(3):
        r = np.random.default_rng(200 + k)
        A = r.standard_normal((150, 4))
        A[:, 1] = A[:, 0] + 1e-6 * r.standard_normal(150)
        y = A @ r.standard_normal(4) + r.laplace(size=150)
        s = r.uniform(0.5, 2.0, 150)
        yield f"collinear-{k}", A, y, s, reference(A, y, s)
    for k, d in enumerate((3, 4, 5)):
        r = np.random.default_rng(300 + k)
        A, y, s = r.standard_normal((d, d)), r.standard_normal(d), np.ones(d)
        yield f"square-{d}", A, y, s, reference(A, y, s)
    # Magnitudes of 1e+-100: the loss scales by c_s c_y^p, so the reference
    # solves the unscaled instance.
    for k, (c_a, c_y, c_s) in enumerate([(1e100, 1e100, 1.0), (1e-100, 1e-100, 1.0),
                                         (1.0, 1.0, 1e100), (1e100, 1e-100, 1e-100)]):
        A, y, s = _tie_instance(400 + k)
        yield f"magnitude-{k}", c_a * A, c_y * y, c_s * s, c_s * c_y**p * reference(A, y, s)


@pytest.mark.parametrize("seed", range(4))
def test_l1_block_instance_degenerate_optimum(seed):
    # d blocks of repeated canonical rows with +-1 labels: phase 1 reaches the
    # optimum, and thousands of rows tie at zero residual there. The walk
    # certifies it in a few pivots of its own rule, not in hundreds of
    # zero-length Bland pivots.
    d = 8
    lb = lewisreg.gen_lower_bound(4000, d, 0.1, seed=seed)
    A, y = lb.instance.A, lb.instance.reveal_hidden_labels()
    res = solve_weighted_l1(A, y)
    assert res.status == "converged", res.gap
    assert res.objective == weighted_lp_loss(A, y, per_block_solve(lb), np.ones(4000), 1.0)
    assert res.iterations <= 4 * d, res.iterations


def test_l1_fuzz_matches_highs():
    eps = np.finfo(float).eps
    for label, A, y, s, best in _fuzz_cases(_highs_l1):
        res = solve_weighted_l1(A, y, s)
        # The loss at beta is only known to the rounding of its residuals.
        rounding = (A.shape[1] + 1) * eps * float(
            np.sum(s * (np.abs(A) @ np.abs(res.beta) + np.abs(y))))
        assert res.status == "converged", (label, res.gap)
        assert res.objective <= best * (1 + 1e-12) + rounding, (label, res.objective, best)
        assert res.objective * (1 - res.gap) <= best + rounding, (label, res.gap, best)


def _digest(results) -> str:
    h = hashlib.sha256()
    for res in results:
        h.update(res.beta.tobytes())
        h.update(str(res.iterations).encode())
    return h.hexdigest()


def test_l1_fuzz_betas_and_iterations_are_pinned():
    # The inputs with one optimal basis keep the bits they had when the start
    # was an lstsq on an n x d copy. The tie-heavy ones (ties, duplicates,
    # magnitudes) have degenerate optima, where the walk's basis and pivot
    # count follow the last bits of its start, so they are pinned as the
    # start on Q leaves them.
    unique, tied = [], []
    for label, A, y, s, _ in _fuzz_cases(lambda *args: 0.0):
        unique_basis = label.startswith(("heavy-row", "collinear", "square"))
        (unique if unique_basis else tied).append(solve_weighted_l1(A, y, s))
    assert _digest(unique) == "c7b4aa1d0184bc81ba959e5c90fc7842e2a7c7ffe17041ae8ec15280345b7c77"
    assert _digest(tied) == "35e85483698736c0a3457a050a0d9470cd57e5303b81f9e5e408b59e3c11d26c"


@pytest.mark.parametrize("preset", ["l1-accept", "ruc-accept"])
def test_preset_full_data_l1_solve_is_pinned(preset):
    # Pinned when the solvers took a Householder QR and an lstsq start: on
    # TSQR's Q the walk reaches the same basis in the same 46 line searches.
    inst = experiments._random_instance(experiments.preset_config(preset))
    res = solve_weighted_l1(inst.A, inst.reveal_hidden_labels())
    assert res.iterations == 46
    assert _digest([res]) == "fe1dc459c8606e12313c13fa0a86d98c20efb300332081c52cfdb8d17e00ced7"


# The largest ||A^T z|| / || |A|^T |z| || over the fuzz inputs, per p, of the
# dual vector z the final certificate used when the projection was one
# curvature-weighted lstsq on an n x d copy (2.65e-15, 4.67e-5, 1.79e-8 and
# 9.93e-10, all on heavy-row inputs), rounded up. The refined projection in
# Q's basis reaches at most 1.3e-16.
_LSTSQ_DUAL_INFEASIBILITY = {1.0: 2.7e-15, 1.25: 4.7e-5, 1.5: 1.8e-8, 1.75: 1.0e-9}


@pytest.mark.parametrize("p", sorted(_LSTSQ_DUAL_INFEASIBILITY))
def test_certified_dual_feasibility(p, monkeypatch):
    duals = []
    gap_of = solvers._duality_gap

    def recorded(A, *args):
        out = gap_of(A, *args)
        duals.append((A, out[2]))
        return out

    monkeypatch.setattr(solvers, "_duality_gap", recorded)
    worst = 0.0
    for label, A, y, s, _ in _fuzz_cases(lambda *args: 0.0, p):
        duals.clear()
        res = (solve_weighted_l1(A, y, s) if p == 1.0
               else solve_weighted_lp(A, y, p, s, tol=1e-10))
        assert res.status == "converged", label
        As, z = duals[-1]
        if z is None:       # an exact fit, certified without a dual vector
            continue
        As, z = As / np.max(np.abs(As)), z / np.max(np.abs(z))   # the ratio is scale-free
        worst = max(worst, np.linalg.norm(As.T @ z) / np.linalg.norm(np.abs(As).T @ np.abs(z)))
    assert worst <= _LSTSQ_DUAL_INFEASIBILITY[p]


@pytest.mark.parametrize("p", [1.25, 1.5, 1.75])
def test_lp_fuzz_matches_minimize(p):
    eps = np.finfo(float).eps
    for label, A, y, s, best in _fuzz_cases(lambda *args: _minimize_lp(*args, p), p):
        res = solve_weighted_lp(A, y, p, s, tol=1e-10)
        rounding = (A.shape[1] + 1) * eps * float(
            np.sum(s * (np.abs(A) @ np.abs(res.beta) + np.abs(y))))
        assert res.status == "converged", (label, res.gap)
        assert res.objective <= best * (1 + 1e-10) + rounding, (label, res.objective, best)
        assert res.objective * (1 - res.gap) <= best + rounding, (label, res.gap, best)


def _lp_slope(r, dr, s, p, t):
    x = r + t * dr
    return float(np.sum(s * np.abs(x) ** (p - 1.0) * np.sign(x) * dr))


def _bisect_line_search(r, dr, s, p, halvings=200):
    """Reference line search: bisection of the slope to far below rounding."""
    if _lp_slope(r, dr, s, p, 1.0) <= 0.0:
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(halvings):
        mid = 0.5 * (lo + hi)
        if _lp_slope(r, dr, s, p, mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return lo


def _line_search_cases():
    """(label, r, dr, s, p): descent directions whose residuals cross zero,
    with zero entries of dr and r, at step scales from well inside [0, 1] to
    beyond the full step."""
    for p in (1.05, 1.25, 1.5, 1.9):
        for k in range(30):
            r = np.random.default_rng(1000 + k)
            n = int(r.integers(5, 400))
            res = r.standard_normal(n) * 10.0 ** r.uniform(-3, 3)
            dr = r.standard_normal(n) * 10.0 ** r.uniform(-3, 3)
            dr[r.random(n) < 0.2] = 0.0
            res[r.random(n) < 0.05] = 0.0
            s = r.uniform(0.1, 5.0, n)
            if _lp_slope(res, dr, s, p, 0.0) > 0.0:
                dr = -dr
            yield f"p{p}-{k}", res, dr, s, p


def test_line_search_matches_bisection_reference():
    searched = 0
    for label, r, dr, s, p in _line_search_cases():
        t = _line_search(r, dr, s, p, _lp_slope(r, dr, s, p, 0.0))
        t_ref = _bisect_line_search(r, dr, s, p)
        searched += t_ref < 1.0
        assert 0.0 <= t <= 1.0, label
        assert _lp_slope(r, dr, s, p, t) <= 0.0, (label, t)
        loss, loss_ref = (float(np.sum(s * np.abs(r + x * dr) ** p)) for x in (t, t_ref))
        assert loss <= loss_ref * (1 + 1e-14), (label, t, t_ref, loss, loss_ref)
        if p == 1.05:
            # Near p = 1 the slope is close to a step function. The search ends
            # within 4 ulps of the reference, or at an exact zero of the slope
            # below it: the reference, the last point with slope <= 0, is the
            # far end of that run of zeros.
            assert (abs(t - t_ref) <= 4 * np.spacing(t_ref)
                    or t <= t_ref and _lp_slope(r, dr, s, p, t) == 0.0), (label, t, t_ref)
    assert searched >= 60      # most cases need a search, not the full step


def test_line_search_edge_cases():
    r = np.array([1.0, -2.0, 0.5, 0.0])
    s = np.array([1.0, 2.0, 0.5, 1.0])
    for p in (1.05, 1.5, 1.9):
        # Halving every residual lowers the loss all the way: no search.
        assert _line_search(r, -0.5 * r, s, p, _lp_slope(r, -0.5 * r, s, p, 0.0)) == 1.0
        # An uphill start (slope(0) > 0) and a flat one (slope(0) = 0) return 0.
        for dr in (r, np.array([0.0, 0.0, 0.0, 1.0])):
            assert _lp_slope(r, dr, s, p, 1.0) > 0.0
            assert _line_search(r, dr, s, p, _lp_slope(r, dr, s, p, 0.0)) == 0.0
    # Slopes of -inf and +inf at the ends give no secant point; the midpoint
    # is the root.
    r, dr, s = np.array([-1e200]), np.array([2e200]), np.ones(1)
    with np.errstate(over="ignore", invalid="ignore"):
        assert _line_search(r, dr, s, 1.9, _lp_slope(r, dr, s, 1.9, 0.0)) == 0.5
