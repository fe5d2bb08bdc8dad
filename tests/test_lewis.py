import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lewisreg import lewis as lewis_module
from lewisreg import (
    DegenerateMatrixError,
    SolveResult,
    gen_random,
    importance_weight_oracle,
    importance_weights,
    leverage_scores,
    lewis_weights,
    sandwich_check,
    split_row,
    uniformity_report,
)
from lewisreg.linalg import BLOCK

ALL_P = (1.0, 1.25, 1.5, 2.0)
# TALL spans three full blocks of the leverage kernel and a partial one.
TALL = 3 * BLOCK + 17


def hypercube_rows():
    return np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=float) / np.sqrt(2)


def test_identity_fixed_point():
    for p in ALL_P:
        lw = lewis_weights(np.eye(4), p)
        np.testing.assert_allclose(lw.w, 1.0, atol=1e-12)
        assert lw.residual <= 1e-12
        assert lw.converged


def test_ones_column_uniform():
    for p in ALL_P:
        lw = lewis_weights(np.ones((6, 1)), p)
        np.testing.assert_allclose(lw.w, 1.0 / 6.0, atol=1e-10)
        assert lw.total == pytest.approx(1.0, abs=1e-6)


def test_p2_equals_leverage():
    A = np.random.default_rng(11).standard_normal((50, 5))
    lw = lewis_weights(A, 2.0)
    np.testing.assert_allclose(lw.w, leverage_scores(A).scores, atol=1e-8)


def test_fixed_point_residual_and_sum():
    r = np.random.default_rng(2)
    for p in ALL_P:
        A = r.standard_normal((80, 6))
        lw = lewis_weights(A, p, tol=1e-9)
        assert lw.converged and lw.residual <= 1e-9
        assert lw.total == pytest.approx(6.0, abs=1e-6)
        # residual definition: a_i^T (A^T W^(1-2/p) A)^(-1) a_i == w_i^(2/p)
        B = A.T @ ((lw.w ** (1.0 - 2.0 / p))[:, None] * A)
        quad = np.einsum("ij,jk,ik->i", A, np.linalg.inv(B), A)
        np.testing.assert_allclose(quad, lw.w ** (2.0 / p), rtol=5e-9)


def test_rotation_invariance():
    r = np.random.default_rng(3)
    A = r.standard_normal((40, 4))
    base = lewis_weights(A, 1.0).w
    for _ in range(3):
        R = r.standard_normal((4, 4))
        np.testing.assert_allclose(lewis_weights(A @ R, 1.0).w, base, atol=1e-6)


def test_scaling_invariance():
    A = np.random.default_rng(4).standard_normal((30, 3))
    base = lewis_weights(A, 1.25).w
    # At 1e-170 every squared row norm underflows to 0, yet no row is zero.
    for c in (7.5, 1e-170):
        np.testing.assert_allclose(lewis_weights(c * A, 1.25).w, base, atol=1e-8)


def test_zero_rows_get_zero_weight():
    # The second case puts zero rows on both sides of the first block boundary.
    for n, zero in ((22, [0, 1]), (2 * BLOCK + 9, [BLOCK - 2, BLOCK - 1, BLOCK, BLOCK + 3])):
        A = np.random.default_rng(5).standard_normal((n - len(zero), 3))
        A = np.insert(A, np.subtract(zero, np.arange(len(zero))), 0.0, axis=0)
        nonzero = np.any(A, axis=1)
        assert np.flatnonzero(~nonzero).tolist() == zero
        lw = lewis_weights(A, 1.0)
        assert np.all(lw.w[~nonzero] == 0.0)
        assert np.all(lw.w[nonzero] > 0.0)
        assert lw.total == pytest.approx(3.0, abs=1e-6)
        np.testing.assert_allclose(lw.w[nonzero], lewis_weights(A[nonzero], 1.0).w, rtol=1e-12)


def test_nonconvergence_reported_not_raised():
    A = np.random.default_rng(6).standard_normal((30, 3))
    lw = lewis_weights(A, 1.0, tol=1e-14, max_iter=2)
    assert not lw.converged
    assert lw.residual > 1e-14
    assert lw.iterations == 2


def _svd_leverage(A, w, p):
    """Leverage scores ||x_i V S^(-1)||^2 of X = W^(1/2-1/p) A = U S V^T, rows with w > 0.

    rowsum(U^2) carries an absolute error near eps, which swamps the scores
    of rows with tiny weights; this form computes each score from its row.
    The scores do not change under column scaling, so X's columns are
    equilibrated first, which keeps S's spread down to X's own conditioning.
    """
    nz = w > 0
    X = (w[nz] ** (0.5 - 1.0 / p))[:, None] * A[nz]
    X /= np.linalg.norm(X, axis=0)
    _, S, Vt = np.linalg.svd(X, full_matrices=False)
    Y = X @ (Vt.T / S)
    return np.einsum("ij,ij->i", Y, Y)


def _svd_residual(A, w, p):
    """The fixed-point residual max_i |tau_i / w_i - 1|, recomputed by SVD."""
    return float(np.max(np.abs(_svd_leverage(A, w, p) / w[w > 0] - 1.0)))


def _plain_iterates(A, p, count):
    """w_0 = d/n, then the plain recurrence on SVD leverage scores, each rescaled to sum d."""
    d = A.shape[1]
    ws = [np.full(A.shape[0], d / A.shape[0])]
    while len(ws) < count:
        w = ws[-1] ** (1.0 - p / 2.0) * _svd_leverage(A, ws[-1], p) ** (p / 2.0)
        ws.append(w * (d / np.sum(w)))
    return ws


def _mixed_iterates(A, p, count):
    """The first `count` iterates of `lewis_weights` replayed on SVD leverage scores.

    Type-II Anderson mixing of depth 2 in x = log w: the plain step is
    f = (p/2) log(tau / w), the next iterate x + f - (dX + dF) gamma with
    gamma minimizing ||f - dF gamma||, the history dropped whenever the
    residual does not fall, and each iterate rescaled to sum d.
    """
    d = A.shape[1]
    x = np.full(A.shape[0], np.log(d / A.shape[0]))
    ws = [np.exp(x)]
    dF, dG, prev, last = [], [], None, np.inf
    while len(ws) < count:
        f = np.log(_svd_leverage(A, np.exp(x), p)) - x
        residual = np.max(np.abs(np.expm1(f)))
        f *= p / 2.0
        g = x + f
        if residual >= last:
            dF, dG, prev = [], [], None
        if prev is not None:
            dF, dG = [*dF, f - prev[0]][-2:], [*dG, g - prev[1]][-2:]
        prev, last, x = (f, g), residual, g
        if dF:
            F = np.array(dF)
            x = g - np.linalg.lstsq(F @ F.T, F @ f, rcond=None)[0] @ np.array(dG)
        x = x - np.log(np.sum(np.exp(x)) / d)
        ws.append(np.exp(x))
    return ws


def test_gram_path_matches_svd_reference(monkeypatch):
    from lewisreg import lewis

    def no_fallback(X):
        raise AssertionError("well-conditioned input took the QR fallback")

    monkeypatch.setattr(lewis, "_qr_inverse", no_fallback)
    # Column scales up to 1e8: the equilibrated Gram matrix stays well conditioned.
    for n, p in ((3000, 1.0), (3000, 1.5), (TALL, 1.0), (TALL, 1.5)):
        A = np.random.default_rng(21).standard_normal((n, 6)) * np.logspace(0, 8, 6)
        lw = lewis_weights(A, p)
        assert lw.converged
        # max_iter=1 and 2 return iterates 0 and 1, which precede any mixing.
        for k, w in enumerate(_plain_iterates(A, p, 2), start=1):
            np.testing.assert_allclose(lewis_weights(A, p, max_iter=k).w, w, rtol=1e-12)
        np.testing.assert_allclose(lw.w, _mixed_iterates(A, p, lw.iterations)[-1], rtol=1e-12)
        assert _svd_residual(A, lw.w, p) <= 1e-8


@pytest.mark.parametrize("p", [1.0, 1.5])
def test_rescaled_iterate_is_plain_iterate_rescaled(p):
    # Leverage scores of W^(1/2-1/p) A do not change when w becomes c*w, so
    # rescaling each iterate leaves the shape of the sequence unchanged. The
    # first two iterates precede any mixing; the rest follow its rule.
    A = np.random.default_rng(31).standard_normal((400, 5)) * np.logspace(0, 2, 5)
    plain, mixed = _plain_iterates(A, p, 2), _mixed_iterates(A, p, 7)
    for k in range(1, 8):
        lw = lewis_weights(A, p, tol=1e-15, max_iter=k)
        assert lw.iterations == k
        if k <= 2:
            np.testing.assert_allclose(lw.w, plain[k - 1], rtol=1e-12)
        np.testing.assert_allclose(lw.w, mixed[k - 1], rtol=1e-12)


def test_mixing_history_dropped_when_residual_rises():
    # On this input the residual rises from 0.26 at iterate 3 to 0.34 at
    # iterate 4 (iterate 0 is uniform), so the mixing drops its history and
    # takes a plain step there.
    A = gen_random(1000, 4, heavy_row_scale=1e3, seed=2).instance.A
    lw = lewis_weights(A, 1.0)
    assert lw.converged
    mixed = _mixed_iterates(A, 1.0, lw.iterations)
    residuals = [_svd_residual(A, w, 1.0) for w in mixed]
    assert any(b >= a for a, b in zip(residuals, residuals[1:]))
    np.testing.assert_allclose(lw.w, mixed[-1], rtol=1e-12)


def test_gaussian_converges_in_few_iterations():
    # The plain recurrence takes 24 iterations here: its scale contracts at
    # rate 1 - p/2, and rescaling to sum d removes that direction.
    A = np.random.default_rng(32).standard_normal((20_000, 10))
    lw = lewis_weights(A, 1.0)
    assert lw.converged and lw.iterations <= 10
    assert abs(lw.total - 10.0) <= 1e-12
    assert _svd_residual(A, lw.w, 1.0) <= 1e-7


@pytest.mark.parametrize("p", [1.0, 1.5])
def test_cauchy_coherent_design_converges(p):
    r = np.random.default_rng(33)
    A = np.abs(r.standard_cauchy(20_000))[:, None] * r.standard_normal((20_000, 10))
    lw = lewis_weights(A, p)
    assert lw.converged
    assert _svd_residual(A, lw.w, p) <= 1e-7


@pytest.mark.parametrize("seed, p", [(14, 1.0), (9, 1.5)])
def test_cubed_cauchy_design_converges(seed, p):
    # Row scales |Cauchy|^3 give weights down to 1e-21 and 1e-36. Scores read
    # off a Householder Q have an absolute error near eps, so these ran 500
    # iterations unconverged; row-relative scores converge.
    r = np.random.default_rng(seed)
    A = np.abs(r.standard_cauchy(20_000))[:, None] ** 3 * r.standard_normal((20_000, 10))
    lw = lewis_weights(A, p)
    assert lw.converged
    assert _svd_residual(A, lw.w, p) <= 1e-7


def test_heavy_row_converges_in_few_iterations():
    # With one row 1e4 times the rest, the slow mode of the plain recurrence
    # is the shape of w, not its scale: it takes 30 iterations here.
    A = gen_random(2000, 5, heavy_row_scale=1e4, seed=1).instance.A
    lw = lewis_weights(A, 1.0)
    assert lw.converged and lw.iterations <= 15
    assert _svd_residual(A, lw.w, 1.0) <= 1e-7


def test_peak_memory_within_three_buffer_kernel(traced_peak):
    # The kernel this replaced held three n x d buffers and peaked at
    # 13 652 227 bytes on this input; the mixing history must fit in the room
    # the third buffer left.
    A = np.random.default_rng(0).standard_normal((50_000, 10))
    _, peak, _ = traced_peak(lambda: lewis_weights(A, 1.0))
    assert peak <= 13_652_227


def test_peak_memory_within_blocked_kernel(traced_peak):
    # B, the one n x d copy, a dozen n-vectors (iterate, scores, mixing
    # history) and room for two d x block buffers: 9.46 MB here, which a
    # second n x d buffer would overrun.
    n, d = 50_000, 10
    A = np.random.default_rng(0).standard_normal((n, d))
    _, peak, _ = traced_peak(lambda: lewis_weights(A, 1.0))
    assert peak <= 8 * n * d + 12 * 8 * n + 2 * 8 * d * BLOCK


def test_extreme_matrix_scale_stays_on_gram_path(monkeypatch):
    from lewisreg import lewis

    calls = []
    qr = lewis._qr_inverse

    def counting_qr(X):
        calls.append(X.shape)
        return qr(X)

    monkeypatch.setattr(lewis, "_qr_inverse", counting_qr)
    # Unscaled, X^T X underflows at 1e-170 and overflows at 1e170.
    for n in (2000, TALL):
        A = np.random.default_rng(23).standard_normal((n, 6))
        base = lewis_weights(A, 1.0)
        for c in (1e-170, 1e170):
            lw = lewis_weights(c * A, 1.0)
            assert lw.iterations == base.iterations
            np.testing.assert_allclose(lw.w, base.w, rtol=1e-12)
    assert calls == []


def test_heavy_row_residual_holds_under_svd(monkeypatch):
    # A coherent heavy row makes the Gram matrix ill-conditioned; a residual
    # claimed from Cholesky leverage scores there is off by ~100x. The QR
    # fallback factors X^T itself within one block, and the stack of the
    # blocks' triangular factors, d columns per block, beyond.
    calls = []
    qr = lewis_module._qr_inverse
    monkeypatch.setattr(lewis_module, "_qr_inverse", lambda X: calls.append(X.shape) or qr(X))
    for n, shape in ((2000, (5, 2000)), (TALL, (5, 5 * 4))):
        calls.clear()
        A = gen_random(n, 5, heavy_row_scale=1e6, seed=1).instance.A
        lw = lewis_weights(A, 1.5)
        assert lw.converged and lw.residual <= 1e-8
        assert _svd_residual(A, lw.w, 1.5) <= 1e-7
        assert calls and set(calls) == {shape}


def test_near_collinear_columns_converge():
    A = np.random.default_rng(0).standard_normal((2000, 5))
    A[:, 1] = A[:, 0] + 1e-5 * A[:, 1]
    lw = lewis_weights(A, 1.0)
    assert lw.converged
    assert _svd_residual(A, lw.w, 1.0) <= 1e-7


def test_non_finite_iteration_raises():
    # Row scales over 200 or 400 decades: leverage scores of the small rows
    # underflow, so the fixed point is not representable in float64.
    G = np.random.default_rng(22).standard_normal((2000, 6))
    for decades in (100, 200):
        A = np.logspace(-decades, decades, 2000)[:, None] * G
        with pytest.raises(DegenerateMatrixError, match="non-finite"):
            lewis_weights(A, 1.0)


def test_rank_deficient_raises():
    A = np.ones((10, 2))
    with pytest.raises(DegenerateMatrixError):
        lewis_weights(A, 1.0)
    with pytest.raises(ValueError):
        lewis_weights(np.eye(3), 2.5)


@pytest.mark.parametrize("p", [1.0, 1.5])
@pytest.mark.parametrize("gap", [1e-10, 1e-11, 1e-12, 1e-13, 1e-14, 1e-15, 0.0])
def test_collinear_columns_raise_at_first_qr(monkeypatch, p, gap):
    # The Gram guard sends the first iterate to the QR, and its R fails the
    # rank rule. The old 1e-14 test on R's diagonal let 1e-10 to 1e-13
    # through, to 500 QR iterations and converged=False.
    calls = []
    qr = lewis_module._qr_inverse
    monkeypatch.setattr(lewis_module, "_qr_inverse", lambda X: calls.append(1) or qr(X))
    for n in (2000, TALL):
        calls.clear()
        A = np.random.default_rng(0).standard_normal((n, 5))
        A[:, 1] = A[:, 0] + gap * A[:, 1]
        with pytest.raises(DegenerateMatrixError, match="rank"):
            lewis_weights(A, p)
        assert len(calls) <= 1


@pytest.mark.parametrize("p", [1.0, 1.5])
@pytest.mark.parametrize("gap", [1e-8, 1e-9])
def test_collinear_columns_stop_at_rounding_floor(monkeypatch, p, gap):
    # eps * cond(X) keeps the residual near 1e-7 (1e-8) and 1e-6 (1e-9), above
    # tol, where it wanders without converging; these ran all 500 iterations.
    # The stall stop returns the best iterate it saw, not the last one.
    seen = []
    leverage = lewis_module._scaled_leverage

    def recording(B, x, p, tol, X, tau, v):
        leverage(B, x, p, tol, X, tau, v)
        with np.errstate(divide="ignore", over="ignore"):
            f = np.log(tau) - x
            residual = float(np.max(np.abs(np.expm1([f.min(), f.max()]))))
        seen.append((residual, np.exp(x)))
        return tau

    monkeypatch.setattr(lewis_module, "_scaled_leverage", recording)
    A = np.random.default_rng(0).standard_normal((2000, 5))
    A[:, 1] = A[:, 0] + gap * A[:, 1]
    lw = lewis_weights(A, p)
    assert not lw.converged
    assert lw.iterations <= 50
    assert lw.residual < 1e-5 and np.isfinite(lw.gamma)
    best, w = min(seen, key=lambda rw: rw[0])
    assert lw.residual == best < seen[-1][0]
    assert lw.gamma == lewis_module._claimed_gamma(best, p)
    np.testing.assert_array_equal(lw.w, w)


@pytest.mark.parametrize("p", [1.0, 1.5])
def test_tiny_column_scale_keeps_weights(p):
    # Lewis weights do not depend on column scale, and a column 1e-12 times
    # the others is not a rank loss.
    A = np.random.default_rng(34).standard_normal((2000, 5))
    base = lewis_weights(A, p)
    A[:, 2] *= 1e-12
    lw = lewis_weights(A, p)
    assert lw.converged and lw.iterations <= 10
    np.testing.assert_allclose(lw.w, base.w, rtol=1e-12)


def test_importance_identity_row():
    assert importance_weight_oracle(np.eye(3), 1.0, 0) == pytest.approx(1.0, abs=1e-9)


def test_importance_d1_closed_form():
    A = np.array([[1.0], [2.0]])
    assert importance_weight_oracle(A, 1.0, 1) == pytest.approx(2.0 / 3.0)
    assert importance_weight_oracle(A, 1.5, 0) == pytest.approx(
        1.0 / (1.0 + 2.0**1.5)
    )


def test_importance_zero_row():
    A = np.vstack([np.zeros(2), np.eye(2)])
    assert importance_weight_oracle(A, 1.0, 0) == 0.0


def test_importance_rank_deficient_raises():
    for A in (np.ones((5, 2)), np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 0.0]])):
        with pytest.raises(DegenerateMatrixError):
            importance_weights(A, 1.5)


def test_importance_hypercube_matches_angle_grid():
    A = hypercube_rows()
    thetas = np.linspace(0.0, np.pi, 200001)
    B = np.stack([np.cos(thetas), np.sin(thetas)])
    scores = np.abs(A @ B)
    grid_sup = (scores / scores.sum(axis=0)).max(axis=1)
    np.testing.assert_allclose(grid_sup, 0.5, atol=1e-9)
    for row in range(4):
        got = importance_weight_oracle(A, 1.0, row)
        assert got == pytest.approx(0.5, abs=1e-6)


def test_importance_p2_equals_leverage():
    A = np.random.default_rng(8).standard_normal((25, 3))
    lev = leverage_scores(A).scores
    iw = importance_weights(A, 2.0, starts=6, seed=1)
    np.testing.assert_allclose(iw.u, lev, rtol=1e-9)


def sandwich_corpus_matrix(k):
    """Instance k of the acceptance criterion-3 corpus."""
    r = np.random.default_rng(2000 + k)
    n = int(r.integers(8, 51))
    d = int(r.integers(2, 5))
    return r.standard_normal((max(n, 2 * d), d))


def sweep_sup(A, v, p):
    """max over 200 001 unit b in R^2 of |v^T b|^p / ||A b||_p^p."""
    thetas = np.linspace(0.0, np.pi, 200_001)
    B = np.stack([np.cos(thetas), np.sin(thetas)])
    return float(np.max(np.abs(v @ B) ** p / np.sum(np.abs(A @ B) ** p, axis=0)))


def l1_importance_by_lp(A, v):
    """sup_b |v^T b| / ||A b||_1 = min{||z||_inf : A^T z = v} by LP duality, by HiGHS.

    The tolerances are tightened from HiGHS's 1e-7: at the defaults, rows
    collinear to cond 1e6 come out up to 1.8% off an exact rational
    enumeration, at 1e-10 within 1.5e-11.
    """
    from scipy.optimize import linprog

    n, d = A.shape
    c = np.r_[np.zeros(n), 1.0]
    bound = np.block([[np.eye(n), -np.ones((n, 1))], [-np.eye(n), -np.ones((n, 1))]])
    eq = np.hstack([A.T, np.zeros((d, 1))])
    return linprog(c, A_ub=bound, b_ub=np.zeros(2 * n), A_eq=eq, b_eq=v,
                   bounds=[(None, None)] * n + [(0, None)], method="highs",
                   options={"primal_feasibility_tolerance": 1e-10,
                            "dual_feasibility_tolerance": 1e-10}).fun


def p1_case(case):
    """A matrix and its exact p = 1 importance weights: by HiGHS, unless the case derives them."""
    if isinstance(case, int):
        A = sandwich_corpus_matrix(case)
    elif case == "rows-scaled-2^+-400":
        # Even rows times 2^400, odd rows times 2^-400. The large rows alone
        # have full rank, and the small ones add a relative 2^-800 to
        # ||A b||_1, so u_i = 2^(e_i - 400) sup_b |a_i^T b| / ||A_large b||_1
        # to that accuracy.
        A = sandwich_corpus_matrix(2)
        e = np.where(np.arange(A.shape[0]) % 2 == 0, 400, -400)
        exact = [2.0 ** (ei - 400) * l1_importance_by_lp(A[::2], a) for a, ei in zip(A, e)]
        return np.ldexp(A, e[:, None]), np.array(exact)
    elif case == "copies-of-one-row":
        # From the pair (2, 3) on, every pair of rows is degenerate: whole
        # blocks of subsets have no facet. ||A b||_1 is that of the 3 x 3
        # matrix [254 a; r_0; r_1], whose u is 1 for each row.
        r = np.random.default_rng(32)
        A = np.vstack([r.standard_normal((2, 3)), np.tile(r.standard_normal(3), (254, 1))])
        return A, np.r_[1.0, 1.0, np.full(254, 1.0 / 254)]
    else:
        r = np.random.default_rng(29)
        A0 = sandwich_corpus_matrix(0)
        A = {
            "duplicate-rows": lambda: np.vstack([A0, A0[:4], -A0[4:6], 2 * A0[6:8]]),
            "zero-row": lambda: np.insert(A0, 5, 0.0, axis=0),
            "collinear-rows": lambda: (np.outer(r.standard_normal(20), r.standard_normal(3))
                                       + 1e-6 * r.standard_normal((20, 3))),
            "d1": lambda: r.standard_normal((9, 1)),
            "d5": lambda: r.standard_normal((18, 5)),
        }[case]()
    return A, np.array([l1_importance_by_lp(A, a) for a in A])


P1_CASES = [*range(6), "duplicate-rows", "zero-row", "collinear-rows",
            "d1", "d5", "rows-scaled-2^+-400", "copies-of-one-row"]


@pytest.mark.parametrize("case", P1_CASES)
def test_importance_p1_matches_lp(monkeypatch, case):
    # Every case is within the facet bounds, so the enumeration alone answers.
    monkeypatch.setattr(lewis_module, "solve_weighted_l1", None)
    A, exact = p1_case(case)
    if case == "collinear-rows":
        assert 1e6 <= np.linalg.cond(A) <= 1e7
    np.testing.assert_allclose(importance_weights(A, 1.0).u, exact, rtol=1e-9)


@pytest.mark.parametrize("case", P1_CASES)
def test_importance_p1_regressions_match_lp(monkeypatch, case):
    # With the subset bound at 0, each row takes one certified regression.
    monkeypatch.setattr(lewis_module, "_FACETS_PER_ROW", 0)
    monkeypatch.setattr(lewis_module, "_facet_importance", None)
    A, exact = p1_case(case)
    np.testing.assert_allclose(importance_weights(A, 1.0).u, exact, rtol=1e-9)


def test_certify_corpus_enumerates_facets_without_a_solver(monkeypatch):
    # The benchmark's sandwich slice, the 44 x 4 matrix (301 subsets per row)
    # included, runs no regression.
    def no_solver(*args, **kw):
        raise AssertionError("the facet enumeration ran a solver")

    monkeypatch.setattr(lewis_module, "solve_weighted_l1", no_solver)
    assert sandwich_corpus_matrix(2).shape == (44, 4)
    for k in range(6):
        A = sandwich_corpus_matrix(k)
        lw = lewis_weights(A, 1.0)
        assert sandwich_check(A, 1.0, lw, importance_weights(A, 1.0)).ok


def test_importance_p1_past_facet_bound_solves_each_row(monkeypatch):
    # One requested row of the 44 x 4 matrix has C(44, 3) = 13244 subsets to
    # itself, and a 30 x 5 matrix 914 per row: both past the bound, so each
    # row takes one certified L1 regression, which agrees with the facets.
    solve, calls = lewis_module.solve_weighted_l1, []
    monkeypatch.setattr(lewis_module, "solve_weighted_l1",
                        lambda *args, **kw: calls.append(solve(*args, **kw)) or calls[-1])
    A = sandwich_corpus_matrix(2)
    facets = lewis_module._facet_importance(A)
    assert importance_weight_oracle(A, 1.0, 7) == pytest.approx(facets[7], rel=1e-9)
    assert len(calls) == 1
    B = np.random.default_rng(30).standard_normal((30, 5))
    np.testing.assert_allclose(importance_weights(B, 1.0).u,
                               lewis_module._facet_importance(B), rtol=1e-9)
    assert len(calls) == 31 and all(r.status == "converged" for r in calls)


@pytest.mark.parametrize("shape", [(20, 20), (24, 24), (25, 24)])
def test_importance_p1_past_facet_max_d_solves_each_row(monkeypatch, shape):
    # Within the subset bound (20 to 300 subsets), but d is past the measured
    # range of the enumeration, so each row takes one certified regression.
    A = np.random.default_rng(31).standard_normal(shape)
    enumerate_facets = lewis_module._facet_importance
    monkeypatch.setattr(lewis_module, "_facet_importance", None)
    u = importance_weights(A, 1.0).u
    np.testing.assert_allclose(u, [l1_importance_by_lp(A, a) for a in A], rtol=1e-9)
    # The enumeration itself costs d determinants per subset, not 2^d.
    if shape[0] == shape[1]:
        np.testing.assert_allclose(u, 1.0, rtol=1e-9)
        np.testing.assert_allclose(enumerate_facets(A), 1.0, rtol=1e-9)


@pytest.mark.parametrize("k, row", [(14, 18), (16, 7), (17, 16)])
def test_sup_ratio_reduced_solve_certified(monkeypatch, k, row):
    # Optimal to 1e-13, but a relative-gradient test called these max-iter:
    # near p = 1 the gradient at a tiny residual is rounding noise. Stopped
    # on the duality gap, the solve takes a few Newton steps.
    A = sandwich_corpus_matrix(k)
    solve, results = lewis_module.solve_weighted_lp, []
    monkeypatch.setattr(lewis_module, "solve_weighted_lp",
                        lambda *args, **kw: results.append(solve(*args, **kw)) or results[-1])
    lewis_module._sup_ratio(A, A[row], 1.25)
    assert [r.status for r in results] == ["converged"]
    assert results[0].iterations <= 20


def test_sup_ratio_rejects_uncertified_solve(monkeypatch):
    A = sandwich_corpus_matrix(0)
    monkeypatch.setattr(lewis_module, "solve_weighted_lp", lambda AN, y, p, **kw: SolveResult(
        beta=np.zeros(AN.shape[1]), objective=1.0, iterations=1, status="max-iter", gap=1e-3))
    with pytest.raises(RuntimeError, match="not certified"):
        lewis_module._sup_ratio(A, A[0], 1.5)


@pytest.mark.parametrize("p", [1.25, 1.5])
def test_importance_d2_matches_angle_sweep(p):
    A = np.random.default_rng(21).standard_normal((30, 2))
    u = importance_weights(A, p).u
    for i in range(A.shape[0]):
        sweep = sweep_sup(A, A[i], p)
        assert sweep * (1 - 1e-12) <= u[i] <= sweep * (1 + 1e-4)


def test_sandwich_identity_and_ones():
    lw = lewis_weights(np.eye(3), 1.0)
    iw = importance_weights(np.eye(3), 1.0, starts=4, seed=0)
    rep = sandwich_check(np.eye(3), 1.0, lw, iw)
    assert rep.ok
    np.testing.assert_allclose(iw.u, lw.w, atol=1e-9)

    A = np.ones((4, 1))
    lw = lewis_weights(A, 1.0)
    iw = importance_weights(A, 1.0)
    rep = sandwich_check(A, 1.0, lw, iw)
    assert rep.ok
    np.testing.assert_allclose(iw.u, 0.25, atol=1e-12)


def test_sandwich_hypercube():
    A = hypercube_rows()
    lw = lewis_weights(A, 1.0)
    np.testing.assert_allclose(lw.w, 0.5, atol=1e-8)
    iw = importance_weights(A, 1.0, starts=8, seed=0)
    rep = sandwich_check(A, 1.0, lw, iw, slack=1e-3)
    assert rep.ok
    # lower bound 2^(-1/2) * 0.5 ~ 0.3536 sits strictly below u = 0.5
    assert rep.lower[0] == pytest.approx(0.5 / np.sqrt(2) * (1 - 1e-3))


def test_sandwich_requires_convergence():
    A = np.random.default_rng(9).standard_normal((10, 2))
    lw = lewis_weights(A, 1.0, tol=1e-15, max_iter=1)
    iw = importance_weights(A, 1.0, starts=2, seed=0)
    with pytest.raises(ValueError):
        sandwich_check(A, 1.0, lw, iw)


def test_split_row_identity_for_k1():
    A = np.random.default_rng(10).standard_normal((6, 2))
    np.testing.assert_array_equal(split_row(A, 3, 1, 1.5), A)


def test_split_row_lewis_pattern_example():
    A = np.ones((2, 1))
    B = split_row(A, 1, 2, 1.0)
    np.testing.assert_allclose(B[:, 0], [1.0, 0.5, 0.5])
    lw = lewis_weights(B, 1.0)
    np.testing.assert_allclose(lw.w, [0.5, 0.25, 0.25], atol=1e-8)


def test_split_row_importance_pattern_d1():
    B = split_row(np.ones((2, 1)), 1, 2, 1.0)
    u = importance_weights(B, 1.0).u
    np.testing.assert_allclose(u, [0.5, 0.25, 0.25], atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 4), st.integers(1, 5), st.floats(1.0, 2.0))
def test_split_preserves_lp_energy(row, k, p):
    r = np.random.default_rng(1234)
    A = r.standard_normal((5, 3))
    B = split_row(A, row, k, p)
    assert B.shape == (5 + k - 1, 3)
    for _ in range(5):
        beta = r.standard_normal(3)
        before = np.sum(np.abs(A @ beta) ** p)
        after = np.sum(np.abs(B @ beta) ** p)
        assert after == pytest.approx(before, rel=1e-12)


def test_split_lewis_weights_over_random_splits():
    r = np.random.default_rng(12)
    for trial in range(20):
        n, d = int(r.integers(6, 20)), int(r.integers(2, 4))
        A = r.standard_normal((n, d))
        p = float(r.choice([1.0, 1.25, 1.5, 2.0]))
        row = int(r.integers(0, n))
        k = int(r.integers(2, 5))
        w = lewis_weights(A, p, tol=1e-10).w
        expect = np.concatenate([w[:row], np.full(k, w[row] / k), w[row + 1:]])
        got = lewis_weights(split_row(A, row, k, p), p, tol=1e-10).w
        np.testing.assert_allclose(got, expect, atol=1e-6)


def test_uniformity_identity_and_ones():
    lw = lewis_weights(np.eye(5), 1.0)
    rep = uniformity_report(np.eye(5), 1.0, lw)
    assert rep.alpha == pytest.approx(1.0, abs=1e-8)
    assert rep.ok

    A = np.ones((8, 1))
    rep = uniformity_report(A, 1.0, lewis_weights(A, 1.0))
    assert rep.alpha == pytest.approx(1.0, abs=1e-8)


def test_uniformity_near_orthogonal_matrix():
    A = np.random.default_rng(13).standard_normal((200, 4))
    lw = lewis_weights(A, 1.0)
    rep = uniformity_report(A, 1.0, lw)
    assert np.isfinite(rep.alpha)
    assert rep.exponent == pytest.approx(3.0)
    assert rep.alpha_leverage <= rep.alpha**3.0 * (1 + 1e-6)
    assert rep.ok
