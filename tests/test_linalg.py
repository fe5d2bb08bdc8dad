import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lewisreg import DegenerateMatrixError, leverage_scores, lp_norm, weighted_lp_loss
from lewisreg.linalg import BLOCK, as_matrix, tsqr


def test_leverage_identity():
    lev = leverage_scores(np.eye(3))
    np.testing.assert_allclose(lev.scores, [1.0, 1.0, 1.0], atol=1e-12)
    assert lev.rank == 3


def test_leverage_ones_column():
    lev = leverage_scores(np.ones((4, 1)))
    np.testing.assert_allclose(lev.scores, 0.25, atol=1e-12)
    assert lev.rank == 1
    assert np.sum(lev.scores) == pytest.approx(1.0, abs=1e-8)


def test_leverage_matches_gram_inverse_oracle():
    r = np.random.default_rng(7)
    A = r.standard_normal((20, 3))
    gram_inv = np.linalg.inv(A.T @ A)
    expect = np.einsum("ij,jk,ik->i", A, gram_inv, A)
    got = leverage_scores(A).scores
    np.testing.assert_allclose(got, expect, atol=1e-10)


def test_leverage_sum_equals_rank():
    r = np.random.default_rng(0)
    for k in range(10):
        n, d = int(r.integers(5, 60)), int(r.integers(1, 8))
        A = r.standard_normal((n, d))
        lev = leverage_scores(A)
        assert np.sum(lev.scores) == pytest.approx(lev.rank, abs=1e-8)


def test_leverage_rotation_invariance():
    r = np.random.default_rng(1)
    A = r.standard_normal((25, 4))
    base = leverage_scores(A).scores
    for _ in range(5):
        R = r.standard_normal((4, 4))
        np.testing.assert_allclose(leverage_scores(A @ R).scores, base, atol=1e-8)


def test_leverage_rank_deficient_input():
    A = np.zeros((5, 2))
    A[:, 0] = np.arange(5.0)  # rank 1, should not crash
    lev = leverage_scores(A)
    assert lev.rank == 1
    assert np.sum(lev.scores) == pytest.approx(1.0, abs=1e-8)


def test_leverage_all_zero_raises():
    with pytest.raises(DegenerateMatrixError):
        leverage_scores(np.zeros((4, 2)))


def test_nan_rejected():
    bad = np.ones((2, 2))
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        leverage_scores(bad)


def test_as_matrix_finiteness_without_a_mask():
    for bad in (np.nan, np.inf, -np.inf):
        A = np.ones((5, 3))
        A[3, 1] = bad
        with pytest.raises(ValueError, match="NaN or Inf"):
            as_matrix(A)
    # Finite entries whose sum overflows are accepted, without a warning.
    huge = np.full((4, 3), 1e308)
    huge[0, 0] = -1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert as_matrix(huge) is huge
    assert as_matrix(np.empty((0, 3))).shape == (0, 3)


def test_lp_norm_examples():
    assert lp_norm([3.0, 4.0], 2.0) == pytest.approx(5.0)
    assert lp_norm([1.0, -1.0, 1.0], 1.0) == pytest.approx(3.0)
    assert lp_norm([1.0, 1.0], 1.5) == pytest.approx(2.0 ** (2.0 / 3.0))
    assert lp_norm([0.0, 0.0], 1.5) == 0.0


def test_lp_norm_domain():
    for bad_p in (0.5, 2.5, -1.0):
        with pytest.raises(ValueError):
            lp_norm([1.0], bad_p)


@settings(max_examples=60, deadline=None)
@given(
    arrays(np.float64, 6, elements=st.floats(-1e6, 1e6)),
    arrays(np.float64, 6, elements=st.floats(-1e6, 1e6)),
    st.floats(1.0, 2.0),
)
def test_lp_norm_triangle_and_homogeneity(u, v, p):
    lhs = lp_norm(u + v, p)
    assert lhs <= lp_norm(u, p) + lp_norm(v, p) + 1e-7 * (1 + lhs)
    c = 3.7
    assert lp_norm(c * u, p) == pytest.approx(abs(c) * lp_norm(u, p), rel=1e-12, abs=1e-12)


def test_weighted_loss_exact_fit_is_zero():
    r = np.random.default_rng(3)
    A = r.standard_normal((8, 3))
    beta = r.standard_normal(3)
    assert weighted_lp_loss(A, A @ beta, beta, p=1.3) == pytest.approx(0.0, abs=1e-12)


def test_weighted_loss_examples():
    A = np.ones((2, 1))
    y = np.array([0.0, 2.0])
    assert weighted_lp_loss(A, y, [1.0], [1.0, 1.0], 1.0) == pytest.approx(2.0)
    assert weighted_lp_loss(A, y, [1.0], [2.0, 0.0], 1.0) == pytest.approx(2.0)


def test_weighted_loss_all_ones_matches_unweighted():
    r = np.random.default_rng(5)
    A = r.standard_normal((10, 2))
    y = r.standard_normal(10)
    b = r.standard_normal(2)
    assert weighted_lp_loss(A, y, b, np.ones(10), 1.5) == pytest.approx(
        weighted_lp_loss(A, y, b, p=1.5)
    )


def test_weighted_loss_dimension_mismatch():
    with pytest.raises(ValueError):
        weighted_lp_loss(np.ones((2, 1)), [0.0, 1.0, 2.0], [1.0], p=1.0)
    with pytest.raises(ValueError):
        weighted_lp_loss(np.ones((2, 1)), [0.0, 1.0], [1.0, 2.0], p=1.0)
    with pytest.raises(ValueError):
        weighted_lp_loss(np.ones((2, 1)), [0.0, 1.0], [1.0], [1.0], 1.0)


def test_weighted_loss_negative_weight_rejected():
    with pytest.raises(ValueError):
        weighted_lp_loss(np.ones((2, 1)), [0.0, 1.0], [1.0], [-1.0, 1.0], 1.0)


def _tsqr_inputs():
    r = np.random.default_rng(31)
    tall = 2 * BLOCK + 3         # two full blocks and a short last one
    collinear = r.standard_normal((tall, 4))
    collinear[:, 1] = collinear[:, 0] + 1e-6 * r.standard_normal(tall)   # cond near 1e6
    ints = r.integers(-5, 6, size=(tall, 6)).astype(float)
    return {
        "one-block": r.standard_normal((500, 6)),
        "blocks": r.standard_normal((tall, 10)),
        "fewer-rows-than-columns": r.standard_normal((3, 5)),
        "collinear": collinear,
        "magnitude-1e100": 1e100 * ints,
        "magnitude-1e-100": 1e-100 * ints,
    }


@pytest.mark.parametrize("name", list(_tsqr_inputs()))
def test_tsqr_is_a_qr_of_a(name):
    A = _tsqr_inputs()[name]
    n, d = A.shape
    k = min(n, d)
    eps = np.finfo(float).eps
    Q, R = tsqr(A)
    assert Q.shape == (n, k) and R.shape == (k, d) and Q.flags.f_contiguous
    assert np.max(np.abs(Q.T @ Q - np.eye(k))) <= 4 * n * eps
    assert np.linalg.norm(Q @ R - A) <= 4 * n * eps * np.linalg.norm(A)
    # Householder's R up to row signs, to R's perturbation bound n eps cond(A).
    R_ref = np.linalg.qr(A, mode="r")
    signs = np.sign(np.diag(R)) * np.sign(np.diag(R_ref))
    assert (np.linalg.norm(signs[:, None] * R - R_ref)
            <= n * eps * np.linalg.cond(A) * np.linalg.norm(A))
