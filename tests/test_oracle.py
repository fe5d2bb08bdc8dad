import numpy as np
import pytest

from lewisreg import (
    BudgetExceededError,
    QueryLedger,
    RegressionInstance,
    active_solve,
    plan_l1,
    query,
    solve_weighted_l1,
)


def make_instance(n=12, d=2, seed=0):
    r = np.random.default_rng(seed)
    A = r.standard_normal((n, d))
    y = r.standard_normal(n)
    return RegressionInstance(A, y, 1.0)


def test_repeat_queries_free():
    inst = make_instance()
    ledger = QueryLedger()
    a = query(inst, ledger, 3)
    b = query(inst, ledger, 3)
    assert a == b
    assert ledger.count == 1
    assert ledger.queried == [3]


def test_budget_enforced():
    inst = make_instance()
    ledger = QueryLedger(budget=5)
    for i in range(5):
        query(inst, ledger, i)
    query(inst, ledger, 2)  # cached, still free
    with pytest.raises(BudgetExceededError):
        query(inst, ledger, 7)


def test_full_sweep_reconstructs_labels():
    inst = make_instance()
    ledger = QueryLedger()
    got = np.array([query(inst, ledger, i) for i in range(inst.n)])
    assert ledger.count == inst.n
    np.testing.assert_array_equal(got, inst.reveal_hidden_labels())


def test_invalid_index():
    inst = make_instance()
    with pytest.raises(IndexError):
        query(inst, QueryLedger(), inst.n)


def test_active_solve_full_plan_recovers_optimum():
    inst = make_instance(n=25, d=3, seed=1)
    plan = plan_l1(np.full(25, 1.0), gamma=1.0, u_override=0.5)  # p_i = 1 everywhere
    outcome = active_solve(inst, plan, seed=0)
    assert outcome.ledger.count == 25
    full = solve_weighted_l1(inst.A, inst.reveal_hidden_labels())
    assert outcome.result.objective == pytest.approx(full.objective, rel=1e-9)


def test_active_solve_ledger_equals_support():
    inst = make_instance(n=300, d=3, seed=2)
    plan = plan_l1(np.full(300, 3.0 / 300), gamma=1.0, u_override=0.05)
    for seed in range(10):
        outcome = active_solve(inst, plan, seed=seed)
        assert outcome.ledger.count == outcome.sketch.support_size
        np.testing.assert_array_equal(
            np.sort(outcome.ledger.queried), outcome.sketch.indices
        )


def test_active_solve_degenerate_support():
    inst = make_instance(n=50, d=3, seed=3)
    plan = plan_l1(np.full(50, 1e-9), gamma=1.0, u_override=0.5)
    outcome = active_solve(inst, plan, seed=1)
    assert outcome.sketch.support_size < 3
    assert outcome.result.status == "degenerate"


def test_active_solve_budget_propagates():
    inst = make_instance(n=40, d=2, seed=4)
    plan = plan_l1(np.full(40, 1.0), gamma=1.0, u_override=0.5)
    with pytest.raises(BudgetExceededError):
        active_solve(inst, plan, seed=0, budget=10)


def test_plan_size_mismatch():
    inst = make_instance(n=10)
    plan = plan_l1(np.full(9, 0.5), gamma=1.0, u_override=0.5)
    with pytest.raises(ValueError):
        active_solve(inst, plan, seed=0)


def test_active_solve_raises_on_ledger_mismatch(monkeypatch):
    from lewisreg import oracle

    # A label read that bypasses the meter must not go unnoticed, even under -O.
    monkeypatch.setattr(oracle, "query", lambda instance, ledger, i: float(instance._y[i]))
    inst = make_instance(n=30, d=2, seed=5)
    plan = plan_l1(np.full(30, 1.0), gamma=1.0, u_override=0.5)
    with pytest.raises(RuntimeError, match="ledger"):
        active_solve(inst, plan, seed=0)
