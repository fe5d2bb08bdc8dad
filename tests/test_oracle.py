import re

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
from lewisreg.experiments import _plan, _random_instance, preset_config


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
    assert ledger.queried == (3,)


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


def loop_query(instance, queried, budget, indices):
    """Reference: the labels read one metered index at a time.

    `queried` is the reference's own list of metered indices, extended in place.
    """
    seen = set(queried)
    out = []
    for i in indices:
        i = int(i)
        if not 0 <= i < instance.n:
            raise IndexError(f"label index {i} out of range for {instance.n} rows")
        if i not in seen:
            if budget is not None and len(queried) >= budget:
                raise BudgetExceededError(f"query budget {budget} exhausted at index {i}")
            seen.add(i)
            queried.append(i)
        out.append(float(instance._y[i]))
    return np.array(out)


@pytest.mark.parametrize("indices, budget, seen", [
    ([5, 2, 5, 9, 2, 0], None, []),            # first-seen order, repeats free
    ([5, 2, 5, 9, 2, 0], None, [9, 1]),        # indices metered before are free
    ([3, 1, 3, 12, 4], None, []),              # past the last row
    ([3, -1, 4], None, [7]),                   # negative
    ([7, 7, 1, 4, 8, 2], 3, []),               # budget runs out at 8
    ([7, 6, 1, 4, 8, 6], 4, [6, 1]),           # budget with earlier reads
    ([1, 2, 3, 99], 2, []),                    # budget runs out before the bad index
    ([], 0, [4]),
    ([0, 4, 9, 11], None, []),                 # strictly increasing
    ([0, 4, 9, 15, 2], None, []),              # increasing up to the bad index
    ([2, 5, 8], None, [5, 0]),                 # increasing, some metered before
])
def test_batch_query_matches_per_index_loop(indices, budget, seen):
    inst = make_instance()
    # Once on a writable array and once on a read-only one that owns its
    # data, which the ledger may hold by reference.
    for writeable in (True, False):
        # The earlier reads are metered before the budget is set: [4] exceeds 0.
        got_ledger, want_queried = QueryLedger(), list(seen)
        query(inst, got_ledger, np.array(seen, dtype=np.intp))
        got_ledger.budget = budget
        batch = np.array(indices, dtype=np.intp)
        batch.flags.writeable = writeable
        try:
            want = loop_query(inst, want_queried, budget, indices)
        except (IndexError, BudgetExceededError) as exc:
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                query(inst, got_ledger, batch)
        else:
            got = query(inst, got_ledger, batch)
            np.testing.assert_array_equal(got, want)
        assert got_ledger.queried == tuple(want_queried)
        assert got_ledger.count == len(want_queried)
        assert all(type(i) is int for i in got_ledger.queried)


def test_query_rejects_2d_indices():
    with pytest.raises(ValueError, match="1-D"):
        query(make_instance(), QueryLedger(), np.zeros((2, 2), dtype=np.intp))


@pytest.mark.parametrize("indices", [3.7, 2.0, np.array([True, False]), np.array([1.0, 2.0])])
def test_query_rejects_non_integer_indices(indices):
    # Truncating 3.7 to 3, or reading a mask as rows 1 and 0, would meter
    # rows nobody asked for.
    ledger = QueryLedger()
    with pytest.raises(ValueError, match="integers"):
        query(make_instance(n=5), ledger, indices)
    assert ledger.count == 0


def test_query_accepts_empty_input():
    ledger = QueryLedger()
    got = query(make_instance(n=5), ledger, [])   # np.asarray([]) is float64
    assert got.size == 0 and ledger.count == 0


def test_ledger_shares_only_a_frozen_increasing_input():
    inst = make_instance(n=20)

    def frozen(a):
        a = np.array(a, dtype=np.int64)
        a.flags.writeable = False
        return a

    shared = frozen([1, 4, 6, 9])
    ledger = QueryLedger()
    query(inst, ledger, shared)
    assert np.shares_memory(ledger._indices, shared)
    # Later reads extend a copy; the shared array is left as it was.
    query(inst, ledger, np.array([2, 4, 3]))
    assert ledger.queried == (1, 4, 6, 9, 2, 3)
    np.testing.assert_array_equal(shared, [1, 4, 6, 9])

    writable = np.array([1, 4, 6, 9], dtype=np.int64)
    view = frozen([0, 1, 4, 6, 9])[1:]
    for copied in (writable, frozen([1, 4, 4, 9]), frozen([4, 1, 6, 9]), view):
        ledger = QueryLedger()
        query(inst, ledger, copied)
        assert not np.shares_memory(ledger._indices, copied)


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
        # The ledger holds the realized support by reference, not a copy.
        assert np.shares_memory(outcome.ledger._indices, outcome.sketch.indices)


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
    monkeypatch.setattr(oracle, "query", lambda instance, ledger, i: instance._y[i])
    inst = make_instance(n=30, d=2, seed=5)
    plan = plan_l1(np.full(30, 1.0), gamma=1.0, u_override=0.5)
    with pytest.raises(RuntimeError, match="ledger"):
        active_solve(inst, plan, seed=0)


def preset_instance(name):
    """An acceptance preset's 20 000-row instance and its plan."""
    config = preset_config(name)
    inst = _random_instance(config)
    return inst, _plan(config, inst.A, config.p, config.scheme)


@pytest.mark.parametrize("name", ["l1-accept", "lp-accept"])
def test_outcome_retains_about_one_array_per_label(name, traced_peak):
    # A kept outcome holds the sketch (indices and weights) and the ledger,
    # which shares the sketch's read-only indices instead of copying them.
    inst, plan = preset_instance(name)
    active_solve(inst, plan, seed=3)  # lazy set-up is not retained per outcome
    outcome, _, retained = traced_peak(lambda: active_solve(inst, plan, seed=3))
    sketch = outcome.sketch
    assert sketch.support_size > 1000
    assert retained <= 1.25 * (sketch.indices.nbytes + sketch.weights.nbytes)


def test_replayed_ledgers_compare_equal():
    # The benchmark's replay check compares the ledgers with `==` and needs a bool.
    inst, plan = preset_instance("l1-accept")
    a, b = active_solve(inst, plan, seed=4), active_solve(inst, plan, seed=4)
    same = a.ledger.queried == b.ledger.queried
    assert type(same) is bool and same
    assert type(a.ledger.queried) is tuple
    assert all(type(i) is int for i in a.ledger.queried)
    assert a.ledger.queried == tuple(a.sketch.indices.tolist())
