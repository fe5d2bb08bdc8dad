"""Hidden labels behind a query-metered interface.

The label vector of a RegressionInstance is private; the only sanctioned read
path for algorithms is `query`, which meters distinct indices against an
optional budget. `active_solve` realizes a label-oblivious plan, queries
exactly the support, and solves the reweighted problem on those rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetExceededError
from .linalg import as_matrix, as_vector
from .sampling import SamplePlan, Sketch, realize
from .solvers import SolveResult, solve_weighted_l1, solve_weighted_lp


class RegressionInstance:
    """Data matrix A, loss exponent p, and a hidden label vector."""

    def __init__(self, A, y, p: float):
        self.A = as_matrix(A)
        self._y = as_vector(y, "labels")
        if self.A.shape[0] != self._y.size:
            raise ValueError("label length must equal the number of rows")
        if not 1.0 <= p <= 2.0:
            raise ValueError(f"p must be in [1, 2], got {p}")
        self.p = float(p)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def d(self) -> int:
        return self.A.shape[1]

    def reveal_hidden_labels(self) -> np.ndarray:
        """Full label vector. Harness instrumentation only; bypasses the meter."""
        return self._y.copy()


@dataclass
class QueryLedger:
    budget: int | None = None
    queried: list[int] = field(default_factory=list)
    _seen: set = field(default_factory=set, repr=False)

    @property
    def count(self) -> int:
        return len(self.queried)


def query(instance: RegressionInstance, ledger: QueryLedger, i: int) -> float:
    """Return y_i and meter it. Repeat queries of the same index are free."""
    i = int(i)
    if not 0 <= i < instance.n:
        raise IndexError(f"label index {i} out of range for {instance.n} rows")
    if i not in ledger._seen:
        if ledger.budget is not None and ledger.count >= ledger.budget:
            raise BudgetExceededError(
                f"query budget {ledger.budget} exhausted at index {i}"
            )
        ledger._seen.add(i)
        ledger.queried.append(i)
    return float(instance._y[i])


@dataclass(frozen=True)
class ActiveSolveOutcome:
    result: SolveResult
    ledger: QueryLedger
    sketch: Sketch


def active_solve(
    instance: RegressionInstance,
    plan: SamplePlan,
    seed: int,
    budget: int | None = None,
) -> ActiveSolveOutcome:
    """Realize the plan, query exactly the support labels, solve the sketch.

    The plan carries no label information by construction; every label that
    the solver sees passes through `query`, so the ledger equals the sketch
    support index-for-index.
    """
    if plan.n != instance.n:
        raise ValueError("plan size does not match instance")
    sketch = realize(plan, seed)
    ledger = QueryLedger(budget=budget)
    y_s = np.array([query(instance, ledger, i) for i in sketch.indices])
    # query-ledger exactness: the labels read are exactly the sketch support
    if ledger.count != sketch.support_size or not np.array_equal(
        np.sort(np.asarray(ledger.queried)), sketch.indices
    ):
        raise RuntimeError(
            f"query ledger ({ledger.count} labels) does not match the sketch "
            f"support ({sketch.support_size} rows)"
        )
    A_s = instance.A[sketch.indices]
    if instance.p == 1.0:
        result = solve_weighted_l1(A_s, y_s, sketch.weights)
    else:
        result = solve_weighted_lp(A_s, y_s, instance.p, sketch.weights)
    return ActiveSolveOutcome(result=result, ledger=ledger, sketch=sketch)
