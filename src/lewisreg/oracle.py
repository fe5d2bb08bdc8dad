"""Hidden labels behind a query-metered interface.

The label vector of a RegressionInstance is private; the only sanctioned read
path for algorithms is `query`, which meters distinct indices against an
optional budget. A QueryLedger holds the metered indices in one int64 array,
which may be a realized sketch's read-only support held by reference.
`active_solve` realizes a label-oblivious plan, queries exactly the support,
and solves the reweighted problem on those rows.
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


@dataclass(eq=False)
class QueryLedger:
    """The distinct label indices read so far, against an optional budget.

    The indices are kept in first-seen order in one int64 array; only `query`
    extends it. That array may be the read-only support the ledger metered
    first, held by reference.
    """

    budget: int | None = None
    _indices: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64), init=False, repr=False
    )

    @property
    def count(self) -> int:
        return self._indices.size

    @property
    def queried(self) -> tuple[int, ...]:
        """The metered indices in first-seen order, as an immutable tuple of ints."""
        return tuple(self._indices.tolist())


def query(instance: RegressionInstance, ledger: QueryLedger, i) -> float | np.ndarray:
    """Return the labels at one index or a 1-D array of indices, and meter them.

    Returns a float for one index and an array otherwise. New indices are
    appended to the ledger's int64 array in first-seen order; repeat queries
    of the same index are free. Indices must be integers: any other dtype
    raises ValueError before anything is metered (an empty input is valid).
    An index out of range raises IndexError, and the first new index past the
    budget raises BudgetExceededError, each after metering the new indices
    before it, as reading them one at a time would.

    An empty ledger that meters a strictly increasing, read-only array which
    owns its data (as `realize` returns) holds that array, or its metered
    prefix, by reference; every other input is copied.
    """
    idx = np.asarray(i)
    if idx.ndim > 1:
        raise ValueError(f"label indices must be a scalar or 1-D, got shape {idx.shape}")
    if idx.size and idx.dtype.kind not in "iu":
        raise ValueError(f"label indices must be integers, got dtype {idx.dtype}")
    flat = idx.astype(np.int64, copy=False).reshape(-1)
    bad = np.flatnonzero((flat < 0) | (flat >= instance.n))
    head = flat[:bad[0]] if bad.size else flat
    # A strictly increasing prefix is already distinct and in first-seen order.
    if np.all(head[1:] > head[:-1]):
        new = head
    else:
        new = head[np.sort(np.unique(head, return_index=True)[1])]
    if ledger.count:
        new = new[~np.isin(new, ledger._indices)]
    room = new.size if ledger.budget is None else max(ledger.budget - ledger.count, 0)
    if room and new.size:
        # `new is head` only for an empty ledger and a strictly increasing
        # prefix; a read-only input that owns its data is then shared.
        if new is head and not idx.flags.writeable and idx.flags.owndata:
            ledger._indices = new[:room]
        else:
            ledger._indices = np.concatenate((ledger._indices, new[:room]))
    if new.size > room:
        raise BudgetExceededError(
            f"query budget {ledger.budget} exhausted at index {new[room]}"
        )
    if bad.size:
        raise IndexError(f"label index {flat[bad[0]]} out of range for {instance.n} rows")
    return float(instance._y[flat[0]]) if idx.ndim == 0 else instance._y[flat]


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
    y_s = query(instance, ledger, sketch.indices)
    # query-ledger exactness: the labels read are exactly the sketch support
    if ledger.count != sketch.support_size or not np.array_equal(
        np.sort(ledger._indices), sketch.indices
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
