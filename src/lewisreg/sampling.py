"""Label-oblivious sampling plans and their realization into sparse reweightings.

A plan is built from (approximate) Lewis weights only; labels never enter
(there is no label argument anywhere in this module). Realization is a pure
function of (plan, seed) via the counter-based streams in `rng`, so replays
are bit-exact and per-row draws are order independent.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import rng
from .linalg import as_vector

BERNOULLI_L1 = "bernoulli-l1"
POISSON_LP = "poisson-lp"
UNIFORM = "uniform"


@dataclass(frozen=True)
class SamplePlan:
    scheme: str
    n: int
    params: np.ndarray     # inclusion probability p_i, or Poisson rate lambda_i
    gamma: float = 1.0
    u: float | None = None     # oversampling threshold (bernoulli only)
    m: float | None = None     # target budget (poisson / uniform)

    def __post_init__(self):
        if self.scheme not in (BERNOULLI_L1, POISSON_LP, UNIFORM):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.params.size != self.n:
            raise ValueError("params length must equal n")
        if not np.all(np.isfinite(self.params)):
            raise ValueError("plan params contain NaN or Inf")
        if np.any(self.params < 0.0):
            raise ValueError("plan params must be nonnegative")
        if self.scheme != POISSON_LP and np.any(self.params > 1.0):
            raise ValueError(f"{self.scheme} inclusion probabilities must be at most 1")

    @cached_property
    def expected_support(self) -> float:
        if self.scheme == POISSON_LP:
            return float(np.sum(-np.expm1(-self.params)))
        return float(np.sum(self.params))

    @cached_property
    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(self.scheme.encode())
        h.update(np.int64(self.n).tobytes())
        h.update(np.ascontiguousarray(self.params, dtype="<f8"))   # no bytes copy
        return h.hexdigest()[:16]


@dataclass(frozen=True)
class Sketch:
    indices: np.ndarray    # strictly increasing row indices with s_i > 0
    weights: np.ndarray    # the positive s_i; unlisted rows have s_i = 0
    seed: int
    plan_hash: str

    def __post_init__(self):
        idx, w = self.indices, self.weights
        if not isinstance(idx, np.ndarray) or idx.ndim != 1 or idx.dtype.kind not in "iu":
            raise ValueError("sketch indices must be a 1-D integer array")
        if not isinstance(w, np.ndarray) or w.shape != idx.shape:
            raise ValueError("sketch weights must be a 1-D array as long as the indices")
        if idx.size and idx[0] < 0:
            raise ValueError("sketch indices must be nonnegative")
        if np.any(idx[1:] <= idx[:-1]):
            raise ValueError("sketch indices must be strictly increasing")
        # NaN fails both comparisons
        if not np.all((w > 0.0) & (w < np.inf)):
            raise ValueError("sketch weights must be finite and positive")

    @property
    def support_size(self) -> int:
        return int(self.indices.size)

    def dense(self, n: int) -> np.ndarray:
        s = np.zeros(n)
        s[self.indices] = self.weights
        return s


def plan_l1(
    w_prime,
    gamma: float = 1.0,
    eps: float = 0.25,
    delta: float = 0.1,
    d: int | None = None,
    u_override: float | None = None,
    c_u: float = 1.0,
) -> SamplePlan:
    """Bernoulli plan: include row i with probability p_i = min(gamma w'_i / u, 1).

    u defaults to c_u * eps^2 / ln(gamma d / (delta eps)); the hidden constant
    of the theory is exposed as c_u.
    """
    w = as_vector(w_prime, "weights")
    if np.any(w < 0):
        raise ValueError("Lewis weights must be nonnegative")
    _check_gamma(gamma)
    if u_override is not None:
        u = float(u_override)
    else:
        if d is None:
            raise ValueError("d is required unless u_override is given")
        _check_unit_interval(eps=eps, delta=delta)
        u = c_u * eps**2 / math.log(gamma * d / (delta * eps))
    if u <= 0:
        raise ValueError(f"oversampling threshold must be positive, got {u}")
    probs = np.minimum(gamma * w / u, 1.0)
    return SamplePlan(scheme=BERNOULLI_L1, n=w.size, params=probs, gamma=gamma, u=u)


def plan_lp(
    w_prime,
    gamma: float = 1.0,
    eps: float = 0.3,
    delta: float = 0.1,
    d: int | None = None,
    p: float = 1.5,
    m_override: float | None = None,
    c_m: float = 1.0,
) -> SamplePlan:
    """Poisson plan: s_i ~ (d / (m w'_i)) * Poisson(m w'_i / d).

    m defaults to c_m * (gamma d^2 ln(d/(eps delta))/eps^2 + gamma d^(2/p)/(eps^2 delta)).
    """
    w = as_vector(w_prime, "weights")
    if np.any(w < 0):
        raise ValueError("Lewis weights must be nonnegative")
    _check_gamma(gamma)
    if not 1.0 < p <= 2.0:
        raise ValueError(f"p must be in (1, 2], got {p}")
    if d is None:
        d = max(int(round(np.sum(w))), 1)
    if m_override is not None:
        m = float(m_override)
    else:
        _check_unit_interval(eps=eps, delta=delta)
        m = c_m * (
            gamma * d**2 * math.log(d / (eps * delta)) / eps**2
            + gamma * d ** (2.0 / p) / (eps**2 * delta)
        )
    if m <= 0:
        raise ValueError(f"budget m must be positive, got {m}")
    rates = m * w / d
    return SamplePlan(scheme=POISSON_LP, n=w.size, params=rates, gamma=gamma, m=m)


def plan_uniform(n: int, m: int) -> SamplePlan:
    """Baseline: m rows without replacement, each reweighted by n/m."""
    if not 0 < m <= n:
        raise ValueError(f"need 0 < m <= n, got m={m}, n={n}")
    return SamplePlan(scheme=UNIFORM, n=n, params=np.full(n, m / n), m=float(m))


def _check_gamma(gamma: float) -> None:
    # An unconverged Lewis iteration reports gamma = inf; it bounds nothing.
    if not (math.isfinite(gamma) and gamma >= 1.0):
        raise ValueError(f"gamma must be finite and >= 1, got {gamma}")


def _check_unit_interval(**kwargs: float) -> None:
    for name, value in kwargs.items():
        if not 0.0 < value < 1.0:
            raise ValueError(f"{name} must be in (0, 1), got {value}")


def realize(plan: SamplePlan, seed: int) -> Sketch:
    """Draw the sparse reweighting s for the plan; row i uses stream i of `seed`.

    Bernoulli and Poisson rows are drawn `rng.DRAW_BLOCK` rows at a time and
    each block keeps only its rows in the support, so apart from the plan
    nothing of size n is held. The sketch's arrays are read-only.
    """
    if plan.scheme == BERNOULLI_L1:
        probs = plan.params
        kept = [np.empty(0, dtype=np.int64)]
        for start in range(0, plan.n, rng.DRAW_BLOCK):
            stop = min(start + rng.DRAW_BLOCK, plan.n)
            u = rng.uniform_array(seed, np.arange(start, stop, dtype=np.uint64), 0)
            # probs == 1 rows always pass since u < 1
            kept.append(np.flatnonzero(u < probs[start:stop]) + start)
        idx = np.concatenate(kept)
        weights = 1.0 / probs[idx]
    elif plan.scheme == POISSON_LP:
        idx, counts = rng.poisson_support(seed, plan.params)
        weights = counts / plan.params[idx]
    else:
        m = int(round(plan.m))
        idx = rng.choose_prefix(seed, plan.n, m)
        weights = np.full(idx.size, plan.n / m)
    idx = idx.astype(np.int64, copy=False)
    # Read-only, so a ledger may hold the support by reference (see `query`).
    idx.flags.writeable = weights.flags.writeable = False
    return Sketch(indices=idx, weights=weights, seed=seed, plan_hash=plan.digest)


def support_size_bound(plan: SamplePlan, delta: float) -> float:
    """Bernstein-style high-probability bound on the realized support size."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    mu = plan.expected_support
    t = math.log(2.0 / delta)
    return mu + math.sqrt(2.0 * mu * t) + t
