"""Experiment orchestration: seeded trial runners, acceptance presets, sweeps.

Every experiment is deterministic given its config seed: instances, plans,
and per-trial realizations all draw from seeds derived with `rng.derive`.
Reports are JSON-ready dicts wrapped in a stable, versioned schema.

Each family is two steps: an instance built from the config seed, then the
trial loop on that instance (Lewis weights, plan, full-data minimizer where
the family needs one, trials and aggregates). `run_experiment` does both;
`run_trials` runs the second on a given instance, which is how
`lewisreg verify` checks matrices and labels read from files.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from dataclasses import dataclass

import numpy as np

from . import __version__, rng
from .lewis import lewis_weights
from .linalg import weighted_lp_loss
from .instances import gen_random, sign_recovery_experiment
from .oracle import active_solve
from .sampling import (
    BERNOULLI_L1, POISSON_LP, UNIFORM, plan_l1, plan_lp, plan_uniform, realize,
    support_size_bound,
)
from .solvers import DEGENERATE, approx_transfer_bound, solve_weighted_l1, solve_weighted_lp
from .verify import BetaSample, cross_term_check, embedding_check, ruc_check

SCHEMA_VERSION = 2

FAMILIES = ("l1-endtoend", "lp-endtoend", "embed", "ruc", "cross", "coin")

# Tuned-once constants used by the acceptance presets (see tests/test_acceptance.py):
# c_u 0.45 puts the expected L1 support near 2.2 d/eps^2-ish without clamping,
# c_m 0.5 keeps the Poisson budget in the low thousands at the preset sizes.
DEFAULT_C_U = 0.45
DEFAULT_C_M = 0.5
# An end-to-end trial's query budget is the Bernstein bound on the plan's
# support that fails with this probability.
BUDGET_DELTA = 0.005


@dataclass
class ExperimentConfig:
    """One experiment. Only the embed family reads `scheme`; the others fix
    their own (end-to-end by family, ruc Bernoulli L1 at p = 1 and Poisson Lp
    above, cross Poisson Lp)."""

    family: str = "l1-endtoend"
    preset: str = ""
    n: int = 2000
    d: int = 5
    p: float = 1.0
    eps: float = 0.25
    delta: float = 0.1
    scheme: str = BERNOULLI_L1
    c_u: float = DEFAULT_C_U
    c_m: float = DEFAULT_C_M
    trials: int = 20
    seed: int = 1
    noise_std: float = 1.0
    n_outliers: int = 0
    outlier_scale: float = 1e4
    m_target: float | None = None   # overrides the sample-size formulas
    pass_fraction_required: float = 0.9
    directions: int = 40
    coin_m_small: int = 25
    coin_m_large: int = 250_000
    coin_eps: float = 0.02

    def validate(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; choose from {FAMILIES}")
        if self.scheme not in (BERNOULLI_L1, POISSON_LP, UNIFORM):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.n <= 0 or self.d <= 0 or self.trials < 0:
            raise ValueError("n, d must be positive and trials nonnegative")
        if not 0.0 < self.eps < 1.0 or not 0.0 < self.delta < 1.0:
            raise ValueError("eps and delta must be in (0, 1)")
        if not 1.0 <= self.p <= 2.0:
            raise ValueError("p must be in [1, 2]")
        if self.family == "cross" and not 1.0 < self.p < 2.0:
            raise ValueError("cross-term experiments need p in (1, 2)")


@dataclass
class ExperimentReport:
    config: dict
    trials: list
    aggregates: dict
    passed: bool
    wall_time_s: float
    schema_version: int = SCHEMA_VERSION
    tool_version: str = __version__

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True)


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    config.validate()
    t0 = time.perf_counter()
    build, runner = _RUNNERS[config.family]
    records, aggregates, passed = runner(config, build(config))
    return ExperimentReport(
        config=dataclasses.asdict(config),
        trials=records,
        aggregates=aggregates,
        passed=passed,
        wall_time_s=time.perf_counter() - t0,
    )


def run_trials(config: ExperimentConfig, instance) -> tuple[list, dict, bool]:
    """Trial records, aggregates and pass flag of `config.family` on `instance`.

    `instance` is the data matrix for the embed family and a
    `RegressionInstance` for the others; n and d in `config` must match it.
    """
    config.validate()
    if config.family != "coin":
        shape = (instance if config.family == "embed" else instance.A).shape
        if shape != (config.n, config.d):
            raise ValueError(f"config n={config.n}, d={config.d} does not match "
                             f"the {shape[0]}x{shape[1]} instance")
    return _RUNNERS[config.family][1](config, instance)


def _random_instance(config: ExperimentConfig):
    return gen_random(
        config.n, config.d,
        noise_std=config.noise_std,
        n_outliers=config.n_outliers,
        outlier_scale=config.outlier_scale,
        p=config.p,
        seed=rng.derive(config.seed, 0x01),
    ).instance


def _gaussian_matrix(config: ExperimentConfig):
    return rng.normal_matrix(rng.derive(config.seed, 0x01), config.n, config.d)


def _plan(config: ExperimentConfig, A, lewis_p: float, scheme: str):
    """The `scheme` plan of A from its Lewis weights at `lewis_p` (none for uniform)."""
    if scheme == UNIFORM:
        return plan_uniform(config.n, int(config.m_target or config.n // 10))
    lw = lewis_weights(A, lewis_p)
    if scheme == POISSON_LP:
        return plan_lp(lw.w, gamma=lw.gamma, eps=config.eps, delta=config.delta,
                       d=config.d, p=config.p, m_override=config.m_target,
                       c_m=config.c_m)
    u_override = None
    if config.m_target is not None:
        u_override = lw.gamma * float(np.sum(lw.w)) / config.m_target
    return plan_l1(lw.w, gamma=lw.gamma, eps=config.eps, delta=config.delta,
                   d=config.d, u_override=u_override, c_u=config.c_u)


def _full_minimizer(inst):
    y = inst.reveal_hidden_labels()
    if inst.p == 1.0:
        return solve_weighted_l1(inst.A, y)
    return solve_weighted_lp(inst.A, y, inst.p, tol=1e-10)


def _summary(config: ExperimentConfig, plan, records: list, medians: dict,
             gated: bool = True, **extra) -> tuple[list, dict, bool]:
    """The records, their aggregates and the pass flag: one tail for every runner.

    `medians` maps an aggregate name to the record field it is the median of
    (None without records). A gated family counts the records that passed
    and passes when their fraction reaches `pass_fraction_required` (vacuously
    with no trials); an ungated one passes always and counts nothing.
    """
    aggregates = {"expected_support": plan.expected_support, **extra}
    for name, field in medians.items():
        aggregates[name] = float(np.median([r[field] for r in records])) if records else None
    if not gated:
        return records, aggregates, True
    npass = sum(r["passed"] for r in records)
    frac = npass / config.trials if config.trials else 1.0
    aggregates.update(pass_count=npass, pass_fraction=frac)
    return records, aggregates, frac >= config.pass_fraction_required


def _endtoend(config: ExperimentConfig, inst) -> tuple[list, dict, bool]:
    if config.family == "l1-endtoend":
        plan = _plan(config, inst.A, 1.0, BERNOULLI_L1)
    else:
        plan = _plan(config, inst.A, config.p, POISSON_LP)
    full = _full_minimizer(inst)
    L_star = full.objective
    y = inst.reveal_hidden_labels()
    bound = approx_transfer_bound(config.eps)
    budget = math.ceil(support_size_bound(plan, BUDGET_DELTA))

    def one(t: int) -> dict:
        outcome = active_solve(inst, plan, rng.derive(config.seed, 0x02, t))
        queries = outcome.ledger.count
        ratio = math.inf
        if outcome.result.status != DEGENERATE:
            loss = weighted_lp_loss(inst.A, y, outcome.result.beta, p=inst.p)
            ratio = loss / L_star if L_star > 0 else (1.0 if loss == 0 else math.inf)
        within = queries <= budget
        return {"trial": t, "queries": queries, "ratio": ratio,
                "within_budget": within, "passed": bool(ratio <= bound and within)}

    records = [one(t) for t in range(config.trials)]
    queries = [r["queries"] for r in records]
    quantiles = {"min": int(min(queries)), "median": float(np.median(queries)),
                 "max": int(max(queries))} if records else None
    return _summary(config, plan, records, {"median_ratio": "ratio"},
                    optimal_loss=L_star, ratio_bound=bound, budget=budget,
                    query_quantiles=quantiles)


def _embed(config: ExperimentConfig, A) -> tuple[list, dict, bool]:
    plan = _plan(config, A, config.p if config.p < 2.0 else 1.0, config.scheme)

    def one(t: int) -> dict:
        sketch = realize(plan, rng.derive(config.seed, 0x02, t))
        rep = embedding_check(A, sketch, config.p, config.eps,
                              directions=config.directions,
                              seed=rng.derive(config.seed, 0x03, t))
        return {"trial": t, "support": sketch.support_size,
                "max_ratio_dev": rep.max_ratio_dev, "passed": rep.passed}

    records = [one(t) for t in range(config.trials)]
    return _summary(config, plan, records, {"median_deviation": "max_ratio_dev"})


def _ruc(config: ExperimentConfig, inst) -> tuple[list, dict, bool]:
    plan = _plan(config, inst.A, config.p, BERNOULLI_L1 if config.p == 1.0 else POISSON_LP)
    full = _full_minimizer(inst)

    def one(t: int) -> dict:
        sketch = realize(plan, rng.derive(config.seed, 0x02, t))
        spec = BetaSample(directions=config.directions,
                          seed=rng.derive(config.seed, 0x03, t))
        trial = ruc_check(inst, sketch, full.beta, spec, config.eps, config.delta)
        return {
            "trial": t,
            "queries": sketch.support_size,
            "delta_value": trial.delta_value,
            "max_rel_violation": trial.max_rel_violation,
            "max_uncorrected": trial.max_uncorrected,
            "passed": bool(trial.max_rel_violation <= config.eps),
            "uncorrected_exceeds": bool(trial.max_uncorrected > config.eps),
        }

    records = [one(t) for t in range(config.trials)]
    exceed = float(np.mean([r["uncorrected_exceeds"] for r in records])) if records else 0.0
    return _summary(config, plan, records, {"median_violation": "max_rel_violation"},
                    uncorrected_exceed_fraction=exceed)


def _cross(config: ExperimentConfig, inst) -> tuple[list, dict, bool]:
    plan = _plan(config, inst.A, config.p, POISSON_LP)
    full = _full_minimizer(inst)
    y_centered = inst.reveal_hidden_labels() - inst.A @ full.beta

    def one(t: int) -> dict:
        sketch = realize(plan, rng.derive(config.seed, 0x02, t))
        rep = cross_term_check(inst.A, y_centered, sketch, config.p,
                               m=plan.m, gamma=plan.gamma, delta=config.delta)
        return {"trial": t, "support": sketch.support_size,
                "max_ratio": rep.max_ratio, "fitted_c": rep.fitted_c}

    records = [one(t) for t in range(config.trials)]
    return _summary(config, plan, records,
                    {"median_max_ratio": "max_ratio", "median_fitted_c": "fitted_c"},
                    gated=False, m=plan.m)


def _coin(config: ExperimentConfig, _) -> tuple[list, dict, bool]:
    if not config.trials:   # passes vacuously, as every family does
        return [], {"win_rate_small": None, "win_rate_large": None}, True
    sizes = (config.coin_m_small, config.coin_m_large)
    rates = [sign_recovery_experiment(max(sizes), config.coin_eps, m, config.trials,
                                      seed=rng.derive(config.seed, part))
             for m, part in zip(sizes, (0x05, 0x06))]
    records = [{"m_queries": m, "win_rate": rate} for m, rate in zip(sizes, rates)]
    aggregates = {"win_rate_small": rates[0], "win_rate_large": rates[1]}
    return records, aggregates, rates[0] <= 0.75 and rates[1] >= 0.99


# family -> (instance built from the config seed, trial loop on an instance)
_RUNNERS = {
    "l1-endtoend": (_random_instance, _endtoend),
    "lp-endtoend": (_random_instance, _endtoend),
    "embed": (_gaussian_matrix, _embed),
    "ruc": (_random_instance, _ruc),
    "cross": (_random_instance, _cross),
    "coin": (lambda config: None, _coin),
}

# sweep axis -> the config field it sets
SWEEP_AXES = {"m": "m_target", "eps": "eps", "c_u": "c_u"}


def sweep(config: ExperimentConfig, axis: str, values) -> list[ExperimentReport]:
    """One report per axis value; values must be sorted ascending."""
    if axis not in SWEEP_AXES:
        raise ValueError(f"axis must be one of {tuple(SWEEP_AXES)}")
    values = list(values)
    if values != sorted(values):
        raise ValueError("sweep values must be sorted ascending")
    return [run_experiment(dataclasses.replace(config, **{SWEEP_AXES[axis]: float(v)}))
            for v in values]


def sweep_summary(axis: str, values, reports, metric: str) -> list[dict]:
    return [{axis: v, metric: rep.aggregates.get(metric),
             "pass_fraction": rep.aggregates.get("pass_fraction")}
            for v, rep in zip(values, reports)]


def fit_loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x); nan if underdetermined."""
    lx = np.log(np.asarray(xs, dtype=np.float64))
    ly = np.log(np.asarray(ys, dtype=np.float64))
    lx = lx - lx.mean()
    denom = float(np.sum(lx * lx))
    if lx.size < 2 or denom == 0.0:
        return math.nan
    return float(np.sum(lx * (ly - ly.mean())) / denom)


def preset_config(name: str, **overrides) -> ExperimentConfig:
    """Named acceptance experiments with frozen parameters."""
    presets = {
        "l1-accept": dict(
            family="l1-endtoend", n=20_000, d=10, p=1.0, eps=0.25, delta=0.1,
            trials=100, seed=1, noise_std=1.0, n_outliers=1, outlier_scale=1e4,
            pass_fraction_required=0.9,
        ),
        "lp-accept": dict(
            family="lp-endtoend", n=20_000, d=6, p=1.5, eps=0.3, delta=0.1,
            scheme=POISSON_LP, trials=100, seed=1, noise_std=1.0,
            pass_fraction_required=0.85,
        ),
        "embed-accept": dict(
            family="embed", n=10_000, d=5, p=1.0, eps=0.25, delta=0.1,
            trials=100, seed=1, directions=100, pass_fraction_required=0.9,
        ),
        "ruc-accept": dict(
            family="ruc", n=20_000, d=10, p=1.0, eps=0.25, delta=0.1,
            trials=100, seed=1, noise_std=1.0, n_outliers=1, outlier_scale=1e4,
            directions=30, pass_fraction_required=0.9,
        ),
        "coin-accept": dict(
            family="coin", trials=2000, seed=1, coin_eps=0.02,
            coin_m_small=25, coin_m_large=250_000,
        ),
        "scaling-ruc": dict(
            family="ruc", n=40_000, d=5, p=1.0, eps=0.25, delta=0.1,
            trials=20, seed=1, noise_std=1.0, n_outliers=1, outlier_scale=1e4,
            directions=20,
        ),
        "scaling-cross": dict(
            family="cross", n=10_000, d=5, p=1.5, eps=0.3, delta=0.1,
            scheme=POISSON_LP, trials=30, seed=1, noise_std=1.0,
        ),
    }
    if name not in presets:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(presets)}")
    params = dict(presets[name])
    params.update(overrides)
    return ExperimentConfig(preset=name, **params)
