"""The three workloads: their inputs, their timed region and their checks.

A workload has `build(seed)`, which makes the inputs, `run(inputs)`, the timed
region, and `check(inputs, out, calls)`, which checks the outputs of one round
against the reference computations. `calls` are the calls a capture probe saw
during that round (see probe.py). `check` returns an `Outcome`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

import lewisreg as lr
from lewisreg import experiments

import reference as ref

# Support budgets are checked at this failure probability per sketch.
BUDGET_DELTA = 1e-6
# Relative gap the two-sided optimum certificate must close.
OPTIMUM_GAP = 1e-9
# Lewis weights are computed with the default tol=1e-8; a recomputed
# residual above this is a fault.
LEWIS_RESIDUAL = 1e-6


@dataclass
class Outcome:
    ops: int = 0                      # operations in one round
    failed: int = 0                   # of those, the ones that failed
    labels: list = field(default_factory=list)       # labels read per fit or sketch
    rel_errors: list = field(default_factory=list)
    faults: list = field(default_factory=list)       # checks that did not hold
    layer: dict = field(default_factory=dict)        # counts for the trace

    def expect(self, ok, what: str) -> None:
        if not ok:
            self.faults.append(what)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()


def _calls(calls, name):
    return [c for c in calls if c[0] == name]


def _split_by_experiment(calls) -> list:
    """(run_experiment call, the calls made inside it), in call order.

    A capture probe appends a call when it returns, so the calls inside one
    run_experiment come just before it. The calls of one sandwich instance
    end with its sandwich_check and belong to no experiment.
    """
    groups, current = [], []
    for c in calls:
        if c[0] == "experiments.run_experiment":
            groups.append((c, current))
            current = []
        elif c[0] == "lewis.sandwich_check":
            current = []
        else:
            current.append(c)
    return groups


def _check_lewis(o: Outcome, A, lw) -> None:
    resid, sum_err = ref.lewis_check(A, lw.w, lw.p)
    o.expect(resid <= LEWIS_RESIDUAL, f"Lewis fixed-point residual {resid:.2e} at p={lw.p}")
    o.expect(sum_err <= LEWIS_RESIDUAL * A.shape[1], f"Lewis weights sum off d by {sum_err:.2e}")
    o.expect(math.isfinite(lw.gamma) and lw.gamma >= 1.0, f"Lewis gamma {lw.gamma}")


def _check_optimum(o: Outcome, A, y, beta, p, claimed=None) -> tuple[float, float]:
    """Certify the program's full-data optimum; return (lower bound, L*)."""
    lo, hi = ref.certified_optimum(A, y, beta, p)
    o.expect(hi - lo <= OPTIMUM_GAP * hi, f"full-data optimum gap {(hi - lo) / hi:.2e} at p={p}")
    if claimed is not None:
        o.expect(abs(claimed - hi) <= 1e-12 * hi, f"reported optimum {claimed!r} vs {hi!r}")
    return lo, hi


def _check_sketch(o: Outcome, plan, sketch, budget) -> None:
    o.expect(sketch.support_size <= budget,
             f"support {sketch.support_size} over the Bernstein budget {budget:.0f}")
    replay = lr.realize(plan, sketch.seed)
    o.expect(np.array_equal(replay.indices, sketch.indices)
             and replay.weights.tobytes() == sketch.weights.tobytes(),
             f"realize(plan, {sketch.seed}) does not replay bit-identically")


def _budget(plan) -> float:
    return ref.bernstein_budget(ref.support_probabilities(plan.scheme, plan.params), BUDGET_DELTA)


def _check_fit(o: Outcome, inst, y, plan, outcome, L_star, lo, eps, budget) -> float:
    """Check one active_solve outcome; return its relative error."""
    sk, ledger = outcome.sketch, outcome.ledger
    o.expect(ledger.count == sk.support_size
             and np.array_equal(np.sort(np.asarray(ledger.queried, dtype=np.int64)), sk.indices),
             "labels read differ from the sketch support")
    _check_sketch(o, plan, sk, budget)
    loss = ref.lp_loss(inst.A, y, outcome.result.beta, inst.p)
    bound = 1.0 + eps / (1.0 - eps)
    o.expect(lo * (1.0 - 1e-12) <= loss <= bound * L_star,
             f"fit loss {loss!r} outside [{lo!r}, {bound * L_star!r}]")
    o.labels.append(ledger.count)
    return loss / L_star - 1.0


# ---------------------------------------------------------------- fit-tall


class FitTall:
    """Lewis weights, one plan and a handful of fits on one tall L1 instance.

    The instance family is fixed; `--seed` rotates the column space by a
    seeded orthogonal matrix and flips the signs of seeded rows (labels with
    them). The program sees different numbers, but the regression problem is
    the same one, so counts and errors repeat across seeds while timings are
    taken on fresh data.
    """

    name = "fit-tall"
    N, D, OUTLIERS, FAMILY_SEED = 200_000, 10, 10, 20210204
    EPS, DELTA, C_U = 0.25, 0.1, 0.45
    FIT_SEEDS = (11, 12, 13, 14, 15)

    def build(self, seed: int):
        gen = lr.gen_random(self.N, self.D, noise_std=1.0, n_outliers=self.OUTLIERS,
                            outlier_scale=1e4, p=1.0, seed=self.FAMILY_SEED)
        r = np.random.default_rng(seed)
        Q, R = np.linalg.qr(r.standard_normal((self.D, self.D)))
        Q *= np.sign(np.diag(R))
        signs = np.where(r.random(self.N) < 0.5, -1.0, 1.0)
        y = gen.instance.reveal_hidden_labels()
        return lr.RegressionInstance(signs[:, None] * (gen.instance.A @ Q), signs * y, 1.0)

    def run(self, inst):
        lw = lr.lewis_weights(inst.A, 1.0)
        plan = lr.plan_l1(lw.w, gamma=lw.gamma, eps=self.EPS, delta=self.DELTA,
                          d=inst.d, c_u=self.C_U)
        fits = [lr.active_solve(inst, plan, s) for s in self.FIT_SEEDS]
        return lw, plan, fits

    def digest(self, out) -> str:
        lw, plan, fits = out
        return _digest(lw.w.tobytes(), plan.params.tobytes(),
                       *[f.result.beta.tobytes() for f in fits])

    def check(self, inst, out, calls) -> Outcome:
        lw, plan, fits = out
        o = Outcome(ops=2 + len(fits))
        A, y = inst.A, inst.reveal_hidden_labels()
        _check_lewis(o, A, lw)
        u = self.C_U * self.EPS**2 / math.log(lw.gamma * self.D / (self.DELTA * self.EPS))
        o.expect(np.allclose(plan.params, np.minimum(lw.gamma * lw.w / u, 1.0),
                             rtol=1e-14, atol=0.0), "plan probabilities differ from min(gamma w / u, 1)")
        lo, L_star = _check_optimum(o, A, y, lr.solve_weighted_l1(A, y).beta, 1.0)
        budget = _budget(plan)
        for f in fits:
            o.rel_errors.append(_check_fit(o, inst, y, plan, f, L_star, lo, self.EPS, budget))
        replay = lr.active_solve(inst, plan, self.FIT_SEEDS[0])
        o.expect(replay.result.beta.tobytes() == fits[0].result.beta.tobytes(),
                 "active_solve does not replay bit-identically")
        _layer_counts(o, calls)
        return o


# ----------------------------------------------------------- accept-trials


class AcceptTrials:
    """The l1-accept and lp-accept presets through run_experiment.

    The presets are frozen acceptance experiments: instances and sketches
    come from the presets' own seeds, so counts and errors repeat exactly.
    `--seed` does not change them, and a round runs the presets in a fixed
    order, so the same preset sets the peak RSS on every run.
    """

    name = "accept-trials"
    PRESETS = (("l1-accept", 24), ("lp-accept", 120))
    REPLAYED = (0, -1)

    def build(self, seed: int):
        return [experiments.preset_config(name, trials=t) for name, t in self.PRESETS]

    def run(self, configs):
        return [experiments.run_experiment(dataclasses.replace(c)) for c in configs]

    def digest(self, reports) -> str:
        return _digest(*[[r.trials, r.aggregates] for r in reports])

    def check(self, configs, reports, calls) -> Outcome:
        o = Outcome()
        groups = _split_by_experiment(calls)
        o.expect(len(groups) == len(reports), "run_experiment calls were not all seen")
        for (_, group), report, config in zip(groups, reports, configs):
            o.ops += config.trials
            inst = _calls(group, "instances.gen_random")[0][3].instance
            A, y = inst.A, inst.reveal_hidden_labels()
            for _, args, _, lw in _calls(group, "lewis.lewis_weights"):
                _check_lewis(o, args[0], lw)
            full_name = "solvers.full_l1" if inst.p == 1.0 else "solvers.full_lp"
            full = _calls(group, full_name)[0][3]
            lo, L_star = _check_optimum(o, A, y, full.beta, inst.p, report.aggregates["optimal_loss"])
            solves = _calls(group, "oracle.active_solve")
            o.expect(len(solves) == config.trials == len(report.trials),
                     f"{config.preset}: {len(solves)} fits for {config.trials} trials")
            plan = solves[0][1][1]
            budget = _budget(plan)
            for (_, args, _, outcome), trial in zip(solves, report.trials):
                rel = _check_fit(o, inst, y, plan, outcome, L_star, lo, config.eps, budget)
                o.rel_errors.append(rel)
                o.expect(trial["queries"] == outcome.ledger.count, "report queries differ from the ledger")
                o.expect(abs(trial["ratio"] - (1.0 + rel)) <= 1e-9,
                         f"report ratio {trial['ratio']!r} vs recomputed {1.0 + rel!r}")
            for k in self.REPLAYED:
                _, args, _, outcome = solves[k]
                replay = lr.active_solve(*args)
                o.expect(replay.result.beta.tobytes() == outcome.result.beta.tobytes()
                         and replay.ledger.queried == outcome.ledger.queried,
                         f"{config.preset}: trial {k % len(solves)} does not replay bit-identically")
            seeds = [args[2] for _, args, _, _ in solves]
            o.expect(len(set(seeds)) == len(seeds), "trials share a label seed")
        _layer_counts(o, calls)
        return o


# ----------------------------------------------------------------- certify


class Certify:
    """The verification harness: RUC, embedding and cross-term presets with
    fewer trials, and the importance-weight sandwich on a slice of the
    criterion-3 corpus from tests/test_acceptance.py.

    Each sandwich instance is one operation. It fails when some row's
    `importance_weights(A, 1).u` falls more than the slack below the exact
    value, which the benchmark computes by LP. The multistart ascent only
    finds a lower bound, so some instances fail on every run; the corpus and
    the ascent's seed are fixed, so the count repeats. `--seed` changes none
    of the inputs, and a round runs its parts in a fixed order.
    """

    name = "certify"
    PRESETS = (("ruc-accept", 8), ("embed-accept", 24), ("scaling-cross", 8))
    SANDWICH = 6           # first instances of the criterion-3 corpus
    SLACK = 1e-3
    STARTS, ASCENT_SEED = 12, 7

    def build(self, seed: int):
        configs = [experiments.preset_config(name, trials=t) for name, t in self.PRESETS]
        corpus = []
        for k in range(self.SANDWICH):
            r = np.random.default_rng(2000 + k)
            n = int(r.integers(8, 51))
            d = int(r.integers(2, 5))
            corpus.append(r.standard_normal((max(n, 2 * d), d)))
        return configs + [corpus]

    def run(self, parts):
        out = []
        for part in parts:
            if isinstance(part, list):
                out.append([self._sandwich(A) for A in part])
            else:
                out.append(experiments.run_experiment(dataclasses.replace(part)))
        return out

    def _sandwich(self, A):
        lw = lr.lewis_weights(A, 1.0)
        iw = lr.importance_weights(A, 1.0, starts=self.STARTS, seed=self.ASCENT_SEED)
        return lw, iw, lr.sandwich_check(A, 1.0, lw, iw, slack=self.SLACK)

    def digest(self, out) -> str:
        parts = []
        for item in out:
            if isinstance(item, list):
                parts += [iw.u.tobytes() for _, iw, _ in item]
            else:
                parts.append([item.trials, item.aggregates])
        return _digest(*parts)

    def check(self, parts, out, calls) -> Outcome:
        o = Outcome()
        groups = iter(_split_by_experiment(calls))
        shortfall = 0.0
        for part, item in zip(parts, out):
            if isinstance(part, list):
                for A, (lw, iw, rep) in zip(part, item):
                    shortfall = max(shortfall, self._check_sandwich(o, A, lw, iw, rep))
                continue
            (_, _, _, report), group = next(groups)
            check = {"ruc": self._check_ruc, "embed": self._check_embed,
                     "cross": self._check_cross}[part.family]
            for _, args, _, lw in _calls(group, "lewis.lewis_weights"):
                _check_lewis(o, args[0], lw)
            o.ops += part.trials
            check(o, part, report, group)
        o.layer["lewis.importance_shortfall_max"] = shortfall
        _layer_counts(o, calls)
        return o

    def _sketches(self, o, group, report, key):
        realized = _calls(group, "sampling.realize")
        o.expect(len(realized) == len(report.trials), "realize calls do not match the trials")
        budget = _budget(realized[0][1][0])
        for (_, args, _, sketch), trial in zip(realized, report.trials):
            _check_sketch(o, args[0], sketch, budget)
            o.expect(trial[key] == sketch.support_size, "report support differs from the sketch")
            o.labels.append(sketch.support_size)

    def _optimum(self, o, group, name):
        inst = _calls(group, "instances.gen_random")[0][3].instance
        full = _calls(group, name)[0][3]
        _check_optimum(o, inst.A, inst.reveal_hidden_labels(), full.beta, inst.p)

    def _check_ruc(self, o, config, report, group):
        self._optimum(o, group, "solvers.full_l1")
        self._sketches(o, group, report, "queries")
        for trial in report.trials:
            o.expect(trial["max_rel_violation"] <= config.eps,
                     f"RUC violation {trial['max_rel_violation']:.4f} over eps {config.eps}")
            o.rel_errors.append(trial["max_rel_violation"])

    def _check_embed(self, o, config, report, group):
        self._sketches(o, group, report, "support")
        for trial in report.trials:
            o.expect(trial["max_ratio_dev"] <= config.eps,
                     f"embedding deviation {trial['max_ratio_dev']:.4f} over eps {config.eps}")

    def _check_cross(self, o, config, report, group):
        self._optimum(o, group, "solvers.full_lp")
        self._sketches(o, group, report, "support")
        plan = _calls(group, "sampling.plan_lp")[0][3]
        # The paper bounds the normalized cross term by sqrt(gamma d^(2/p) / (delta m)).
        limit = math.sqrt(plan.gamma * config.d ** (2.0 / config.p) / (config.delta * plan.m))
        for trial in report.trials:
            o.expect(trial["max_ratio"] <= limit,
                     f"cross term {trial['max_ratio']:.4f} over the bound {limit:.4f}")

    def _check_sandwich(self, o, A, lw, iw, rep) -> float:
        o.ops += 1
        d = A.shape[1]
        _check_lewis(o, A, lw)
        exact, gap = ref.exact_l1_importance(A)
        o.expect(gap <= 1e-7, f"exact importance LP gap {gap:.2e}")
        o.expect(rep.ok, "sandwich_check reports a violation")
        lower = d ** -0.5 * lw.w * (1.0 - self.SLACK)
        upper = lw.w * (1.0 + self.SLACK)
        o.expect(np.all(lower <= exact) and np.all(exact <= upper),
                 "the sandwich fails for the exact importance weights")
        o.expect(np.all(iw.u <= exact * (1.0 + 1e-7)),
                 "importance_weights exceeds the exact supremum")
        nz = exact > 0
        shortfall = float(np.max(1.0 - iw.u[nz] / exact[nz]))
        if shortfall > self.SLACK:
            o.failed += 1
        return shortfall


def _layer_counts(o: Outcome, calls) -> None:
    """Work counts of one round, for the trace."""
    lewis = [c[3] for c in _calls(calls, "lewis.lewis_weights")]
    solves = [(c[1][0], c[1][1], c[3]) for c in _calls(calls, "oracle.active_solve")]
    sketches = [(plan, out.sketch) for _, plan, out in solves]
    sketches += [(c[1][0], c[3]) for c in _calls(calls, "sampling.realize")]
    expected = sum(plan.expected_support for plan, _ in sketches)
    ruc = [c[3] for c in _calls(calls, "verify.ruc_check")]
    embed = [c[3] for c in _calls(calls, "verify.embedding_check")]
    o.layer.update({
        "lewis.iterations": sum(lw.iterations for lw in lewis),
        "lewis.gamma": max((lw.gamma for lw in lewis), default=1.0),
        "sampling.realize_calls": len(sketches),
        "sampling.support_over_expected":
            sum(s.support_size for _, s in sketches) / expected if sketches else 0.0,
        "oracle.labels_read": sum(out.ledger.count for _, _, out in solves),
        "solvers.sketch_l1_iterations":
            sum(out.result.iterations for inst, _, out in solves if inst.p == 1.0),
        "solvers.sketch_lp_iterations":
            sum(out.result.iterations for inst, _, out in solves if inst.p != 1.0),
        "verify.betas_evaluated": sum(t.betas_evaluated for t in ruc) + sum(e.directions for e in embed),
    })


WORKLOADS = {w.name: w for w in (FitTall(), AcceptTrials(), Certify())}
