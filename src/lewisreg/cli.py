"""Command-line interface: gen, lewis, plan, realize, solve, verify, run, sweep.

All I/O goes through files plus JSON on stdout so the subcommands compose into
pipelines. Exit codes: 0 success (and, for `run`/`sweep`, all pass criteria
met; for `solve`, a solve that converged with its certificate), 1 runtime
failure, criteria not met or a solve without a certificate (its JSON is still
printed), 2 usage errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import __version__, matio
from .errors import BudgetExceededError, DegenerateMatrixError
from .experiments import (
    DEFAULT_C_M,
    DEFAULT_C_U,
    FIELD_TYPES,
    SWEEP_FIELDS,
    ExperimentConfig,
    fit_loglog_slope,
    json_text,
    preset_config,
    run_experiment,
    run_trials,
    sweep,
)
from .instances import gen_lower_bound, gen_random
from .lewis import importance_weights, lewis_weights, sandwich_check
from .oracle import RegressionInstance
from .sampling import (
    BERNOULLI_L1,
    POISSON_LP,
    UNIFORM,
    SamplePlan,
    plan_l1,
    plan_lp,
    plan_uniform,
    realize,
)
from .solvers import CONVERGED, solve_weighted_l1, solve_weighted_lp
from .verify import taylor_claim_check


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, IndexError, OSError, DegenerateMatrixError,
            BudgetExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lewisreg",
        description="Query-efficient L1/Lp regression via Lewis-weight sampling",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a benchmark instance")
    g.add_argument("--family", choices=["random", "lower-bound"], default="random")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--d", type=int, required=True)
    g.add_argument("--p", type=float, default=1.0)
    g.add_argument("--eps", type=float, default=0.1, help="label bias (lower-bound)")
    g.add_argument("--noise", type=float, default=1.0)
    g.add_argument("--outliers", type=int, default=0)
    g.add_argument("--outlier-scale", type=float, default=1e4)
    g.add_argument("--heavy-row", type=float, default=None,
                   help="scale factor for row 0 (coherent variant)")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True, help="output path prefix")
    g.add_argument("--binary", action="store_true", help="write the binary matrix format")
    g.add_argument("--reveal", action="store_true",
                   help="include hidden ground truth in the manifest (test-only)")
    g.set_defaults(func=_cmd_gen)

    l = sub.add_parser("lewis", help="compute Lewis weights of a matrix file")
    l.add_argument("--matrix", required=True)
    l.add_argument("--p", type=float, default=1.0)
    l.add_argument("--tol", type=float, default=1e-8)
    l.add_argument("--max-iter", type=int, default=500)
    l.add_argument("--out", required=True, help="weights CSV; sidecar JSON goes to .json")
    l.set_defaults(func=_cmd_lewis)

    pl = sub.add_parser("plan", help="build a sampling plan from weights")
    pl.add_argument("--weights", help="Lewis weights CSV (one per line)")
    pl.add_argument("--matrix", help="compute weights from this matrix instead")
    pl.add_argument("--scheme", choices=[BERNOULLI_L1, POISSON_LP, UNIFORM],
                    default=BERNOULLI_L1)
    pl.add_argument("--p", type=float, default=1.5)
    pl.add_argument("--eps", type=float, default=0.25)
    pl.add_argument("--delta", type=float, default=0.1)
    pl.add_argument("--d", type=int, default=None)
    pl.add_argument("--gamma", type=float, default=None)
    pl.add_argument("--c-u", type=float, default=1.0)
    pl.add_argument("--c-m", type=float, default=1.0)
    pl.add_argument("--u", type=float, default=None, help="override the L1 threshold u")
    pl.add_argument("--m", type=float, default=None, help="override the budget m")
    pl.add_argument("--out", required=True)
    pl.set_defaults(func=_cmd_plan)

    r = sub.add_parser("realize", help="realize a plan into a sketch CSV")
    r.add_argument("--plan", required=True)
    r.add_argument("--seed", type=int, required=True)
    r.add_argument("--out", required=True, help="sketch CSV: index,weight per line")
    r.set_defaults(func=_cmd_realize)

    s = sub.add_parser("solve", help="solve (optionally sketched) weighted regression")
    s.add_argument("--matrix", required=True)
    s.add_argument("--labels", required=True)
    s.add_argument("--sketch", default=None)
    s.add_argument("--p", type=float, default=1.0)
    s.add_argument("--tol", type=float, default=1e-8)
    s.set_defaults(func=_cmd_solve)

    v = sub.add_parser("verify", help="run one empirical certification check")
    v.add_argument("--check", choices=["ruc", "embed", "cross", "taylor", "sandwich"],
                   required=True)
    v.add_argument("--matrix")
    v.add_argument("--labels")
    v.add_argument("--p", type=float, default=1.0)
    v.add_argument("--eps", type=float, default=0.25)
    v.add_argument("--delta", type=float, default=0.1)
    v.add_argument("--trials", type=int, default=20)
    v.add_argument("--directions", type=int, default=40)
    v.add_argument("--samples", type=int, default=10**6)
    v.add_argument("--c-u", type=float, default=DEFAULT_C_U)
    v.add_argument("--c-m", type=float, default=DEFAULT_C_M)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--out", default=None)
    v.set_defaults(func=_cmd_verify)

    run = sub.add_parser("run", help="run a named experiment preset")
    run.add_argument("--preset", required=True)
    _add_overrides(run)
    run.set_defaults(func=_cmd_run)

    sw = sub.add_parser("sweep", help="sweep one config axis and fit the trend")
    sw.add_argument("--preset", required=True)
    sw.add_argument("--axis", choices=SWEEP_FIELDS, required=True, metavar="FIELD",
                    help="the int or float ExperimentConfig field to step, by its "
                         f"name: one of {', '.join(SWEEP_FIELDS)}")
    sw.add_argument("--values", required=True,
                    help="comma-separated ascending values")
    sw.add_argument("--metric", default="median_violation")
    _add_overrides(sw)
    sw.set_defaults(func=_cmd_sweep)

    return parser


# the config fields `run` and `sweep` override, each by the flag --<field>
OVERRIDES = ("n", "d", "p", "eps", "delta", "scheme", "c_u", "c_m", "trials", "seed")


def _add_overrides(p: argparse.ArgumentParser) -> None:
    for field in OVERRIDES:
        p.add_argument("--" + field.replace("_", "-"), type=FIELD_TYPES[field], default=None,
                       choices=[BERNOULLI_L1, POISSON_LP, UNIFORM] if field == "scheme" else None)
    p.add_argument("--out", default=None)


def _overrides(args) -> dict:
    return {f: getattr(args, f) for f in OVERRIDES if getattr(args, f) is not None}


def _cmd_gen(args) -> int:
    prefix = args.out
    manifest = {"family": args.family, "n": args.n, "d": args.d, "seed": args.seed}
    if args.family == "random":
        gen = gen_random(args.n, args.d, noise_std=args.noise,
                         n_outliers=args.outliers, outlier_scale=args.outlier_scale,
                         heavy_row_scale=args.heavy_row, p=args.p, seed=args.seed)
        inst = gen.instance
        manifest.update({"p": args.p, "noise": args.noise, "outliers": args.outliers,
                         "outlier_scale": args.outlier_scale})
        if args.reveal:
            manifest["hidden"] = {"beta0": gen.beta0.tolist(),
                                  "outlier_rows": gen.outlier_rows.tolist()}
    else:
        lb = gen_lower_bound(args.n, args.d, args.eps, seed=args.seed)
        inst = lb.instance
        manifest.update({"eps": args.eps})
        if args.reveal:
            manifest["hidden"] = {"b": lb.b.tolist()}
    mat_path = f"{prefix}.matrix." + ("dmat" if args.binary else "csv")
    if args.binary:
        matio.save_matrix_binary(mat_path, inst.A)
    else:
        matio.save_matrix_csv(mat_path, inst.A)
    matio.save_vector(f"{prefix}.labels.csv", inst.reveal_hidden_labels())
    manifest["matrix"] = mat_path
    manifest["labels"] = f"{prefix}.labels.csv"
    with open(f"{prefix}.manifest.json", "w") as f:
        f.write(json_text(manifest, indent=2))
    print(json_text(manifest))
    return 0


def _cmd_lewis(args) -> int:
    A = matio.load_matrix(args.matrix)
    lw = lewis_weights(A, args.p, tol=args.tol, max_iter=args.max_iter)
    matio.save_vector(args.out, lw.w)
    sidecar = {"p": lw.p, "gamma": lw.gamma, "residual": lw.residual,
               "iterations": lw.iterations, "sum": lw.total,
               "converged": lw.converged}
    with open(args.out + ".json", "w") as f:
        f.write(json_text(sidecar, indent=2))
    print(json_text(sidecar))
    return 0


def _cmd_plan(args) -> int:
    if (args.weights is None) == (args.matrix is None):
        raise ValueError("provide exactly one of --weights or --matrix")
    if args.weights is not None:
        w = matio.load_vector(args.weights)
        gamma = args.gamma if args.gamma is not None else 1.0
        d = args.d
    else:
        A = matio.load_matrix(args.matrix)
        lw = lewis_weights(A, args.p if args.scheme == POISSON_LP else 1.0)
        w = lw.w
        gamma = args.gamma if args.gamma is not None else lw.gamma
        d = args.d if args.d is not None else A.shape[1]
    if args.scheme == BERNOULLI_L1:
        plan = plan_l1(w, gamma=gamma, eps=args.eps, delta=args.delta, d=d,
                       u_override=args.u, c_u=args.c_u)
    elif args.scheme == POISSON_LP:
        plan = plan_lp(w, gamma=gamma, eps=args.eps, delta=args.delta, d=d,
                       p=args.p, m_override=args.m, c_m=args.c_m)
    else:
        if args.m is None:
            raise ValueError("uniform scheme needs --m")
        plan = plan_uniform(w.size, int(args.m))
    payload = _plan_to_json(plan)
    with open(args.out, "w") as f:
        f.write(json_text(payload))
    print(json_text({k: payload[k] for k in
                     ("scheme", "n", "gamma", "u", "m", "expected_support")}))
    return 0


def _plan_to_json(plan: SamplePlan) -> dict:
    return {
        "scheme": plan.scheme,
        "n": plan.n,
        "params": plan.params.tolist(),
        "gamma": plan.gamma,
        "u": plan.u,
        "m": plan.m,
        "expected_support": plan.expected_support,
    }


def _plan_from_json(payload: dict) -> SamplePlan:
    return SamplePlan(
        scheme=payload["scheme"],
        n=int(payload["n"]),
        params=np.asarray(payload["params"], dtype=np.float64),
        gamma=float(payload["gamma"]),
        u=payload.get("u"),
        m=payload.get("m"),
    )


def _cmd_realize(args) -> int:
    with open(args.plan) as f:
        plan = _plan_from_json(json.load(f))
    sketch = realize(plan, args.seed)
    with open(args.out, "w") as f:
        for i, w in zip(sketch.indices, sketch.weights):
            f.write(f"{i},{w:.17g}\n")
    print(json_text({"support": sketch.support_size, "seed": args.seed,
                     "plan_hash": sketch.plan_hash}))
    return 0


def _load_sketch_csv(path):
    rows = np.loadtxt(path, delimiter=",", ndmin=2)
    return rows[:, 0].astype(np.int64), rows[:, 1]


def _cmd_solve(args) -> int:
    A = matio.load_matrix(args.matrix)
    y = matio.load_vector(args.labels)
    s = None
    if args.sketch is not None:
        idx, weights = _load_sketch_csv(args.sketch)
        A, y = A[idx], y[idx]
        s = weights
    if args.p == 1.0:
        res = solve_weighted_l1(A, y, s, tol=args.tol)
    else:
        res = solve_weighted_lp(A, y, args.p, s, tol=args.tol)
    print(json_text({
        "beta": res.beta.tolist(),
        "objective": res.objective,
        "iterations": res.iterations,
        "status": res.status,
        "gap": res.gap,
    }))
    return 0 if res.status == CONVERGED else 1


def _cmd_verify(args) -> int:
    if args.check == "taylor":
        rep = taylor_claim_check(args.p if args.p > 1.0 else 1.5,
                                 samples=args.samples, seed=args.seed)
        payload = dataclasses.asdict(rep)
    elif args.check == "sandwich":
        A = matio.load_matrix(args.matrix)
        lw = lewis_weights(A, args.p)
        iw = importance_weights(A, args.p)
        rep = sandwich_check(A, args.p, lw, iw)
        payload = {"p": rep.p, "slack": rep.slack, "ok": rep.ok,
                   "lower_violations": rep.lower_violations,
                   "upper_violations": rep.upper_violations}
    else:
        A, instance = _instance_from_files(args)
        config = ExperimentConfig(
            family=args.check, n=A.shape[0], d=A.shape[1], p=args.p,
            eps=args.eps, delta=args.delta, c_u=args.c_u, c_m=args.c_m,
            trials=args.trials, seed=args.seed, directions=args.directions,
        )
        _, aggregates, _ = run_trials(config, instance)
        payload = {"check": args.check, "eps": args.eps, "trials": args.trials,
                   **aggregates}
    text = json_text(payload, indent=2)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
    print(text)
    return 0


def _instance_from_files(args):
    """A and what the check runs on: A itself for embed, else a RegressionInstance."""
    labels = args.check != "embed"
    if not args.matrix or (labels and not args.labels):
        needs = "--matrix and --labels" if labels else "--matrix"
        raise ValueError(f"--check {args.check} needs {needs}")
    A = matio.load_matrix(args.matrix)
    if not labels:
        return A, A
    return A, RegressionInstance(A, matio.load_vector(args.labels), args.p)


def _cmd_run(args) -> int:
    config = preset_config(args.preset, **_overrides(args))
    report = run_experiment(config)
    text = report.to_json()
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
    print(text)
    return 0 if report.passed else 1


def _cmd_sweep(args) -> int:
    config = preset_config(args.preset, **_overrides(args))
    reports = sweep(config, args.axis, [float(v) for v in args.values.split(",") if v])
    if args.metric not in reports[0].aggregates:
        raise ValueError(f"--metric {args.metric!r} is not reported; choose from "
                         f"{sorted(reports[0].aggregates)}")
    rows = [{args.axis: r.config[args.axis], args.metric: r.aggregates[args.metric],
             "pass_fraction": r.aggregates.get("pass_fraction")} for r in reports]
    slope = fit_loglog_slope([row[args.axis] for row in rows],
                             [row[args.metric] for row in rows])
    out = {"axis": args.axis, "rows": rows, "metric": args.metric, "slope": slope}
    if args.out:
        with open(args.out, "w") as f:
            f.write(json_text({"summary": out,
                               "reports": [dataclasses.asdict(r) for r in reports]},
                              indent=2))
        with open(args.out + ".csv", "w") as f:
            f.write(f"{args.axis},{args.metric},pass_fraction\n")
            for row in rows:
                f.write(f"{row[args.axis]},{row[args.metric]},{row['pass_fraction']}\n")
    print(json_text(out))
    return 0 if all(r.passed for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
