"""Benchmark for lewisreg: one workload per run, metrics as JSON on the last line.

Run from the root of a checkout of the repository:

    python3 bench/run.py --workload fit-tall --seed 1 --seconds 30 --trace 0

A run repeats whole rounds of the workload for about `--seconds` seconds.
After each round, outside the timed region, it times one `import lewisreg`
in a fresh interpreter and one build of the workload's inputs (set-up), so
that the set-up samples span the same stretch of time as the rounds. Then it
checks the first round's outputs against the reference computations in
reference.py and that every later round produced the same outputs. `wall_s`
is the time of the rounds divided by their number. With `--trace 1`, rounds
alternate between traced and untraced and the per-layer metrics are printed
instead of the end-to-end ones. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import probe

# One BLAS thread: see README.md ("Threads"). Set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("fit-tall", "accept-trials", "certify")

END_TO_END_UNITS = {
    "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "label_queries_p50": "count", "label_queries_max": "count",
    "rel_error_p50": "ratio", "rel_error_max": "ratio",
}
# per-layer time metric -> span name whose total time it reports
SPAN_METRICS = {
    "instances.gen_s": "instances.gen_random",
    "lewis.weights_s": "lewis.lewis_weights",
    "lewis.importance_s": "lewis.importance_weights",
    "sampling.realize_s": "sampling.realize",
    "oracle.query_s": "oracle.query",
    "solvers.sketch_l1_s": "solvers.sketch_l1",
    "solvers.sketch_lp_s": "solvers.sketch_lp",
    "solvers.full_l1_s": "solvers.full_l1",
    "solvers.full_lp_s": "solvers.full_lp",
    "verify.ruc_s": "verify.ruc_check",
    "verify.embed_s": "verify.embedding_check",
    "verify.cross_s": "verify.cross_term_check",
}
COUNT_METRICS = {
    "lewis.iterations": "count", "lewis.gamma": "ratio",
    "lewis.importance_shortfall_max": "ratio",
    "sampling.realize_calls": "count", "sampling.support_over_expected": "ratio",
    "oracle.labels_read": "count",
    "solvers.sketch_l1_iterations": "count", "solvers.sketch_lp_iterations": "count",
    "verify.betas_evaluated": "count",
}

IMPORT_PROBE = ("import time\n"
                "t = time.perf_counter()\n"
                "import lewisreg\n"
                "print(time.perf_counter() - t)\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lewisreg" / "__init__.py").is_file():
        print(f"error: {SRC / 'lewisreg'} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    started = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import reference
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    setup = SetUp(wl, args.seed)
    inputs = setup.sample()
    phases = {"setup": time.perf_counter() - started}
    rounds, first, spans = run_rounds(wl, inputs, args.seconds, bool(args.trace), setup.sample)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    phases["rounds"] = time.perf_counter() - started - phases["setup"]
    import_s, input_s = setup.import_s, setup.input_s

    faults = []
    outcome = workloads.Outcome()
    try:
        outcome = wl.check(inputs, first["out"], first["calls"])
        faults += outcome.faults
        reference.self_test()
    except Exception:  # a check that cannot run is a failed check, reported below
        faults.append(traceback.format_exc())
    if any(r["digest"] != rounds[0]["digest"] for r in rounds):
        faults.append("outputs differ between rounds")
    phases["checks"] = time.perf_counter() - started - phases["setup"] - phases["rounds"]

    if args.trace:
        metrics = layer_metrics(rounds, outcome, import_s, input_s)
    else:
        metrics = {
            "wall_s": statistics.fmean(r["seconds"] for r in rounds),
            "setup_s": statistics.median(import_s) + statistics.median(input_s),
            "peak_rss_mb": peak_rss_mb,
            "label_queries_p50": float(statistics.median(outcome.labels or [0])),
            "label_queries_max": float(max(outcome.labels or [0])),
            "rel_error_p50": float(statistics.median(outcome.rel_errors or [0.0])),
            "rel_error_max": float(max(outcome.rel_errors or [0.0])),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    result = {
        "correct": not faults,
        "attempted": max(1, len(rounds) * outcome.ops),
        "failed": len(rounds) * outcome.failed,
        "metrics": metrics,
    }
    env = environment()
    for fault in faults:
        print(f"check failed: {fault}", file=sys.stderr)
    write_record(args, env, result, rounds, import_s, input_s, faults, spans, phases)
    print("# env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


class SetUp:
    """Times the set-up a user pays for: `import lewisreg` and the inputs.

    Each `sample()` times one import in a fresh interpreter, so that nothing
    this process has loaded makes it faster, and one build of the inputs.
    The first call makes one untimed import before, which writes the bytecode
    cache: a user pays that once per install, not per run.
    """

    def __init__(self, wl, seed):
        self.wl, self.seed = wl, seed
        self.import_s, self.input_s = [], []
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), self.env.get("PYTHONPATH")]))
        self._time_import()

    def _time_import(self) -> float:
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=self.env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        return float(done.stdout.split()[-1])

    def sample(self):
        """Time one import and one input build; return the inputs built."""
        self.import_s.append(self._time_import())
        t0 = time.perf_counter()
        inputs = self.wl.build(self.seed)
        self.input_s.append(time.perf_counter() - t0)
        return inputs


def run_rounds(wl, inputs, seconds, tracing, sample_setup):
    """Repeat whole rounds, each followed by an untimed set-up sample, for
    about `seconds` seconds: the run ends at the end of the round-and-sample
    cycle nearest to `seconds`.

    Returns per-round records, the first round's outputs and captured calls,
    and the spans of the last traced round.
    """
    rounds, first, spans = [], None, []
    start = time.perf_counter()
    while True:
        traced = tracing and len(rounds) % 2 == 0
        with probe.Probe(traced) as seen:
            t0 = time.perf_counter()
            out = wl.run(inputs)
            dt = time.perf_counter() - t0
        record = {"seconds": dt, "traced": traced, "digest": wl.digest(out)}
        if traced:
            total, self_s, covered = probe.span_times(seen.spans)
            record.update(span_total=total, span_self=self_s, coverage=covered / dt)
            spans = seen.spans
        if first is None:
            first = {"out": out, "calls": seen.calls}
        del out, seen
        rounds.append(record)
        sample_setup()
        elapsed = time.perf_counter() - start
        cycle = elapsed / len(rounds)
        if elapsed + cycle / 2 > seconds and len(rounds) >= (2 if tracing else 1):
            return rounds, first, spans


def layer_metrics(rounds, outcome, import_s, input_s) -> dict:
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]

    def med(values):
        return float(statistics.median(values))

    values = {
        "setup.import_s": (med(import_s), "s"),
        "setup.inputs_s": (med(input_s), "s"),
    }
    for metric, span in SPAN_METRICS.items():
        values[metric] = (med(r["span_total"].get(span, 0.0) for r in traced), "s")
    values["experiments.self_s"] = (
        med(r["span_self"].get("experiments.run_experiment", 0.0) for r in traced), "s")
    for metric, unit in COUNT_METRICS.items():
        values[metric] = (float(outcome.layer.get(metric, 0.0)), unit)
    values["trace.coverage"] = (med(r["coverage"] for r in traced), "ratio")
    values["trace.overhead_s"] = (
        med(r["seconds"] for r in traced) - med(r["seconds"] for r in plain), "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def blas_threads() -> dict:
    """Thread count of each OpenBLAS library loaded in this process."""
    found = {}
    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return found
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def write_record(args, env, result, rounds, import_s, input_s, faults, spans, phases) -> None:
    """Write the run's full record, and the traced round's spans, under .bench_out/."""
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "args": vars(args), "env": env, "result": result, "faults": faults,
        "import_s": import_s, "inputs_s": input_s, "phase_s": phases,
        "rounds": [{k: v for k, v in r.items() if k != "span_self"} for r in rounds],
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    if spans:
        with open(OUT / f"{stem}.spans.jsonl", "w") as f:
            for name, start, end, parent in spans:
                f.write(json.dumps([name, start - spans[0][1], end - spans[0][1], parent]) + "\n")


if __name__ == "__main__":
    sys.exit(main())
