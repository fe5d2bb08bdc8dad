import json
import warnings

import numpy as np
import pytest

from lewisreg import matio, rng
from lewisreg.cli import main
from lewisreg.experiments import ExperimentConfig, run_experiment
from lewisreg.instances import gen_random


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_pipeline_gen_lewis_plan_realize_solve(tmp_path, capsys):
    prefix = str(tmp_path / "inst")
    code, _ = run(capsys, "gen", "--family", "random", "--n", "200", "--d", "3",
                  "--noise", "1.0", "--seed", "5", "--out", prefix)
    assert code == 0
    manifest = json.loads((tmp_path / "inst.manifest.json").read_text())
    assert manifest["n"] == 200 and "hidden" not in manifest

    weights = str(tmp_path / "w.csv")
    code, out = run(capsys, "lewis", "--matrix", manifest["matrix"], "--p", "1.0",
                    "--out", weights)
    assert code == 0
    sidecar = json.loads((tmp_path / "w.csv.json").read_text())
    assert sidecar["converged"]
    assert sidecar["sum"] == pytest.approx(3.0, abs=1e-6)
    w = matio.load_vector(weights)
    assert w.size == 200

    plan_path = str(tmp_path / "plan.json")
    code, _ = run(capsys, "plan", "--weights", weights, "--scheme", "bernoulli-l1",
                  "--eps", "0.3", "--delta", "0.1", "--d", "3", "--c-u", "0.5",
                  "--out", plan_path)
    assert code == 0

    sketch_path = str(tmp_path / "sketch.csv")
    code, out = run(capsys, "realize", "--plan", plan_path, "--seed", "7",
                    "--out", sketch_path)
    assert code == 0
    support = json.loads(out.strip().splitlines()[-1])["support"]
    rows = np.loadtxt(sketch_path, delimiter=",", ndmin=2)
    assert rows.shape[0] == support

    code, out = run(capsys, "solve", "--matrix", manifest["matrix"],
                    "--labels", manifest["labels"], "--sketch", sketch_path,
                    "--p", "1.0")
    assert code == 0
    payload = json.loads(out.strip().splitlines()[-1])
    assert len(payload["beta"]) == 3
    assert payload["status"] in ("converged", "max-iter")


def test_realize_rejects_invalid_plan_file(tmp_path, capsys):
    for params in ([0.5, float("nan")], [0.5, 1.5]):
        plan_path = tmp_path / "bad.json"
        plan_path.write_text(json.dumps({"scheme": "bernoulli-l1", "n": 2,
                                         "params": params, "gamma": 1.0}))
        code, _ = run(capsys, "realize", "--plan", str(plan_path), "--seed", "1",
                      "--out", str(tmp_path / "s.csv"))
        assert code == 1
        assert not (tmp_path / "s.csv").exists()


def test_realize_deterministic_output(tmp_path, capsys):
    prefix = str(tmp_path / "i")
    run(capsys, "gen", "--n", "50", "--d", "2", "--seed", "1", "--out", prefix)
    weights = str(tmp_path / "w.csv")
    run(capsys, "lewis", "--matrix", prefix + ".matrix.csv", "--out", weights)
    plan_path = str(tmp_path / "p.json")
    run(capsys, "plan", "--weights", weights, "--d", "2", "--eps", "0.4",
        "--out", plan_path)
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    run(capsys, "realize", "--plan", plan_path, "--seed", "3", "--out", a)
    run(capsys, "realize", "--plan", plan_path, "--seed", "3", "--out", b)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_gen_reveal_includes_ground_truth(tmp_path, capsys):
    prefix = str(tmp_path / "lb")
    code, _ = run(capsys, "gen", "--family", "lower-bound", "--n", "30", "--d", "3",
                  "--eps", "0.2", "--seed", "2", "--out", prefix, "--reveal")
    assert code == 0
    manifest = json.loads((tmp_path / "lb.manifest.json").read_text())
    assert set(np.abs(manifest["hidden"]["b"])) == {1.0}


def test_gen_binary_matrix(tmp_path, capsys):
    prefix = str(tmp_path / "b")
    code, _ = run(capsys, "gen", "--n", "20", "--d", "2", "--seed", "3",
                  "--out", prefix, "--binary")
    assert code == 0
    A = matio.load_matrix(prefix + ".matrix.dmat")
    assert A.shape == (20, 2)


def test_verify_taylor_and_sandwich(tmp_path, capsys):
    code, out = run(capsys, "verify", "--check", "taylor", "--p", "1.5",
                    "--samples", "50000", "--seed", "1")
    assert code == 0
    payload = json.loads(out)
    assert np.isfinite(payload["sup_ratio"])

    mat = str(tmp_path / "m.csv")
    matio.save_matrix_csv(mat, np.random.default_rng(4).standard_normal((15, 2)))
    code, out = run(capsys, "verify", "--check", "sandwich", "--matrix", mat,
                    "--p", "1.0", "--seed", "2")
    assert code == 0
    assert json.loads(out)["ok"] is True


@pytest.mark.parametrize("check,p", [("embed", 1.0), ("ruc", 1.0), ("cross", 1.5)])
def test_verify_matches_run_experiment(tmp_path, capsys, check, p):
    # The files hold the instance the runner builds from the same seed, so
    # verify and run_experiment must agree to the last digit.
    config = ExperimentConfig(family=check, n=500, d=3, p=p, eps=0.3, delta=0.1,
                              c_u=0.5, c_m=0.6, trials=3, seed=5, directions=6)
    if check == "embed":
        A = rng.normal_matrix(rng.derive(config.seed, 1), config.n, config.d)
        y = np.zeros(config.n)
    else:
        inst = gen_random(config.n, config.d, p=p, seed=rng.derive(config.seed, 1)).instance
        A, y = inst.A, inst.reveal_hidden_labels()
    mat, labels = str(tmp_path / "m.dmat"), str(tmp_path / "y.csv")
    matio.save_matrix_binary(mat, A)
    matio.save_vector(labels, y)
    code, out = run(capsys, "verify", "--check", check, "--matrix", mat,
                    "--labels", labels, "--p", str(p), "--eps", "0.3",
                    "--delta", "0.1", "--trials", "3", "--directions", "6",
                    "--seed", "5", "--c-u", "0.5", "--c-m", "0.6")
    assert code == 0
    payload = json.loads(out)
    expected = run_experiment(config).aggregates
    assert payload == {"check": check, "eps": 0.3, "trials": 3, **expected}


def _reject_constant(name):
    raise ValueError(f"{name} is not valid strict JSON")


@pytest.mark.parametrize("preset", ["l1-accept", "coin-accept"])
def test_run_zero_trials_vacuous_pass(capsys, preset):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run(capsys, "run", "--preset", preset, "--trials", "0",
                        "--n", "500", "--d", "3")
    assert code == 0
    payload = json.loads(out, parse_constant=_reject_constant)
    assert payload["trials"] == []
    assert payload["passed"] is True


def test_run_replay_identical_trial_records(capsys):
    args = ["run", "--preset", "l1-accept", "--n", "800", "--d", "3",
            "--trials", "5", "--seed", "9"]
    code1, out1 = run(capsys, *args)
    code2, out2 = run(capsys, *args)
    assert code1 == code2 == 0
    t1 = json.dumps(json.loads(out1)["trials"], sort_keys=True)
    t2 = json.dumps(json.loads(out2)["trials"], sort_keys=True)
    assert t1 == t2


def test_sweep_single_value_matches_run(capsys):
    _, run_out = run(capsys, "run", "--preset", "scaling-ruc", "--n", "600",
                     "--d", "3", "--trials", "4", "--seed", "2")
    run_med = json.loads(run_out)["aggregates"]["median_violation"]
    code, sweep_out = run(capsys, "sweep", "--preset", "scaling-ruc", "--n", "600",
                          "--d", "3", "--trials", "4", "--seed", "2",
                          "--axis", "c_u", "--values", "0.45")
    assert code == 0
    row = json.loads(sweep_out)["rows"][0]
    assert row["median_violation"] == pytest.approx(run_med)


def test_sweep_writes_csv(tmp_path, capsys):
    out = str(tmp_path / "sweep.json")
    code, _ = run(capsys, "sweep", "--preset", "scaling-ruc", "--n", "600",
                  "--d", "3", "--trials", "3", "--seed", "2",
                  "--axis", "m", "--values", "100,200", "--out", out)
    assert code == 0
    lines = (tmp_path / "sweep.json.csv").read_text().strip().splitlines()
    assert lines[0] == "m,median_violation,pass_fraction"
    assert len(lines) == 3


def test_sweep_rejects_a_metric_the_family_does_not_report(capsys):
    code = main(["sweep", "--preset", "l1-accept", "--n", "600", "--d", "3",
                 "--trials", "2", "--axis", "eps", "--values", "0.2,0.3"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "'median_violation' is not reported" in captured.err
    assert "median_ratio" in captured.err


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run"])  # missing --preset
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["run", "--preset", "l1-accept", "--threads", "2"])  # no such option
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--check", "sandwich", "--matrix", "m.csv",
              "--starts", "6"])  # no such option
    assert exc.value.code == 2


def test_runtime_error_exit_1(tmp_path, capsys):
    code, _ = run(capsys, "lewis", "--matrix", str(tmp_path / "missing.csv"),
                  "--out", str(tmp_path / "w.csv"))
    assert code == 1


def test_unknown_preset_exit_1(capsys):
    code, _ = run(capsys, "run", "--preset", "nope")
    assert code == 1
