import dataclasses
import hashlib

import numpy as np
import pytest

from lewisreg import experiments, lewis_weights, realize, rng
from lewisreg.experiments import (
    SCHEMA_VERSION,
    SWEEP_AXES,
    ExperimentConfig,
    _plan,
    _random_instance,
    fit_loglog_slope,
    preset_config,
    run_experiment,
    run_trials,
    sweep,
)


def small_l1_config(**kw):
    base = dict(family="l1-endtoend", n=3000, d=4, p=1.0, eps=0.3, delta=0.1,
                trials=10, seed=3, noise_std=1.0)
    base.update(kw)
    return ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(family="bogus").validate()
    with pytest.raises(ValueError):
        ExperimentConfig(eps=0.0).validate()
    with pytest.raises(ValueError):
        preset_config("not-a-preset")
    # A misspelt scheme must not fall through to a Bernoulli plan.
    with pytest.raises(ValueError, match="scheme"):
        ExperimentConfig(family="embed", scheme="poisson").validate()
    # A sample-size target must be a positive number, whichever family reads it.
    for m in (0.0, -5.0, float("nan"), float("inf")):
        for family, scheme in (("l1-endtoend", "bernoulli-l1"), ("lp-endtoend", "poisson-lp"),
                               ("embed", "uniform")):
            config = ExperimentConfig(family=family, scheme=scheme, p=1.5, m_target=m)
            with pytest.raises(ValueError, match="m_target"):
                config.validate()
    ExperimentConfig(m_target=0.5).validate()


def test_run_trials_rejects_shape_mismatch():
    config = small_l1_config(n=300, d=3, trials=1)
    inst = _random_instance(config)
    with pytest.raises(ValueError, match="does not match"):
        run_trials(dataclasses.replace(config, d=4), inst)
    with pytest.raises(ValueError, match="does not match"):
        run_trials(dataclasses.replace(config, family="embed", n=301), inst.A)


def test_uniform_plan_needs_no_lewis_weights(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("lewis_weights called for a uniform plan")

    monkeypatch.setattr(experiments, "lewis_weights", refuse)
    config = ExperimentConfig(family="embed", n=500, d=3, scheme="uniform", m_target=60.0)
    plan = _plan(config, None, 1.0, config.scheme)
    assert plan.m == 60


def test_ruc_plan_follows_p(monkeypatch):
    # Above p = 1 the ruc family samples by the p-Lewis weights (Poisson Lp),
    # as the paper's lp analysis does; at p = 1 by the L1 Lewis weights.
    seen = []

    def record_lewis(A, p, *args, **kwargs):
        seen.append(("lewis", p))
        return lewis_weights(A, p, *args, **kwargs)

    def record_realize(plan, seed):
        seen.append(("realize", plan.scheme))
        return realize(plan, seed)

    monkeypatch.setattr(experiments, "lewis_weights", record_lewis)
    monkeypatch.setattr(experiments, "realize", record_realize)
    for p, scheme in ((1.5, "poisson-lp"), (1.0, "bernoulli-l1")):
        seen.clear()
        run_experiment(preset_config("scaling-ruc", n=600, d=3, p=p, trials=1,
                                     directions=4))
        assert seen == [("lewis", p), ("realize", scheme)]


def test_report_embeds_config_and_version():
    rep = run_experiment(small_l1_config(trials=3))
    assert rep.schema_version == 2
    assert rep.tool_version
    assert rep.config["n"] == 3000
    assert len(rep.trials) == 3
    assert rep.wall_time_s > 0


def test_sweep_requires_sorted_values():
    with pytest.raises(ValueError):
        sweep(small_l1_config(), "m", [200, 100])
    with pytest.raises(ValueError):
        sweep(small_l1_config(), "budget", [1, 2])


@pytest.mark.parametrize("axis,field,value", [("m", "m_target", 700.0), ("eps", "eps", 0.35),
                                              ("c_u", "c_u", 0.3)])
def test_sweep_point_matches_run_experiment(axis, field, value):
    assert SWEEP_AXES[axis] == field
    config = small_l1_config(n=1500, d=3, trials=3)
    got = sweep(config, axis, [value])[0]
    want = run_experiment(dataclasses.replace(config, **{field: value}))
    assert got.trials == want.trials
    assert got.aggregates == want.aggregates


def test_eps_sweep_queries_scale_like_eps_minus_two():
    eps_values = [0.15, 0.25, 0.4]
    reports = sweep(small_l1_config(trials=6), "eps", eps_values)
    queries = [r.aggregates["query_quantiles"]["median"] for r in reports]
    slope = fit_loglog_slope(eps_values, queries)
    assert -2.4 <= slope <= -1.6


def test_m_sweep_median_violation_monotone_up_to_noise():
    cfg = preset_config("scaling-ruc", n=4000, d=4, trials=8, directions=12)
    ms = [200, 800, 3200]
    reports = sweep(cfg, "m", ms)
    meds = [r.aggregates["median_violation"] for r in reports]
    assert meds[0] > meds[1] > meds[2]


def test_lp_family_requires_p_in_open_interval():
    cfg = dataclasses.replace(small_l1_config(), family="cross", p=1.0)
    with pytest.raises(ValueError):
        run_experiment(cfg)


def test_coin_family_runs_small():
    cfg = ExperimentConfig(family="coin", trials=200, seed=1, coin_eps=0.1,
                           coin_m_small=9, coin_m_large=4000)
    rep = run_experiment(cfg)
    assert 0.0 <= rep.aggregates["win_rate_small"] <= 1.0
    assert rep.aggregates["win_rate_large"] >= 0.99


def test_trial_records_are_deterministic():
    a = run_experiment(small_l1_config(trials=5))
    b = run_experiment(small_l1_config(trials=5))
    assert a.trials == b.trials
    c = run_experiment(small_l1_config(trials=5, seed=4))
    assert a.trials != c.trials


def test_ratio_close_to_one_with_generous_budget():
    rep = run_experiment(small_l1_config(trials=8, m_target=1500.0))
    ratios = np.array([t["ratio"] for t in rep.trials])
    assert np.median(ratios) < 1.05


# sha256 of the realized `indices` of trials 0-3, as int64 bytes in trial
# order, at schema version 2.
PRESET_SKETCH_DIGESTS = {
    "l1-accept": "e73db796f5c813f6f33163638d6681fb5c8d4d3c08a860f627756732d5067624",
    "lp-accept": "9b2889fb9010d0eca09bde50e9c03d5a1c1166a52e7d38da63f1dcc792dfb5ab",
}


@pytest.mark.parametrize("name", sorted(PRESET_SKETCH_DIGESTS))
def test_preset_sketches_are_pinned(name):
    # A change to the Lewis weights, the plans or `realize` that moves one
    # realized row fails here: that is a versioned break, which bumps
    # SCHEMA_VERSION and these digests together.
    assert SCHEMA_VERSION == 2
    config = preset_config(name)
    plan = _plan(config, _random_instance(config).A, config.p, config.scheme)
    h = hashlib.sha256()
    for t in range(4):
        h.update(realize(plan, rng.derive(config.seed, 0x02, t)).indices.tobytes())
    assert h.hexdigest() == PRESET_SKETCH_DIGESTS[name]
