"""Metric aggregation, verification reports, and the experiment runner."""

import hashlib

import numpy as np
import pytest

from roamtoken import (
    AlphaSchedule,
    CiConfig,
    ExperimentConfig,
    IidFailureGraph,
    MetricSeries,
    MissingTrace,
    NonFiniteMetric,
    OutDegreeReciprocal,
    StaticGraph,
    optimality_ratio,
    rmse_last_seen,
    rmse_network_ci,
    rmse_token,
    run_episode,
    run_experiment,
    verify_sequential_connectivity,
    verify_state_identity,
    verify_tail_bounds,
)
from roamtoken.chain import apply_rule
from roamtoken.engine import CiTrials, TokenTrials, run_central_trials, run_token_trials
from roamtoken.harness import check_rule_support, write_compare_csv, write_metrics_csv
from roamtoken._streams import derived_stream, trial_seed

from conftest import make_ref5_model, ref5_adjacency


def _token_fixture(theta, sq, last=None, visited=None):
    sq = np.asarray(sq, dtype=float)
    return TokenTrials(
        theta=np.asarray(theta, dtype=float),
        trials=sq.shape[0],
        horizon=sq.shape[1] - 1,
        sq_err=sq,
        last_seen_mean_sq=None if last is None else np.asarray(last, dtype=float),
        visited_count=visited,
    )


def test_rmse_token_trivial_values():
    theta = [3.0, 4.0]  # norm^2 = 25
    exact = _token_fixture(theta, np.zeros((3, 4)))
    assert np.array_equal(rmse_token(exact).values, np.zeros(4))
    initial = _token_fixture(theta, np.full((3, 4), 25.0))
    assert np.allclose(rmse_token(initial).values, np.ones(4))
    assert np.allclose(rmse_token(initial).half_widths, 0.0)


def test_rmse_token_hand_fixture():
    theta = [1.0, 0.0]  # norm^2 = 1
    sq = np.array([[1.0, 0.5], [1.0, 0.1]])
    series = rmse_token(_token_fixture(theta, sq))
    assert np.allclose(series.values, [1.0, 0.3])
    expected_hw = 1.96 * np.std(sq, axis=0, ddof=1) / np.sqrt(2)
    assert np.allclose(series.half_widths, expected_hw)
    assert series.trials == 2


def test_rmse_last_seen_trivial_and_missing():
    theta = [1.0]
    trials = _token_fixture(theta, np.zeros((2, 3)), last=np.zeros((2, 3)))
    assert np.array_equal(rmse_last_seen(trials).values, np.zeros(3))
    single = _token_fixture(theta, np.zeros((2, 3)), last=np.full((2, 3), 1.0))
    assert np.allclose(rmse_last_seen(single).values, np.ones(3))
    with pytest.raises(MissingTrace):
        rmse_last_seen(_token_fixture(theta, np.zeros((2, 3))))


def test_rmse_ci_hand_fixture():
    theta = [2.0]  # norm^2 = 4
    net = CiTrials(
        theta=np.array(theta), trials=2, horizon=1, netavg_sq_err=np.array([[4.0, 2.0], [4.0, 0.0]])
    )
    series = rmse_network_ci(net)
    assert np.allclose(series.values, [1.0, 0.25])


def test_optimality_ratio_of_central_is_near_one():
    model = make_ref5_model()
    trials = run_central_trials(model, horizon=400, trials=400, master_seed=8)
    series = optimality_ratio(trials, model)
    t = np.arange(401)
    with np.errstate(invalid="ignore"):
        expected = t / (t + 1.0)
    for probe in (50, 200, 400):
        assert abs(series.values[probe] - expected[probe]) < 4 * series.half_widths[probe] + 0.02


def test_optimality_ratio_zero_noise_vanishes():
    model = make_ref5_model(noise="zero")
    spec = StaticGraph(ref5_adjacency())
    trials = run_token_trials(
        model, spec, OutDegreeReciprocal(), AlphaSchedule.linear(), 2000, 4, master_seed=0
    )
    series = optimality_ratio(trials, model)
    assert series.values[-1] < 0.01


def test_optimality_ratio_needs_two_trials():
    with pytest.raises(ValueError):
        optimality_ratio(_token_fixture([1.0], np.zeros((1, 3))), make_ref5_model())


def test_metric_series_validation():
    with pytest.raises(ValueError):
        MetricSeries("x", np.zeros(3), np.zeros(2), 1)
    with pytest.raises(ValueError):
        MetricSeries("x", np.zeros(3), -np.ones(3), 1)


def test_verify_tail_bounds_pass_and_n1():
    spec = StaticGraph(np.zeros((1, 1), dtype=bool))
    report = verify_tail_bounds(spec, OutDegreeReciprocal(), trials=50, horizon=10, master_seed=0)
    assert report.passed
    assert np.all(report.gap_frac == 0.0)

    from roamtoken import IidFailureGraph, Lazy

    two = IidFailureGraph(~np.eye(2, dtype=bool), p_fail=0.5)
    report2 = verify_tail_bounds(two, OutDegreeReciprocal(), trials=4000, horizon=60, master_seed=1)
    assert report2.passed
    # non-start node has closed-form tail 2^-t, dominated by the envelope
    emp = report2.nonvisit_frac[:8, 1]
    assert np.abs(emp - 0.5 ** np.arange(8)).max() < 0.04

    lazy_static = StaticGraph(~np.eye(2, dtype=bool))
    report3 = verify_tail_bounds(lazy_static, Lazy(0.5), trials=4000, horizon=60, master_seed=2)
    assert report3.passed


def test_verify_tail_bounds_uses_seed_sequence_master():
    # a SeedSequence master used to be replaced by seed 0; it must reach the chain trials
    from numpy.random import SeedSequence

    spec = IidFailureGraph(~np.eye(22, dtype=bool), p_fail=0.5)
    rule = OutDegreeReciprocal()
    r1, r2, r_int = (
        verify_tail_bounds(spec, rule, trials=20, horizon=5, master_seed=seed)
        for seed in (SeedSequence(1), SeedSequence(2), 1)
    )
    assert not np.array_equal(r1.nonvisit_frac, r2.nonvisit_frac)
    # the entropy is extended the way trial seeds extend it
    assert np.array_equal(r1.nonvisit_frac, r_int.nonvisit_frac)
    assert np.array_equal(r1.gap_frac, r_int.gap_frac)
    assert r1.delta == r2.delta == r_int.delta  # the floor is exact, not sampled


def test_verify_tail_bounds_envelope_is_not_vacuous_on_large_graphs():
    # the block length used to be n: on K22 that gave eps = delta**22 ~ 1e-29, so the
    # envelope was 1 at every tick and the check could not fail
    spec = IidFailureGraph(~np.eye(22, dtype=bool), p_fail=0.5)
    report = verify_tail_bounds(spec, OutDegreeReciprocal(), trials=200, horizon=400, master_seed=0)
    assert report.constants.m == 1
    assert report.nonvisit_env[400] < 1
    assert report.passed


def test_verify_tail_bounds_rejects_deterministic():
    from roamtoken import DeterministicSequence, UnsupportedProcess

    frames = [np.array([[False, True], [True, False]])]
    with pytest.raises(UnsupportedProcess):
        verify_tail_bounds(DeterministicSequence(frames, cycle=True), OutDegreeReciprocal())


def test_verify_state_identity_passes(ref5_model, ref5_iid, reciprocal, linear_alpha):
    report = verify_state_identity(
        ref5_model, ref5_iid, reciprocal, linear_alpha, episodes=3, horizon=80, master_seed=0
    )
    assert report.passed
    assert report.max_d_dev < 1e-10


def test_verify_sequential_connectivity_small_sample():
    report = verify_sequential_connectivity(
        n_values=(2, 3), b_values=(1, 2), samples_per_combo=100, master_seed=0
    )
    assert report.passed
    assert report.checked > 0


def test_rule_support_check_flags_broken_rules(ref5_iid, reciprocal):
    rng = derived_stream(0, 5)
    good = check_rule_support(
        ref5_iid, samples=50, rng=rng, rule_apply=lambda a: apply_rule(reciprocal, a)
    )
    assert good.passed

    def broken(a):
        n = a.shape[0]
        return np.full((n, n), 1.0 / n)  # ignores the support entirely

    bad = check_rule_support(ref5_iid, samples=50, rng=derived_stream(0, 6), rule_apply=broken)
    assert not bad.passed
    assert "missing edge" in bad.violations[0]


def _smoke_config(**kw):
    defaults = dict(
        model=make_ref5_model(),
        graph=StaticGraph(ref5_adjacency()),
        rule=OutDegreeReciprocal(),
        schedule=AlphaSchedule.linear(),
        algorithms=("token", "central"),
        horizon=40,
        trials=3,
        seed=123,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def test_run_experiment_smoke_files_and_rows(tmp_path):
    config = _smoke_config(horizon=1, trials=1)
    result = run_experiment(config, out_dir=tmp_path)
    metrics_file = tmp_path / "metrics.csv"
    trace_file = tmp_path / "trace_trial0.csv"
    meta_file = tmp_path / "meta.yaml"
    assert metrics_file.exists() and trace_file.exists() and meta_file.exists()
    trace_rows = trace_file.read_text().strip().splitlines()
    assert len(trace_rows) == 1 + 2  # header + horizon+1 ticks
    assert "rmse_token" in result.metrics
    assert "rmse_central" in result.metrics


@pytest.mark.parametrize("spec_kind", ["static", "iid"])
def test_trace_trial0_replays_through_run_episode(tmp_path, spec_kind):
    # the trace is trial 0 of the batched run; the scalar episode is its oracle
    graph = (
        StaticGraph(ref5_adjacency())
        if spec_kind == "static"
        else IidFailureGraph(ref5_adjacency(), p_fail=0.4)
    )
    config = _smoke_config(graph=graph, horizon=150, trials=3)
    run_experiment(config, out_dir=tmp_path)
    rows = np.loadtxt(tmp_path / "trace_trial0.csv", delimiter=",", skiprows=1)
    trace = run_episode(
        config.model,
        config.graph,
        config.rule,
        config.schedule,
        horizon=config.horizon,
        start_node=config.start_node,
        seed=trial_seed(config.seed, 0),
    )
    assert np.array_equal(rows[:, 0], np.arange(config.horizon + 1))
    assert np.array_equal(rows[:, 1], trace.holder)
    assert np.array_equal(rows[:, 2], trace.visited_count)
    assert np.allclose(rows[:, 3], trace.token_sq_err, rtol=1e-9, atol=1e-13)
    assert np.allclose(rows[:, 4], trace.mean_last_seen_sq_err, rtol=1e-9, atol=1e-13)


def test_run_experiment_same_seed_byte_identical(tmp_path):
    hashes = []
    for subdir in ("a", "b"):
        out = tmp_path / subdir
        run_experiment(_smoke_config(), out_dir=out)
        digest = hashlib.sha256()
        for name in ("metrics.csv", "trace_trial0.csv", "meta.yaml"):
            digest.update((out / name).read_bytes())
        hashes.append(digest.hexdigest())
    assert hashes[0] == hashes[1]


def test_run_experiment_pairs_token_and_ci(tmp_path):
    from roamtoken import IidFailureGraph

    config = _smoke_config(
        graph=IidFailureGraph(ref5_adjacency(), p_fail=0.3),
        algorithms=("token", "ci"),
        ci=CiConfig(a=1.0, b=0.2, tau1=1.0, tau2=0.5),
        horizon=60,
        trials=4,
    )
    result = run_experiment(config, out_dir=tmp_path)
    assert set(result.metrics) >= {"rmse_token", "rmse_token_last_seen", "rmse_ci_network"}
    for series in result.metrics.values():
        assert np.isfinite(series.values).all()


def test_run_experiment_central_only_matches_paired_run():
    # the oracle-only engine and the token engine's oracle see the same draws
    paired = run_experiment(_smoke_config(horizon=300, trials=5))
    alone = run_experiment(_smoke_config(algorithms=("central",), horizon=300, trials=5))
    assert set(alone.metrics) == {"rmse_central", "optimality_ratio_central"}
    for name in alone.metrics:
        assert np.array_equal(alone.metrics[name].values, paired.metrics[name].values)
        assert np.array_equal(alone.metrics[name].half_widths, paired.metrics[name].half_widths)


def test_run_experiment_ci_requires_parameters():
    with pytest.raises(ValueError, match="ci runs need"):
        _smoke_config(algorithms=("ci",))


def test_run_experiment_nonfinite_fails_loudly(tmp_path):
    from roamtoken import IidFailureGraph

    config = _smoke_config(
        graph=IidFailureGraph(ref5_adjacency(), p_fail=0.3),
        algorithms=("ci",),
        ci=CiConfig(a=1.0, b=80.0, tau1=1.0, tau2=0.01),
        horizon=4000,
        trials=2,
    )
    with pytest.raises(NonFiniteMetric):
        run_experiment(config, out_dir=tmp_path)
    assert not (tmp_path / "metrics.csv").exists()


def test_metrics_csv_long_format(tmp_path):
    series = MetricSeries("rmse_token", np.array([1.0, 0.5]), np.array([0.0, 0.1]), 4)
    path = tmp_path / "metrics.csv"
    write_metrics_csv(path, {"rmse_token": series})
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,metric,value,ci_half_width,trials"
    assert lines[1].startswith("0,rmse_token,1")
    assert len(lines) == 3


def test_compare_csv_wide_format(tmp_path):
    a = MetricSeries("rmse_token", np.array([1.0, 0.4]), np.zeros(2), 2)
    b = MetricSeries("rmse_ci_network", np.array([1.0, 0.6]), np.zeros(2), 2)
    path = tmp_path / "compare.csv"
    write_compare_csv(path, {"rmse_token": a, "rmse_ci_network": b})
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("t,rmse_ci_network,rmse_token")
    assert len(lines) == 3
