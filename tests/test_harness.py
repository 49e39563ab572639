"""Metric aggregation, verification reports, and the experiment runner."""

import hashlib
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml

import roamtoken
import roamtoken._sharding as sharding
import roamtoken.engine as engine

from roamtoken import (
    AgentModel,
    AlphaSchedule,
    ExperimentConfig,
    GlobalModel,
    IidFailureGraph,
    Lazy,
    MetricSeries,
    NonFiniteMetric,
    OutDegreeReciprocal,
    StaticGraph,
    optimality_ratio,
    rmse_last_seen,
    rmse_network_ci,
    rmse_token,
    run_episode,
    run_experiment,
    verify_state_identity,
    verify_tail_bounds,
)
from roamtoken.chain import apply_rule
from roamtoken.config import apply_overrides, build_experiment, load_config
from roamtoken.engine import ChainTrials, TickStats, run_chain_trials, run_token_trials
from roamtoken.harness import write_compare_csv, write_metrics_csv
from roamtoken._streams import derived_stream, trial_seed
from roamtoken.token import EpisodeTrace, write_trace_csv

from conftest import make_ref5_model, ref5_adjacency
from references import (
    central_trials,
    csv_compare,
    csv_metrics,
    csv_trace,
    tick_stats,
    verify_sequential_connectivity,
)


def _model(theta):
    """A one-agent model of parameter ``theta``: the metrics read only its theta."""
    dim = len(theta)
    return GlobalModel([AgentModel(0, np.eye(dim), np.eye(dim))], theta)


def test_rmse_token_trivial_values():
    model = _model([3.0, 4.0])  # norm^2 = 25
    exact = tick_stats(np.zeros((3, 4)))
    assert np.array_equal(rmse_token(exact, model).values, np.zeros(4))
    initial = tick_stats(np.full((3, 4), 25.0))
    assert np.allclose(rmse_token(initial, model).values, np.ones(4))
    assert np.allclose(rmse_token(initial, model).half_widths, 0.0)


def test_rmse_token_hand_fixture():
    model = _model([1.0, 0.0])  # norm^2 = 1
    sq = np.array([[1.0, 0.5], [1.0, 0.1]])
    series = rmse_token(tick_stats(sq), model)
    assert np.allclose(series.values, [1.0, 0.3])
    expected_hw = 1.96 * np.std(sq, axis=0, ddof=1) / np.sqrt(2)
    assert np.allclose(series.half_widths, expected_hw)
    assert series.trials == 2


def test_rmse_last_seen_trivial():
    model = _model([1.0])
    assert np.array_equal(rmse_last_seen(tick_stats(np.zeros((2, 3))), model).values, np.zeros(3))
    single = tick_stats(np.full((2, 3), 1.0))
    assert np.allclose(rmse_last_seen(single, model).values, np.ones(3))


def test_rmse_ci_hand_fixture():
    model = _model([2.0])  # norm^2 = 4
    series = rmse_network_ci(tick_stats(np.array([[4.0, 2.0], [4.0, 0.0]])), model)
    assert np.allclose(series.values, [1.0, 0.25])


def test_optimality_ratio_of_central_is_near_one():
    model = make_ref5_model()
    stats = TickStats(400, 401)
    central_trials(model, horizon=400, trials=400, master_seed=8, readers={"central": stats})
    series = optimality_ratio(stats, model)
    t = np.arange(401)
    with np.errstate(invalid="ignore"):
        expected = t / (t + 1.0)
    for probe in (50, 200, 400):
        assert abs(series.values[probe] - expected[probe]) < 4 * series.half_widths[probe] + 0.02


def test_optimality_ratio_zero_noise_vanishes():
    model = make_ref5_model(noise="zero")
    spec = StaticGraph(ref5_adjacency())
    stats = TickStats(4, 2001)
    run_token_trials(
        model, spec, OutDegreeReciprocal(), AlphaSchedule(), 2000, 4, master_seed=0,
        readers={"sq_err": stats},
    )
    series = optimality_ratio(stats, model)
    assert series.values[-1] < 0.01


def test_optimality_ratio_needs_two_trials():
    with pytest.raises(ValueError):
        optimality_ratio(tick_stats(np.zeros((1, 3))), make_ref5_model())


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


def test_verify_tail_bounds_names_each_violation(monkeypatch):
    # tails that never decay, except at the start node: with no binomial slack at a
    # fraction of 1, each other node breaks its envelope where the envelope first drops
    # below 1, and the cover gap where its own envelope does
    def stuck(spec, rule, start_node, horizon, trials, master_seed):
        nonvisit = np.ones((horizon + 1, spec.n))
        nonvisit[:, start_node] = 0.0
        return ChainTrials(trials, horizon, nonvisit, np.ones(horizon + 1))

    monkeypatch.setattr(roamtoken.harness, "run_chain_trials", stuck)
    spec = StaticGraph(ref5_adjacency())
    report = verify_tail_bounds(spec, OutDegreeReciprocal(), trials=100, horizon=60)
    assert report.summary() == (
        "FAIL tail bounds: delta=0.5 eps=0.125 c2=0.0445105 trials=100 horizon=60"
    )
    assert report.violations == [
        *(f"node {i}: empirical nonvisit 1 above envelope 0.9565 at t=4" for i in range(1, 5)),
        "cover gap: empirical 1 above envelope 0.9632 at t=40",
    ]


@pytest.mark.xfail(strict=True, reason="the tail gate has no slack where the fraction is 1")
def test_verify_tail_bounds_passes_a_slow_correct_walker():
    # known defect: under Lazy(0.999) no trial has held node 3 or 4 by t=4, so their
    # fractions are 1 and the plug-in error sqrt(p(1 - p) / R) is 0.  The envelope there,
    # 1 - 4e-11, bounds the exact probability of not yet holding node 3 (0.9999985 at t=4),
    # yet the gate FAILs both nodes.  An exact-law gate is the mend
    spec = StaticGraph(ref5_adjacency())
    report = verify_tail_bounds(spec, Lazy(0.999), trials=2000, horizon=10)
    assert report.passed, report.violations


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


def test_rule_support_check_flags_broken_rules(ref5_iid, reciprocal, monkeypatch):
    # apply_rule guards the support of every matrix it builds
    rng = derived_stream(0, 5)
    for k in range(50):
        apply_rule(reciprocal, ref5_iid.adjacency(k, rng.random(ref5_iid.draws)))

    def broken(rule, rows, pos):
        return np.full(rows.shape, 1.0 / rows.shape[1])  # ignores the support entirely

    monkeypatch.setattr(roamtoken.chain, "transition_rows", broken)
    with pytest.raises(RuntimeError, match="missing edge"):
        apply_rule(reciprocal, ref5_iid.adjacency(0, rng.random(ref5_iid.draws)))


def _smoke_config(**kw):
    defaults = dict(
        model=make_ref5_model(),
        graph=StaticGraph(ref5_adjacency()),
        rule=OutDegreeReciprocal(),
        schedule=AlphaSchedule(),
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


@pytest.mark.parametrize("start", [-1, 5])
def test_start_node_outside_the_graph_rejected(start):
    # -1 wrapped to node 4: run_episode and the token engine wrote holder -1 into trial 0's
    # trace, the chain engine reported node 4 unvisited at t=0, and a start node of 5 failed
    # inside the engine with a bare IndexError
    model, spec, rule = make_ref5_model(), StaticGraph(ref5_adjacency()), OutDegreeReciprocal()
    named = rf"start node {start} is not in \[0, 5\)"
    with pytest.raises(ValueError, match=named):
        run_episode(model, spec, rule, AlphaSchedule(), horizon=3, start_node=start)
    with pytest.raises(ValueError, match=named):
        run_token_trials(model, spec, rule, AlphaSchedule(), 3, 2, start_node=start)
    with pytest.raises(ValueError, match=named):
        run_chain_trials(spec, rule, start, horizon=3, trials=2)
    with pytest.raises(ValueError, match=named):
        _smoke_config(start_node=start)


def test_meta_reports_the_package_version(tmp_path):
    # read from the package itself, so a source checkout reports it too
    run_experiment(_smoke_config(horizon=1, trials=1), out_dir=tmp_path)
    meta = yaml.safe_load((tmp_path / "meta.yaml").read_text())
    assert meta["version"] == roamtoken.__version__ == "0.1.0"


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


def _token_and_ci_config() -> ExperimentConfig:
    from roamtoken import IidFailureGraph

    return _smoke_config(
        graph=IidFailureGraph(ref5_adjacency(), p_fail=0.3),
        algorithms=("token", "ci"),
        ci_grid={"a": [1.0], "b": [0.2], "tau1": [1.0], "tau2": [0.5]},
        horizon=60,
        trials=4,
    )


def test_run_experiment_pairs_token_and_ci(tmp_path):
    result = run_experiment(_token_and_ci_config(), out_dir=tmp_path)
    assert set(result.metrics) >= {"rmse_token", "rmse_token_last_seen", "rmse_ci_network"}
    for series in result.metrics.values():
        assert np.isfinite(series.values).all()
    names = ["metrics.csv", "grid_scores.csv", "trace_trial0.csv", "meta.yaml"]
    assert [path.name for path in result.files] == names


def test_failed_write_removes_every_file_the_run_wrote(tmp_path, monkeypatch):
    # metrics.csv and grid_scores.csv are written before the trace
    def full(*args):
        raise OSError("no space left")

    monkeypatch.setattr(roamtoken.harness, "write_trace_csv", full)
    with pytest.raises(OSError, match="no space left"):
        run_experiment(_token_and_ci_config(), out_dir=tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_run_experiment_central_only_matches_paired_run():
    # an oracle-only run reads the same token engine's oracle series as a paired run
    paired = run_experiment(_smoke_config(horizon=300, trials=5))
    alone = run_experiment(_smoke_config(algorithms=("central",), horizon=300, trials=5))
    assert set(alone.metrics) == {"rmse_central", "optimality_ratio_central"}
    for name in alone.metrics:
        assert np.array_equal(alone.metrics[name].values, paired.metrics[name].values)
        assert np.array_equal(alone.metrics[name].half_widths, paired.metrics[name].half_widths)


def test_central_only_run_is_one_token_engine_run(tmp_path, monkeypatch):
    # `[central]` runs the token engine once, reads only the oracle's series and writes no
    # trace
    calls, run = [], roamtoken.harness.run_token_trials

    def counted(*args, **kwargs):
        calls.append(sorted(kwargs["readers"]))
        return run(*args, **kwargs)

    monkeypatch.setattr(roamtoken.harness, "run_token_trials", counted)
    config = _smoke_config(algorithms=("central",), horizon=100, trials=4)
    result = run_experiment(config, out_dir=tmp_path)
    assert calls == [["central"]]
    assert [path.name for path in result.files] == ["metrics.csv", "meta.yaml"]
    assert sorted(path.name for path in tmp_path.iterdir()) == ["meta.yaml", "metrics.csv"]


def test_bad_grid_candidate_fails_before_any_engine_runs(monkeypatch):
    # a library config with an out-of-range candidate used to run the whole token engine
    # before grid_search built that candidate's CiConfig
    def refuse(*args, **kwargs):
        raise AssertionError("the token engine ran")

    monkeypatch.setattr(roamtoken.harness, "run_token_trials", refuse)
    grid = {"a": [1.0], "b": [0.2], "tau1": [1.0, 0.3], "tau2": [0.5]}
    with pytest.raises(ValueError, match=r"^\(tau1, tau2\) = \(0.3, 0.5\) outside "):
        run_experiment(_smoke_config(algorithms=("token", "ci"), ci_grid=grid))


def test_run_experiment_ci_requires_parameters():
    with pytest.raises(ValueError, match="ci runs need"):
        _smoke_config(algorithms=("ci",))


def test_run_experiment_nonfinite_fails_loudly(tmp_path):
    from roamtoken import IidFailureGraph

    config = _smoke_config(
        graph=IidFailureGraph(ref5_adjacency(), p_fail=0.3),
        algorithms=("ci",),
        ci_grid={"a": [1.0], "b": [80.0], "tau1": [1.0], "tau2": [0.01]},
        horizon=4000,
        trials=2,
    )
    with pytest.raises(NonFiniteMetric):
        run_experiment(config, out_dir=tmp_path)
    assert not (tmp_path / "metrics.csv").exists()


def test_peak_memory_is_flat_in_the_horizon(monkeypatch):
    # every recorded series is reduced a chunk at a time, so doubling the horizon adds
    # only per-tick means and half-widths; whole (trials, T + 1) rows grew the peak by a
    # quarter here
    monkeypatch.setattr(sharding, "_usable_cpus", lambda: 1)
    configs = Path(__file__).resolve().parents[1] / "configs"

    def peak(horizon: int) -> int:
        cfg = load_config(configs / "ref5_static.yaml")
        cfg = apply_overrides(cfg, [f"run.horizon={horizon}", "run.trials=200"])
        experiment = build_experiment(cfg, configs)
        tracemalloc.start()
        try:
            run_experiment(experiment)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(1000) <= 1.1 * peak(500)


def test_reducers_hold_one_mean_and_std_per_series():
    # sq_err, last_seen and central are each reduced once, into one mean and one std over
    # the horizon; the optimality ratios scale those, and the readers share one scratch
    horizon, trials = 20_000, 500
    config = _smoke_config(horizon=horizon, trials=trials)
    tracemalloc.start()
    try:
        reducers = roamtoken.harness._reducers(config)
        domain = tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)
        arrays = tracemalloc.take_snapshot().filter_traces([domain]).traces
    finally:
        tracemalloc.stop()
    assert list(reducers) == ["sq_err", "last_seen", "central"]
    sizes = sorted(trace.size for trace in arrays)
    assert sizes == [(horizon + 1) * 8] * 3 * 2 + [trials * engine.CHUNK_TICKS * 8]
    # a run of the token alone reduces only the two series the token's metrics read
    token_only = _smoke_config(algorithms=("token",))
    assert list(roamtoken.harness._reducers(token_only)) == ["sq_err", "last_seen"]


def test_metrics_csv_long_format(tmp_path):
    series = MetricSeries("rmse_token", np.array([1.0, 0.5]), np.array([0.0, 0.1]), 4)
    path = tmp_path / "metrics.csv"
    write_metrics_csv(path, {"rmse_token": series})
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,metric,value,ci_half_width,trials"
    assert lines[1].startswith("0,rmse_token,1")
    assert len(lines) == 3


def test_csv_writers_match_csv_writer_bytes(tmp_path):
    # the joined-line writers against csv.writer, row by row, across the edges of the
    # chunks they format: a 1-trial series, -0.0, values that need all 17 digits, and the
    # non-finite spellings
    digits = [0.1 + 0.2, 1 / 3, -2 / 3, 5e-324, 1.7976931348623157e308, 123456789.12345678]
    values = np.array([1.0, -0.0, 0.0, *digits, np.inf, -np.inf, np.nan])
    values = np.resize(values, 2 * engine.CHUNK_TICKS + 3)
    half = np.abs(values[::-1]) * 1e-3
    metrics = {
        "rmse_token": MetricSeries("rmse_token", values, np.zeros_like(values), 1),
        "rmse_ci_network": MetricSeries("rmse_ci_network", values[::-1], half, 250),
        "optimality_ratio_token": MetricSeries("optimality_ratio_token", -values, half[::-1], 2),
    }
    horizon = len(values) - 1
    trace = EpisodeTrace(
        horizon=horizon,
        holder=np.arange(horizon + 1) % 5,
        visited_count=np.minimum(np.arange(1, horizon + 2), 5),
        token_sq_err=values,
        mean_last_seen_sq_err=values[::-1].copy(),
    )
    single = {"rmse_token": metrics["rmse_token"]}
    cases = [
        (write_metrics_csv, csv_metrics, (metrics,)),
        (write_metrics_csv, csv_metrics, (single,)),
        (write_compare_csv, csv_compare, (metrics,)),
        (write_compare_csv, csv_compare, (single,)),
    ]
    for k, (write, reference, args) in enumerate(cases):
        write(tmp_path / f"{k}.csv", *args)
        reference(tmp_path / f"{k}-ref.csv", *args)
        assert (tmp_path / f"{k}.csv").read_bytes() == (tmp_path / f"{k}-ref.csv").read_bytes()
    write_trace_csv(trace, tmp_path / "trace.csv")
    csv_trace(trace, tmp_path / "trace-ref.csv")
    assert (tmp_path / "trace.csv").read_bytes() == (tmp_path / "trace-ref.csv").read_bytes()
    assert b"-0," in (tmp_path / "0.csv").read_bytes()  # the sign of -0.0 is kept


def test_csv_writers_hold_no_horizon_long_list(tmp_path):
    # each writer formats its series a chunk at a time, so its traced peak stays below the
    # bytes of one of its 20,001-tick float64 series; whole-series lists of Python floats
    # took 1.3-2.6 MB (numpy 2.4)
    size = 20_001
    rng = np.random.default_rng(3)
    metrics = {
        n: MetricSeries(n, rng.random(size), rng.random(size), 500)
        for n in ("rmse_token", "rmse_central")
    }
    trace = EpisodeTrace(
        horizon=size - 1, holder=np.arange(size) % 5,
        visited_count=np.minimum(np.arange(1, size + 1), 5),
        token_sq_err=rng.random(size), mean_last_seen_sq_err=rng.random(size),
    )
    for write in (
        lambda: write_metrics_csv(tmp_path / "metrics.csv", metrics),
        lambda: write_compare_csv(tmp_path / "compare.csv", metrics),
        lambda: write_trace_csv(trace, tmp_path / "trace.csv"),
    ):
        tracemalloc.start()
        try:
            write()
            assert tracemalloc.get_traced_memory()[1] < size * 8
        finally:
            tracemalloc.stop()


def test_compare_csv_wide_format(tmp_path):
    a = MetricSeries("rmse_token", np.array([1.0, 0.4]), np.zeros(2), 2)
    b = MetricSeries("rmse_ci_network", np.array([1.0, 0.6]), np.zeros(2), 2)
    path = tmp_path / "compare.csv"
    write_compare_csv(path, {"rmse_token": a, "rmse_ci_network": b})
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("t,rmse_ci_network,rmse_token")
    assert len(lines) == 3
