"""Whole token episodes: local statistics, payload bookkeeping, estimates and traces."""

import numpy as np
import pytest

from roamtoken import (
    AgentModel,
    AlphaSchedule,
    DeterministicSequence,
    GlobalModel,
    OutDegreeReciprocal,
    StaticGraph,
    run_episode,
    sample_measurements,
)
from roamtoken._streams import episode_streams
from roamtoken.token import write_trace_csv

from conftest import make_ref5_model, ref5_adjacency


def test_alpha_schedule_forms():
    pow_ = AlphaSchedule(2.0, 0.75)
    assert pow_.alpha(0) == 2.0
    assert pow_.alpha(3) == pytest.approx(2.0 * 4**0.75)
    with pytest.raises(ValueError):
        AlphaSchedule(1.0, 0.5)
    with pytest.raises(ValueError):
        AlphaSchedule(-1.0, 0.9)


def test_default_schedule_is_t_plus_one_bit_for_bit():
    # the linear schedule was float(t + 1): c = q = 1 gives the same bits through the
    # shipped ref5 horizon, so no run's estimates change
    schedule = AlphaSchedule()
    assert all(schedule.alpha(t) == float(t + 1) for t in range(20_001))


def test_local_update_first_measurement():
    # at t = 0 the running mean is the first measurement itself: x = W y(0)
    agents = [AgentModel(0, [[2.0, 0.0]], [[4.0]]), AgentModel(1, [[0.0, 1.0]], [[1.0]])]
    model = GlobalModel(agents, [1.5, -0.5])
    spec = StaticGraph(~np.eye(2, dtype=bool))
    trace = run_episode(
        model, spec, OutDegreeReciprocal(), AlphaSchedule(), horizon=3, seed=4
    )
    y0 = sample_measurements(model, episode_streams(4).noise)
    for i, agent in enumerate(agents):
        assert np.allclose(trace.x_hist[0, i], agent.W @ y0[i], rtol=0, atol=1e-12)


def test_local_update_matches_from_scratch_average():
    # agent 1 takes two measurements a tick; x_hist[t, i] is W_i applied to the mean of
    # agent i's first t + 1 measurements, replayed from the episode's noise stream
    rng = np.random.default_rng(0)
    agents = [
        AgentModel(0, [[1.0, 0.5, 0.0]], [[2.0]]),
        AgentModel(1, rng.standard_normal((2, 3)), np.array([[2.0, 0.3], [0.3, 1.0]])),
        AgentModel(2, [[0.0, 0.3, 1.0]], [[0.5]]),
    ]
    model = GlobalModel(agents, [1.0, -0.5, 0.25])
    spec = StaticGraph(~np.eye(3, dtype=bool))
    horizon, seed = 60, 8
    trace = run_episode(
        model, spec, OutDegreeReciprocal(), AlphaSchedule(), horizon, seed=seed
    )
    noise = episode_streams(seed).noise
    ys = [sample_measurements(model, noise) for _ in range(horizon + 1)]
    for i, agent in enumerate(agents):
        y_i = np.array([y[i] for y in ys])
        means = np.cumsum(y_i, axis=0) / np.arange(1, horizon + 2)[:, None]
        assert np.abs(trace.x_hist[:, i] - means @ agent.W.T).max() < 1e-12


def test_local_stats_with_zero_noise_are_information_times_theta():
    model = make_ref5_model(noise="zero")
    spec = StaticGraph(ref5_adjacency())
    trace = run_episode(
        model, spec, OutDegreeReciprocal(), AlphaSchedule(), horizon=30, seed=2
    )
    b_theta = np.stack([a.B @ model.theta for a in model.agents])
    assert np.abs(trace.x_hist - b_theta).max() < 1e-12


def test_single_agent_episode_matches_closed_form():
    agent = AgentModel(0, [[1.0]], [[1.0]])
    model = GlobalModel([agent], [2.0])
    spec = StaticGraph(np.zeros((1, 1), dtype=bool))
    trace = run_episode(
        model,
        spec,
        OutDegreeReciprocal(),
        AlphaSchedule(),
        horizon=200,
        seed=5,
    )
    assert np.all(trace.holder == 0)
    # statistic is the exact running mean; estimate follows the scalar formula
    for t in (0, 3, 50, 200):
        mbar = trace.x_hist[t, 0, 0]
        expected = mbar / (1.0 / (t + 1) + 1.0)
        assert trace.estimates[t, 0] == pytest.approx(expected, rel=1e-12)


def test_zero_noise_error_shrinks_once_all_visited():
    model = make_ref5_model(noise="zero")
    spec = StaticGraph(ref5_adjacency())
    trace = run_episode(
        model, spec, OutDegreeReciprocal(), AlphaSchedule(), horizon=400, seed=1
    )
    full = np.flatnonzero(trace.visited_count == 5)
    assert full.size > 0
    errs = np.sqrt(trace.token_sq_err[full])
    assert np.all(np.diff(errs) <= 1e-15)
    # matches the all-visited closed form exactly
    t_full = int(full[0]) + 50
    ref = np.linalg.solve(
        np.eye(2) / (t_full + 1) + model.sigma_c, model.sigma_c @ model.theta
    )
    expected_sq = float(((ref - model.theta) ** 2).sum())
    assert trace.token_sq_err[t_full] == pytest.approx(expected_sq, rel=1e-9)


def test_visited_set_monotone_and_start_counted(ref5_model, ref5_static, reciprocal, linear_alpha):
    trace = run_episode(ref5_model, ref5_static, reciprocal, linear_alpha, horizon=100, seed=3)
    assert trace.visited_count[0] == 1
    assert np.all(np.diff(trace.visited_count) >= 0)


def test_holder_tau_is_current_tick(ref5_model, ref5_static, reciprocal, linear_alpha):
    trace = run_episode(ref5_model, ref5_static, reciprocal, linear_alpha, horizon=60, seed=9)
    for t in range(61):
        holder = trace.holder[t]
        assert trace.tau[t, holder] == t
        others = [i for i in range(5) if i != holder]
        assert np.all(trace.tau[t, others] < t)


def test_incremental_payload_matches_from_scratch_sums(ref5_model, reciprocal, linear_alpha):
    # random 200-step episode on 6 nodes, recomputed from logged snapshots
    rng = np.random.default_rng(17)
    h = rng.standard_normal((6, 1, 3))
    agents = [AgentModel(i, h[i], [[1.0]]) for i in range(6)]
    model = GlobalModel(agents, [1.0, -0.5, 0.25])
    backbone = rng.random((6, 6)) < 0.5
    np.fill_diagonal(backbone, False)
    from roamtoken import IidFailureGraph

    spec = IidFailureGraph(backbone, p_fail=0.3)
    trace = run_episode(
        model,
        spec,
        reciprocal,
        linear_alpha,
        horizon=200,
        seed=23,
    )
    b_stack = np.stack([a.B for a in agents])
    for t in range(201):
        seen = trace.tau[t] >= 0
        d_ref = trace.x_hist[trace.tau[t][seen], np.flatnonzero(seen)].sum(axis=0)
        k_ref = b_stack[seen].sum(axis=0)
        assert np.abs(trace.d_hist[t] - d_ref).max() < 1e-10
        assert np.abs(trace.K_hist[t] - k_ref).max() < 1e-10


def test_last_seen_metric_hand_check():
    # force the path 0 -> 1 -> 2 with single-edge frames and check the average
    frames = [
        np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]], dtype=bool),
        np.array([[0, 0, 0], [0, 0, 1], [0, 0, 0]], dtype=bool),
        np.array([[0, 0, 0], [0, 0, 0], [1, 0, 0]], dtype=bool),
    ]
    spec = DeterministicSequence(frames, cycle=True)
    h = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
    model = GlobalModel([AgentModel(i, [h[i]], [[1.0]]) for i in range(3)], [1.0, 2.0])
    trace = run_episode(
        model,
        spec,
        OutDegreeReciprocal(),
        AlphaSchedule(),
        horizon=2,
        seed=0,
    )
    assert list(trace.holder) == [0, 1, 2]
    theta = np.array([1.0, 2.0])
    e = [float(((trace.estimates[t] - theta) ** 2).sum()) for t in range(3)]
    assert trace.mean_last_seen_sq_err[0] == pytest.approx(e[0])
    assert trace.mean_last_seen_sq_err[1] == pytest.approx((e[0] + e[1]) / 2)
    assert trace.mean_last_seen_sq_err[2] == pytest.approx((e[0] + e[1] + e[2]) / 3)


def test_trace_export(tmp_path, ref5_model, ref5_static, reciprocal, linear_alpha):
    trace = run_episode(ref5_model, ref5_static, reciprocal, linear_alpha, horizon=5, seed=0)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,holder,visited_count,token_sq_err,mean_last_seen_sq_err"
    assert len(lines) == 7


def test_episode_requires_matching_sizes(ref5_model, reciprocal, linear_alpha):
    small = StaticGraph(np.zeros((3, 3), dtype=bool))
    with pytest.raises(ValueError, match="nodes"):
        run_episode(ref5_model, small, reciprocal, linear_alpha, horizon=2, seed=0)
