"""Consensus+innovations iteration and grid search."""

import numpy as np
import pytest

from roamtoken import (
    AgentModel,
    CiConfig,
    GlobalModel,
    grid_search,
    rmse_network_ci,
    sample_measurements,
)

from conftest import make_ref5_model, ref5_adjacency
from references import ci_step


def _adj(n, edges):
    a = np.zeros((n, n), dtype=bool)
    for i, j in edges:
        a[i, j] = True
    return a


def test_config_validation():
    CiConfig(a=1.0, b=0.0, tau1=1.0, tau2=0.5)  # consensus-free degenerate is allowed
    with pytest.raises(ValueError):
        CiConfig(a=0.0, b=0.1, tau1=1.0, tau2=0.5)
    with pytest.raises(ValueError):
        CiConfig(a=1.0, b=0.1, tau1=0.5, tau2=0.5)
    with pytest.raises(ValueError):
        CiConfig(a=1.0, b=0.1, tau1=1.2, tau2=0.5)


def test_step_matches_from_scratch_recomputation(ref5_model):
    rng = np.random.default_rng(4)
    cfg = CiConfig(a=1.3, b=0.4, tau1=1.0, tau2=0.3)
    adjacency = ref5_adjacency()
    state = rng.standard_normal((5, 2))
    t = 7
    ys = sample_measurements(ref5_model, rng)
    new = ci_step(state, ref5_model, adjacency, ys, cfg, t)
    alpha = cfg.a / (t + 1) ** cfg.tau1
    beta = cfg.b / (t + 1) ** cfg.tau2
    for i, agent in enumerate(ref5_model.agents):
        consensus = np.zeros(2)
        for l in range(5):
            if adjacency[i, l]:
                consensus += state[i] - state[l]
        innovation = agent.W @ (ys[i] - agent.H @ state[i])
        expected = state[i] - beta * consensus + alpha * innovation
        assert np.abs(new[i] - expected).max() < 1e-12


def test_equal_states_make_consensus_term_vanish(ref5_model):
    rng = np.random.default_rng(2)
    shared = rng.standard_normal(2)
    state = np.tile(shared, (5, 1))
    ys = sample_measurements(ref5_model, np.random.default_rng(3))
    adjacency = ref5_adjacency()
    low_b = ci_step(state, ref5_model, adjacency, ys, CiConfig(1.0, 0.01, 1.0, 0.5), 0)
    high_b = ci_step(state, ref5_model, adjacency, ys, CiConfig(1.0, 5.0, 1.0, 0.5), 0)
    assert np.array_equal(low_b, high_b)


def test_truth_is_fixed_point_with_zero_noise():
    model = make_ref5_model(noise="zero")
    state = np.tile(model.theta, (5, 1))
    cfg = CiConfig(a=1.0, b=0.5, tau1=1.0, tau2=0.25)
    rng = np.random.default_rng(0)
    for t in range(10):
        ys = sample_measurements(model, rng)
        state = ci_step(state, model, ref5_adjacency(), ys, cfg, t)
    assert np.abs(state - model.theta).max() < 1e-12


def test_single_agent_stochastic_approximation_converges():
    agent = AgentModel(0, [[1.0]], [[1.0]])
    model = GlobalModel([agent], [2.0], noise="zero")
    cfg = CiConfig(a=1.0, b=0.0, tau1=1.0, tau2=0.5)
    adjacency = np.zeros((1, 1), dtype=bool)
    state = np.zeros((1, 1))
    rng = np.random.default_rng(0)
    for t in range(10_000):
        ys = sample_measurements(model, rng)
        state = ci_step(state, model, adjacency, ys, cfg, t)
    assert abs(state[0, 0] - 2.0) < 1e-3


def test_zero_gain_consensus_reaches_agreement():
    # innovations disabled by zero gain matrices: pure consensus mixing
    h = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0]]
    model = GlobalModel(
        [AgentModel(i, [h[i]], [[1.0]]) for i in range(4)], [0.5, -0.5], noise="zero"
    )
    ring = _adj(4, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 0), (2, 1), (3, 2), (0, 3)])
    gains = [np.zeros((2, 2)) for _ in range(4)]
    cfg = CiConfig(a=1.0, b=0.3, tau1=1.0, tau2=0.25)
    rng = np.random.default_rng(1)
    state = np.random.default_rng(2).standard_normal((4, 2))
    initial_spread = np.ptp(state, axis=0).max()
    for t in range(3000):
        ys = sample_measurements(model, rng)
        state = ci_step(state, model, ring, ys, cfg, t, gains)
    final_spread = np.ptp(state, axis=0).max()
    assert final_spread < 0.05 * initial_spread


def test_grid_search_single_point_and_domination(ref5_model, ref5_iid):
    single = {"a": [1.0], "b": [0.2], "tau1": [1.0], "tau2": [0.5]}
    result = grid_search(ref5_model, ref5_iid, single, trials=4, horizon=50, seed=0)
    assert (result.best.a, result.best.b) == (1.0, 0.2)
    assert len(result.scores) == 1

    two = {"a": [1.0], "b": [0.2], "tau1": [1.0], "tau2": [0.25, 0.5]}
    result2 = grid_search(ref5_model, ref5_iid, two, trials=6, horizon=300, seed=1)
    scores = {cfg.tau2: score for cfg, score in result2.scores}
    assert result2.best.tau2 == min(scores, key=scores.get)
    curve = rmse_network_ci(result2.best_trials, ref5_model).values
    assert np.isfinite(curve).all()
    assert len(curve) == 301


def test_grid_search_paper_style_grid_smoke(ref5_model, ref5_iid):
    grid = {"a": [0.5, 1.0, 2.0], "b": [0.1, 0.5, 1.0], "tau1": [1.0], "tau2": [0.25, 0.5]}
    result = grid_search(ref5_model, ref5_iid, grid, trials=3, horizon=200, seed=2)
    assert len(result.scores) == 18
    assert np.isfinite(rmse_network_ci(result.best_trials, ref5_model).values).all()
    assert np.isfinite(min(score for _, score in result.scores))


def test_grid_search_best_curve_trends_down(ref5_model, ref5_iid):
    grid = {"a": [1.0], "b": [0.1, 0.3], "tau1": [1.0], "tau2": [0.5]}
    result = grid_search(ref5_model, ref5_iid, grid, trials=8, horizon=600, seed=3)
    curve = rmse_network_ci(result.best_trials, ref5_model).values
    head = curve[1:60].mean()
    tail = curve[-60:].mean()
    assert np.isfinite(curve).all()
    assert tail < head


def test_grid_search_missing_axis_rejected(ref5_model, ref5_iid):
    with pytest.raises(ValueError, match="missing"):
        grid_search(ref5_model, ref5_iid, {"a": [1.0]}, trials=2, horizon=10, seed=0)
