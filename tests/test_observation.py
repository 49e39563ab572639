"""Measurement model, information matrix, and oracle estimator."""

import numpy as np
import pytest

from roamtoken import (
    AgentModel,
    GlobalModel,
    SingularModel,
    SolveFailed,
    fisher_information,
    sample_measurements,
)
from roamtoken._linalg import solve_spd
from roamtoken.observation import central_solver

from conftest import make_ref5_model, random_spd
from references import central_estimate


def _random_agent(rng, idx, m, dim):
    return AgentModel(idx, rng.standard_normal((m, dim)), random_spd(rng, m))


def test_cached_b_matches_from_scratch_recompute():
    rng = np.random.default_rng(1)
    for idx in range(20):
        agent = _random_agent(rng, idx, m=rng.integers(1, 4), dim=3)
        b_ref = agent.H.T @ np.linalg.inv(agent.C) @ agent.H
        rel = np.linalg.norm(agent.B - b_ref) / np.linalg.norm(b_ref)
        assert rel < 1e-12


def test_non_spd_covariance_rejected():
    with pytest.raises(ValueError, match="positive definite"):
        AgentModel(0, [[1.0, 0.0]], [[-1.0]])
    with pytest.raises(ValueError, match="symmetric"):
        AgentModel(0, [[1.0], [0.0]], [[1.0, 0.5], [0.0, 1.0]])


def test_fisher_single_scalar_agent():
    agent = AgentModel(0, [[1.0]], [[1.0]])
    assert np.allclose(fisher_information([agent]), [[1.0]])


def test_fisher_orthogonal_rows_give_identity():
    a0 = AgentModel(0, [[1.0, 0.0]], [[1.0]])
    a1 = AgentModel(1, [[0.0, 1.0]], [[1.0]])
    assert np.allclose(fisher_information([a0, a1]), np.eye(2))


def test_fisher_matches_per_entry_summation_oracle():
    rng = np.random.default_rng(7)
    agents = [_random_agent(rng, i, m=2, dim=2) for i in range(3)]
    total = fisher_information(agents)
    # independent path: accumulate entry by entry from explicit inverses
    ref = np.zeros((2, 2))
    for a in agents:
        cinv = np.linalg.inv(a.C)
        for r in range(2):
            for c in range(2):
                ref[r, c] += float(a.H[:, r] @ cinv @ a.H[:, c])
    assert np.linalg.norm(total - ref) / np.linalg.norm(ref) < 1e-12


def test_fisher_singular_raises():
    # both agents observe only the first coordinate
    a0 = AgentModel(0, [[1.0, 0.0]], [[1.0]])
    a1 = AgentModel(1, [[2.0, 0.0]], [[1.0]])
    with pytest.raises(SingularModel):
        fisher_information([a0, a1])


def test_global_model_requires_invertible_stacked_h():
    agents = [AgentModel(i, [[1.0, 0.0]], [[1.0]]) for i in range(3)]
    with pytest.raises(SingularModel):
        GlobalModel(agents, [1.0, 2.0])


def test_sigma_c_symmetric_positive(ref5_model):
    sigma = ref5_model.sigma_c
    assert np.allclose(sigma, sigma.T)
    assert np.linalg.eigvalsh(sigma)[0] > 0


def test_zero_noise_measurements_exact():
    model = make_ref5_model(noise="zero")
    rng = np.random.default_rng(0)
    ys = sample_measurements(model, rng)
    for agent, y in zip(model.agents, ys):
        assert np.array_equal(y, agent.H @ model.theta)


def test_zero_noise_pipeline_recovers_theta():
    model = make_ref5_model(noise="zero")
    rng = np.random.default_rng(0)
    means = [np.zeros(a.n_measurements) for a in model.agents]
    for t in range(5):
        ys = sample_measurements(model, rng)
        for i, y in enumerate(ys):
            means[i] += (y - means[i]) / (t + 1)
        est = central_estimate(model.agents, means)
        assert np.linalg.norm(est - model.theta) < 1e-10


def test_sample_mean_within_clt_band():
    agent = AgentModel(0, [[1.0]], [[1.0]])
    model = GlobalModel([agent], [2.0])
    rng = np.random.default_rng(11)
    draws = np.array([sample_measurements(model, rng)[0][0] for _ in range(100_000)])
    assert abs(draws.mean() - 2.0) < 3 * 4e-2


def test_sample_covariance_matches_declared():
    c = np.array([[2.0, 0.5], [0.5, 1.0]])
    agent = AgentModel(0, [[1.0, 0.0], [0.0, 1.0]], c)
    model = GlobalModel([agent], [0.3, -0.2])
    rng = np.random.default_rng(5)
    n = 100_000
    mean = agent.H @ model.theta
    draws = np.empty((n, 2))
    for t in range(n):
        draws[t] = sample_measurements(model, rng)[0] - mean
    emp = np.cov(draws.T)
    assert np.linalg.norm(emp - c) / np.linalg.norm(c) < 0.05


def test_custom_noise_sampler_keeps_declared_covariance():
    def rademacher(rng, shape):
        return rng.integers(0, 2, size=shape) * 2.0 - 1.0

    c = np.array([[1.5, 0.6], [0.6, 1.0]])
    agent = AgentModel(0, np.eye(2), c)
    model = GlobalModel([agent], [0.0, 0.0], noise=rademacher)
    rng = np.random.default_rng(9)
    draws = np.stack([sample_measurements(model, rng)[0] for _ in range(50_000)])
    emp = np.cov(draws.T)
    assert np.linalg.norm(emp - c) / np.linalg.norm(c) < 0.05


def test_central_estimate_identity_model_returns_mean():
    agent = AgentModel(0, np.eye(2), np.eye(2))
    ybar = np.array([0.4, -1.2])
    assert np.allclose(central_estimate([agent], [ybar]), ybar, atol=1e-12)


def test_central_estimate_linear_in_running_means(ref5_model):
    rng = np.random.default_rng(3)
    means = [rng.standard_normal(a.n_measurements) for a in ref5_model.agents]
    base = central_estimate(ref5_model.agents, means)
    for scale in (2.0, -0.5, 10.0):
        scaled = central_estimate(ref5_model.agents, [scale * m for m in means])
        assert np.linalg.norm(scaled - scale * base) <= 1e-12 * max(1.0, np.linalg.norm(scale * base))


def test_solve_spd_rejects_non_positive_definite():
    a = np.array([[1.0, 2.0], [2.0, 1.0]])  # symmetric, eigenvalues 3 and -1
    with pytest.raises(np.linalg.LinAlgError):
        solve_spd(a, np.ones(2), rtol=1e-8)


def test_solve_spd_residual_guard(monkeypatch):
    a = np.array([[4.0, 1.0], [1.0, 3.0]])
    b = np.array([1.0, 2.0])
    assert np.allclose(a @ solve_spd(a, b, rtol=1e-8), b, rtol=1e-12)
    exact = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda m, rhs: exact(m, rhs) * (1 + 1e-6))
    with pytest.raises(ArithmeticError, match="exceeds tolerance"):
        solve_spd(a, b, rtol=1e-8)


def test_central_solver_batched_shapes_and_residual_guard(ref5_model, monkeypatch):
    estimate = central_solver(ref5_model)
    w_full = np.hstack([a.W for a in ref5_model.agents])
    means = np.random.default_rng(4).standard_normal((3, 4, ref5_model.total_measurements))
    x = estimate(means).copy()  # the next call writes over the result
    assert x.shape == (3, 4, ref5_model.dim)
    assert np.allclose(x @ ref5_model.sigma_c, means @ w_full.T, rtol=0, atol=1e-12)
    assert np.allclose(estimate(means[1, 2]), x[1, 2], rtol=1e-13, atol=0)

    # a gain matrix with its last column off: every row that reads that column fails the
    # per-row guard, and rows that do not read it pass
    exact = np.linalg.solve

    def last_column_off(m, b):
        out = exact(m, b)
        out[:, -1] *= 1 + 1e-6
        return out

    monkeypatch.setattr(np.linalg, "solve", last_column_off)
    perturbed = central_solver(ref5_model)
    monkeypatch.undo()
    means[..., -1] = 0.0
    perturbed(means)
    means[2, 1, -1] = 1.0  # one row of twelve
    with pytest.raises(SolveFailed, match="oracle solve residual"):
        perturbed(means)
