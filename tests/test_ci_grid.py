"""The stacked grid pass against a per-candidate oracle, with exact equality.

``_oracle_ci_trials`` and ``_oracle_grid_search`` run one candidate per call:
every candidate draws its own streams and runs the whole per-tick loop on a
(trials, n, L) state.  The stacked pass must reproduce their scores, winner
and curve bit for bit.
"""

import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from roamtoken import (
    AgentModel,
    CiConfig,
    GlobalModel,
    IidFailureGraph,
    grid_search,
    run_experiment,
)
from roamtoken.config import apply_overrides, build_experiment, load_config, validate_config
from roamtoken.engine import CHUNK_TICKS, _MeasurementMap, _TrialBlocks
from roamtoken.harness import rmse_network_ci

from conftest import random_spd
from references import SeriesRows, tick_stats

GEO20 = Path(__file__).resolve().parents[1] / "configs" / "geo20_compare.yaml"
PAPER_GRID = {"a": [0.5, 1.0, 2.0], "b": [0.1, 0.5, 1.0], "tau1": [1.0], "tau2": [0.25, 0.5]}


def _oracle_ci_trials(model, spec, cfg, horizon, trials, master_seed, chunk=CHUNK_TICKS):
    """One candidate per call: returns ((trials, horizon + 1) errors, diverged)."""
    n, dim, R = model.n_agents, model.dim, trials
    theta = model.theta
    measure = _MeasurementMap(model)
    all_scalar = all(a.n_measurements == 1 for a in model.agents)
    h_rows = np.stack([a.H[0] for a in model.agents]) if all_scalar else None
    w_rows = np.stack([a.W[:, 0] for a in model.agents]) if all_scalar else None
    slices = model.measurement_slices

    s = np.zeros((R, n, dim))
    size = horizon + 1
    netavg = np.zeros((R, size))
    netavg[:, 0] = float(theta @ theta)
    diverged = False
    blocks = _TrialBlocks(R, master_seed, model, spec)
    with np.errstate(over="ignore", invalid="ignore"):
        for t0 in range(0, size, chunk):
            length = min(chunk, size - t0)
            blocks.load(length)
            if diverged:
                continue
            for ti in range(length):
                t = t0 + ti
                y = measure(blocks.noise[:, ti])
                if t >= horizon:
                    break
                if all_scalar:
                    resid = y - np.einsum("rnl,nl->rn", s, h_rows)
                    innovation = resid[:, :, None] * w_rows[None, :, :]
                else:
                    innovation = np.empty((R, n, dim))
                    for i, sl in enumerate(slices):
                        resid_i = y[:, sl] - s[:, i, :] @ model.agents[i].H.T
                        innovation[:, i, :] = resid_i @ model.agents[i].W.T
                adj = spec.adjacency(t, blocks.graph_u[:, ti]).astype(float)
                deg = adj.sum(axis=-1)
                consensus = deg[..., None] * s - adj @ s
                s = s - cfg.beta(t) * consensus + cfg.alpha(t) * innovation
                err = s - theta
                netavg[:, t + 1] = (err * err).sum(axis=2).mean(axis=1)
            if not np.isfinite(s).all():
                diverged = True
    if diverged:
        bad_cols = np.flatnonzero(~np.isfinite(netavg).all(axis=0))
        first_bad = int(bad_cols[0]) if bad_cols.size else size
        netavg[:, first_bad:] = np.inf
    return netavg, diverged


def _oracle_grid_search(model, spec, grid, trials, horizon, seed):
    """Returns (scores in grid order, index of the winner, winner's curve)."""
    keys = ("a", "b", "tau1", "tau2")
    theta_sq = float(model.theta @ model.theta)
    best, best_curve, best_score = None, None, math.inf
    scores = []
    for k, (a, b, tau1, tau2) in enumerate(itertools.product(*(grid[key] for key in keys))):
        cfg = CiConfig(a=a, b=b, tau1=tau1, tau2=tau2)
        netavg, diverged = _oracle_ci_trials(model, spec, cfg, horizon, trials, seed)
        score = math.inf if diverged else float((netavg.mean(axis=0) / theta_sq)[-1])
        scores.append(score)
        if score < best_score:
            best, best_score = k, score
            best_curve = netavg.mean(axis=0) / theta_sq
    return scores, best, best_curve


def _assert_matches_oracle(model, spec, grid, trials, horizon, seed):
    result = grid_search(model, spec, grid, trials=trials, horizon=horizon, seed=seed)
    scores, best, curve = _oracle_grid_search(model, spec, grid, trials, horizon, seed)
    assert [score for _, score in result.scores] == scores
    assert result.best is result.scores[best][0]
    assert np.array_equal(rmse_network_ci(result.best_trials, model).values, curve)
    return result


def _vector_model() -> GlobalModel:
    rng = np.random.default_rng(5)
    agents = [
        AgentModel(i, rng.standard_normal((2, 2)), random_spd(rng, 2)) for i in range(4)
    ]
    return GlobalModel(agents, [0.8, -1.2])


def test_stacked_grid_matches_oracle_ref5(ref5_model, ref5_iid):
    # 300 ticks cross a chunk boundary; 12 trials exceed numpy's 8-wide pairwise block
    _assert_matches_oracle(ref5_model, ref5_iid, PAPER_GRID, trials=12, horizon=300, seed=4)


def test_stacked_grid_matches_oracle_vector_measurements():
    model = _vector_model()
    spec = IidFailureGraph(~np.eye(4, dtype=bool), p_fail=0.4)
    grid = {"a": [0.5, 1.0], "b": [0.1, 0.4], "tau1": [1.0], "tau2": [0.25, 0.5]}
    _assert_matches_oracle(model, spec, grid, trials=9, horizon=270, seed=8)


def test_stacked_grid_diverging_candidate_isolated(ref5_model, ref5_iid):
    grid = {"a": [1.0], "b": [0.3, 80.0], "tau1": [1.0], "tau2": [0.01, 0.5]}
    result = _assert_matches_oracle(ref5_model, ref5_iid, grid, trials=10, horizon=300, seed=6)
    scores = {(cfg.b, cfg.tau2): score for cfg, score in result.scores}
    assert scores[(80.0, 0.01)] == math.inf
    assert math.isfinite(scores[(0.3, 0.01)]) and math.isfinite(scores[(0.3, 0.5)])


def test_stacked_grid_tie_goes_to_first_candidate(ref5_model, ref5_iid):
    # b=0.4 is best on these draws; it appears at grid positions 1, 2, 4 and 5
    grid = {"a": [1.0, 1.0], "b": [0.2, 0.4, 0.4], "tau1": [1.0], "tau2": [0.5]}
    result = _assert_matches_oracle(ref5_model, ref5_iid, grid, trials=9, horizon=120, seed=2)
    values = [score for _, score in result.scores]
    assert [k for k, v in enumerate(values) if v == min(values)] == [1, 2, 4, 5]
    assert result.best is result.scores[1][0]


def test_single_point_grid_score_matches_oracle(ref5_model, ref5_iid):
    single = {"a": [1.0], "b": [0.2], "tau1": [1.0], "tau2": [0.5]}
    for seed in range(4):
        _assert_matches_oracle(ref5_model, ref5_iid, single, trials=16, horizon=40, seed=seed)


def test_engine_calls_and_fixed_gains_as_a_one_point_grid(monkeypatch, tmp_path):
    # the 18-point grid takes a stacked scoring pass and the winner's run; fixed gains are a
    # one-point grid, which runs once
    import roamtoken.engine

    calls = []
    original = roamtoken.engine.run_ci_trials

    def counting(*args, **kwargs):
        calls.append(list(args[2]))
        return original(*args, **kwargs)

    monkeypatch.setattr(roamtoken.engine, "run_ci_trials", counting)
    cfg = apply_overrides(load_config(GEO20), ["run.horizon=80", "run.trials=5"])
    fixed = {"a": 1.0, "b": 0.5, "tau1": 1.0, "tau2": 0.25}
    runs = {"grid": cfg["ci"], "one-point grid": {"grid": {k: [v] for k, v in fixed.items()}}}
    counts, results = {}, {}
    for name, ci in runs.items():
        calls.clear()
        variant = {**cfg, "ci": ci}
        validate_config(variant)
        results[name] = run_experiment(build_experiment(variant, GEO20.parent), tmp_path / name)
        counts[name] = [len(c) for c in calls]
        if name == "grid":
            assert calls[1][0] is results[name].grid.best
    assert counts == {"grid": [18, 1], "one-point grid": [1]}
    one_point = results["one-point grid"]
    assert one_point.grid.scores[0][1] == one_point.metrics["rmse_ci_network"].values[-1]

    # the grid winner's metric is its standalone run reduced over trials
    experiment, standalone = build_experiment(cfg, GEO20.parent), SeriesRows(80, "netavg")
    original(
        experiment.model, experiment.graph, [results["grid"].grid.best], horizon=80, trials=5,
        master_seed=experiment.seed, readers=standalone.readers,
    )
    expected = rmse_network_ci(tick_stats(standalone["netavg"]), experiment.model)
    got = results["grid"].metrics["rmse_ci_network"]
    assert np.array_equal(got.values, expected.values)
    assert np.array_equal(got.half_widths, expected.half_widths)


def test_stacked_pass_keeps_no_series(ref5_model, ref5_iid):
    from roamtoken.engine import run_ci_trials

    cfgs = [CiConfig(a=1.0, b=b, tau1=1.0, tau2=0.5) for b in (0.1, 0.2, 0.3)]
    stacked = run_ci_trials(ref5_model, ref5_iid, cfgs, horizon=50, trials=4, master_seed=1)
    assert stacked.final_sq_err.shape == (4, 3)
    assert not stacked.diverged.any()
    for k, cfg in enumerate(cfgs):
        single = SeriesRows(50, "netavg")
        run_ci_trials(
            ref5_model, ref5_iid, [cfg], horizon=50, trials=4, master_seed=1, readers=single.readers
        )
        assert np.array_equal(stacked.final_sq_err[:, k], single["netavg"][:, -1])
    with pytest.raises(ValueError, match="at least one"):
        run_ci_trials(ref5_model, ref5_iid, [], horizon=5, trials=2)
