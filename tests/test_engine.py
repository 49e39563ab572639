"""Batched engine vs the scalar per-tick path, determinism, and pairing."""

import numpy as np
import pytest
from numpy.random import PCG64, Generator, SeedSequence

from roamtoken import (
    AgentModel,
    AlphaSchedule,
    CiConfig,
    GlobalModel,
    IidFailureGraph,
    Lazy,
    NonFiniteMetric,
    OutDegreeReciprocal,
    SolveFailed,
    StaticGraph,
    run_episode,
    sample_measurements,
)
from roamtoken._streams import episode_streams, trial_seed
from roamtoken.engine import (
    CHUNK_TICKS,
    run_central_trials,
    run_chain_trials,
    run_ci_trials,
    run_token_trials,
)

from conftest import make_ref5_model, ref5_adjacency
from references import central_estimate, ci_step


def test_block_draws_equal_per_call_draws():
    # the engine's replay guarantee rests on this generator property
    a = Generator(PCG64(SeedSequence(42))).standard_normal((9, 4))
    g = Generator(PCG64(SeedSequence(42)))
    b = np.stack([g.standard_normal(4) for _ in range(9)])
    assert np.array_equal(a, b)
    a = Generator(PCG64(SeedSequence(43))).random((9, 4))
    g = Generator(PCG64(SeedSequence(43)))
    b = np.stack([g.random(4) for _ in range(9)])
    assert np.array_equal(a, b)
    a = Generator(PCG64(SeedSequence(44))).random(9)
    g = Generator(PCG64(SeedSequence(44)))
    b = np.array([g.random() for _ in range(9)])
    assert np.array_equal(a, b)


@pytest.mark.parametrize("spec_kind", ["static", "iid"])
def test_batched_trials_match_single_episodes(spec_kind):
    model = make_ref5_model()
    if spec_kind == "static":
        spec = StaticGraph(ref5_adjacency())
    else:
        spec = IidFailureGraph(ref5_adjacency(), p_fail=0.4)
    rule = OutDegreeReciprocal()
    sched = AlphaSchedule.linear()
    # 300 ticks cross several chunk edges, where the walker carries each holder over
    horizon, trials, seed = 300, 4, 99
    assert horizon > CHUNK_TICKS
    batch = run_token_trials(model, spec, rule, sched, horizon, trials, master_seed=seed)
    for r in range(trials):
        trace = run_episode(
            model, spec, rule, sched, horizon, seed=trial_seed(seed, r)
        )
        assert np.array_equal(batch.visited_count[r], trace.visited_count.astype(np.int16))
        assert np.allclose(batch.sq_err[r], trace.token_sq_err, rtol=1e-9, atol=1e-13)
        assert np.allclose(
            batch.last_seen_mean_sq[r], trace.mean_last_seen_sq_err, rtol=1e-9, atol=1e-13
        )


def _slow_ring():
    """An 8-agent directed ring under Lazy(0.97): first visits trickle in over several chunks."""
    rng = np.random.default_rng(8)
    agents = [AgentModel(i, rng.standard_normal((1, 3)), [[0.5 + rng.random()]]) for i in range(8)]
    ring = np.zeros((8, 8), dtype=bool)
    ring[np.arange(8), (np.arange(8) + 1) % 8] = True
    return GlobalModel(agents, [0.4, -1.2, 0.9]), StaticGraph(ring), Lazy(0.97)


def test_batched_trials_match_single_episodes_when_cover_spans_chunks():
    # K gains versions, and each is eigendecomposed, in chunks after the first; the
    # last-seen means and errors are carried over every chunk edge
    model, spec, rule = _slow_ring()
    sched = AlphaSchedule.linear()
    horizon, trials, seed = 400, 4, 0
    assert horizon > 3 * CHUNK_TICKS
    batch = run_token_trials(model, spec, rule, sched, horizon, trials, master_seed=seed)
    for r in range(trials):
        trace = run_episode(model, spec, rule, sched, horizon, seed=trial_seed(seed, r))
        first_visits = np.flatnonzero(np.diff(trace.visited_count, prepend=0))
        assert len(set(first_visits // CHUNK_TICKS)) >= 3
        assert trace.visited_count[-1] == 8
        if r == 0:
            assert np.array_equal(batch.holder_trial0, trace.holder)
        assert np.array_equal(batch.visited_count[r], trace.visited_count.astype(np.int16))
        assert np.allclose(batch.sq_err[r], trace.token_sq_err, rtol=1e-9, atol=1e-13)
        assert np.allclose(
            batch.last_seen_mean_sq[r], trace.mean_last_seen_sq_err, rtol=1e-9, atol=1e-13
        )


def test_estimate_guard_names_first_failing_tick(monkeypatch):
    model, spec, rule = _slow_ring()
    args = (model, spec, rule, AlphaSchedule.linear())
    with monkeypatch.context() as m:
        m.setattr("roamtoken.engine.ESTIMATE_RTOL", -1.0)
        with pytest.raises(SolveFailed, match=r"estimate solve residual .* at t=0$"):
            run_token_trials(*args, horizon=100, trials=2, master_seed=0)

    # a wrong eigendecomposition of every full-rank K: the guard, evaluated on K itself,
    # fails at the first tick whose K has rank 3, here in the second chunk
    eigh = np.linalg.eigh

    def skewed_eigh(k):
        lam, vec = eigh(k)
        full = lam.min(axis=-1) > 1e-9 * lam.max(axis=-1)
        lam[full] *= 1 + 1e-6
        return lam, vec

    trace = run_episode(*args, horizon=400, seed=trial_seed(0, 0))
    first_full = int(np.flatnonzero(trace.visited_count >= 3)[0])
    assert first_full >= CHUNK_TICKS
    monkeypatch.setattr(np.linalg, "eigh", skewed_eigh)
    with pytest.raises(SolveFailed, match=rf"estimate solve residual .* at t={first_full}$"):
        run_token_trials(*args, horizon=400, trials=1, master_seed=0)


def test_engine_heterogeneous_measurement_sizes():
    rng = np.random.default_rng(0)
    agents = [
        AgentModel(0, rng.standard_normal((2, 2)), np.array([[1.5, 0.2], [0.2, 0.8]])),
        AgentModel(1, rng.standard_normal((1, 2)), [[1.0]]),
        AgentModel(2, rng.standard_normal((3, 2)), np.diag([0.5, 1.0, 2.0])),
    ]
    model = GlobalModel(agents, [0.7, -1.1])
    backbone = ~np.eye(3, dtype=bool)
    spec = IidFailureGraph(backbone, p_fail=0.3)
    rule = OutDegreeReciprocal()
    sched = AlphaSchedule.linear()
    batch = run_token_trials(model, spec, rule, sched, horizon=120, trials=3, master_seed=5)
    for r in range(3):
        trace = run_episode(model, spec, rule, sched, 120, seed=trial_seed(5, r))
        assert np.array_equal(batch.visited_count[r], trace.visited_count.astype(np.int16))
        assert np.allclose(batch.sq_err[r], trace.token_sq_err, rtol=1e-8, atol=1e-12)


def test_engine_deterministic_given_seed(ref5_model, ref5_iid, reciprocal, linear_alpha):
    a = run_token_trials(ref5_model, ref5_iid, reciprocal, linear_alpha, 100, 8, master_seed=3)
    b = run_token_trials(ref5_model, ref5_iid, reciprocal, linear_alpha, 100, 8, master_seed=3)
    assert np.array_equal(a.sq_err, b.sq_err)
    assert np.array_equal(a.last_seen_mean_sq, b.last_seen_mean_sq)
    c = run_token_trials(ref5_model, ref5_iid, reciprocal, linear_alpha, 100, 8, master_seed=4)
    assert not np.array_equal(a.sq_err, c.sq_err)


def test_ci_batch_matches_step_loop(ref5_model, ref5_iid):
    cfg = CiConfig(a=1.0, b=0.3, tau1=1.0, tau2=0.5)
    horizon, seed = 150, 11
    batch = run_ci_trials(ref5_model, ref5_iid, cfg, horizon, trials=3, master_seed=seed)
    for r in range(3):
        streams = episode_streams(trial_seed(seed, r))
        state = np.zeros((5, 2))
        values = [float(((state - ref5_model.theta) ** 2).sum(axis=1).mean())]
        for t in range(horizon + 1):
            ys = sample_measurements(ref5_model, streams.noise)
            a_t = ref5_iid.adjacency(t, streams.graph.random(ref5_iid.draws))
            if t < horizon:
                state = ci_step(state, ref5_model, a_t, ys, cfg, t)
                values.append(float(((state - ref5_model.theta) ** 2).sum(axis=1).mean()))
        assert np.allclose(batch.netavg_sq_err[r], values, rtol=1e-9, atol=1e-12)


def test_token_and_ci_share_noise_and_graph_draws(ref5_model, ref5_iid):
    # pairing: blocks without a graph (central) or without a model (chain) draw
    # the same per-trial streams as the full blocks of the token and CI engines
    from roamtoken.engine import _TrialBlocks

    seed, trials = 21, 3
    full = _TrialBlocks(trials, seed, ref5_model, ref5_iid)
    central = _TrialBlocks(trials, seed, ref5_model, None)
    chain = _TrialBlocks(trials, seed, None, ref5_iid)
    seen = []
    for (t0, length), *others in zip(full.chunks(300), central.chunks(300), chain.chunks(300)):
        assert all(other == (t0, length) for other in others)
        seen.append((t0, length))
        assert np.array_equal(full.noise, central.noise)
        assert np.array_equal(full.graph_u, chain.graph_u)
        assert np.array_equal(full.move_u, central.move_u)
        assert np.array_equal(full.move_u, chain.move_u)
        assert central.graph_u.shape == (trials, length, 0)
        assert chain.noise is None
    assert [t0 for t0, _ in seen] == list(range(0, 300, CHUNK_TICKS))
    assert [length for _, length in seen] == [CHUNK_TICKS] * (len(seen) - 1) + [300 - seen[-1][0]]
    assert len(seen) >= 2


def test_chain_and_token_engines_walk_the_same_paths(
    ref5_model, ref5_iid, reciprocal, linear_alpha
):
    # both engines step the holder through the same walker on the same graph and move streams
    horizon, trials, seed = 300, 6, 13
    token = run_token_trials(
        ref5_model, ref5_iid, reciprocal, linear_alpha, horizon, trials, start_node=1,
        master_seed=seed,
    )
    chain = run_chain_trials(ref5_iid, reciprocal, 1, horizon, trials, master_seed=seed)
    assert np.array_equal(chain.gap_frac, 1 - (token.visited_count == 5).mean(axis=0))


def test_engines_reject_graph_model_size_mismatch(ref5_model, reciprocal, linear_alpha):
    spec = StaticGraph(~np.eye(3, dtype=bool))
    with pytest.raises(ValueError, match="graph has 3 nodes but model has 5 agents"):
        run_token_trials(ref5_model, spec, reciprocal, linear_alpha, horizon=5, trials=2)
    cfg = CiConfig(a=1.0, b=0.3, tau1=1.0, tau2=0.5)
    with pytest.raises(ValueError, match="graph has 3 nodes but model has 5 agents"):
        run_ci_trials(ref5_model, spec, cfg, horizon=5, trials=2)


def test_custom_noise_blocks_fill_rows_in_trial_streams():
    from roamtoken.engine import _TrialBlocks

    def rademacher(rng, shape):
        return rng.integers(0, 2, size=shape) * 2.0 - 1.0

    model = GlobalModel(make_ref5_model().agents, [1.0, -0.7], noise=rademacher)
    spec = IidFailureGraph(ref5_adjacency(), p_fail=0.4)
    blocks = _TrialBlocks(3, 5, model, spec)
    blocks.load(30)
    for r in range(3):
        noise = episode_streams(trial_seed(5, r)).noise
        assert np.array_equal(blocks.noise[r], rademacher(noise, (30, 5)))

    # a sampler that ignores the requested shape must not be broadcast over the block
    flat = GlobalModel(model.agents, [1.0, -0.7], noise=lambda rng, shape: rademacher(rng, 5))
    with pytest.raises(ValueError, match="noise sampler gave shape"):
        _TrialBlocks(2, 5, flat, spec).load(30)


def test_misshaped_noise_sampler_rejected_by_both_paths():
    # one extra sample per draw: the scalar path used to drop it silently, so
    # trial r of a batched run could not be replayed through run_episode
    def one_extra(rng, shape):
        return rng.standard_normal(shape[-1] + 1)

    model = GlobalModel(make_ref5_model().agents, [1.0, -0.7], noise=one_extra)
    spec = StaticGraph(ref5_adjacency())
    args = (model, spec, OutDegreeReciprocal(), AlphaSchedule.linear())
    with pytest.raises(ValueError, match=r"noise sampler gave shape \(6,\), not \(5,\)"):
        run_episode(*args, horizon=20, seed=trial_seed(3, 0))
    with pytest.raises(ValueError, match=r"noise sampler gave shape \(6,\), not \(21, 5\)"):
        run_token_trials(*args, horizon=20, trials=2, master_seed=3)


def test_ci_divergence_detection(ref5_model, ref5_iid):
    # a consensus weight far beyond stability makes the linear part explode
    cfg = CiConfig(a=1.0, b=80.0, tau1=1.0, tau2=0.01)
    with pytest.raises(NonFiniteMetric):
        run_ci_trials(ref5_model, ref5_iid, cfg, horizon=4000, trials=2, master_seed=0)
    soft = run_ci_trials(ref5_model, ref5_iid, [cfg], horizon=4000, trials=2, master_seed=0)
    assert soft.diverged[0]
    assert np.isinf(soft.final_sq_err[:, 0]).all()


def test_central_trials_match_direct_estimates(ref5_model, ref5_iid, reciprocal, linear_alpha):
    # the oracle-only engine and the token engine's in-loop oracle, per tick; the
    # horizon crosses several chunk edges, where the running means carry over
    horizon, seed = 300, 2
    assert horizon > CHUNK_TICKS
    central = run_central_trials(ref5_model, horizon, trials=2, master_seed=seed)
    token = run_token_trials(
        ref5_model, ref5_iid, reciprocal, linear_alpha, horizon, trials=2, master_seed=seed,
        include_central=True,
    )
    for r in range(2):
        streams = episode_streams(trial_seed(seed, r))
        means = [np.zeros(a.n_measurements) for a in ref5_model.agents]
        for t in range(horizon + 1):
            ys = sample_measurements(ref5_model, streams.noise)
            for i, y in enumerate(ys):
                means[i] += (y - means[i]) / (t + 1)
            est = central_estimate(ref5_model.agents, means)
            sq = float(((est - ref5_model.theta) ** 2).sum())
            assert central.sq_err[r, t] == pytest.approx(sq, rel=1e-9)
            assert token.central.sq_err[r, t] == pytest.approx(sq, rel=1e-9)


def test_chain_trials_start_node_and_monotonicity(ref5_iid, reciprocal):
    result = run_chain_trials(ref5_iid, reciprocal, start_node=2, horizon=100, trials=500, master_seed=1)
    assert result.nonvisit_frac[0, 2] == 0.0
    assert np.all(np.diff(result.gap_frac) <= 1e-12)
    assert np.all(np.diff(result.nonvisit_frac, axis=0) <= 1e-12)
