"""Batched engine vs the scalar per-tick path, determinism, and pairing."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.random import PCG64, Generator, SeedSequence

from roamtoken import (
    AgentModel,
    AlphaSchedule,
    CiConfig,
    DeterministicSequence,
    GlobalModel,
    IidFailureGraph,
    Lazy,
    NonFiniteMetric,
    OutDegreeReciprocal,
    SolveFailed,
    StaticGraph,
    run_episode,
    sample_measurements,
    verify_tail_bounds,
)
import roamtoken._sharding as sharding
import roamtoken.engine as engine
from roamtoken._streams import episode_streams, trial_seed
from roamtoken.chain import bulk_step
from roamtoken.config import build_experiment, load_config
from roamtoken.engine import (
    CHUNK_TICKS,
    TickStats,
    Trials,
    _OutRows,
    _TrialBlocks,
    _walk,
    run_chain_trials,
    run_ci_trials,
    run_token_trials,
)
from roamtoken.observation import central_solver

from conftest import make_ref5_model, random_spd, ref5_adjacency, slow_ring
from references import SeriesRows, central_estimate, central_trials, ci_step, ignore, tick_stats

TOKEN_SERIES = ("sq_err", "last_seen", "visited")


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
    sched = AlphaSchedule()
    # 300 ticks cross several chunk edges, where the walker carries each holder over
    horizon, trials, seed = 300, 4, 99
    assert horizon > CHUNK_TICKS
    batch = SeriesRows(horizon, *TOKEN_SERIES)
    run_token_trials(
        model, spec, rule, sched, horizon, trials, master_seed=seed, readers=batch.readers
    )
    for r in range(trials):
        trace = run_episode(
            model, spec, rule, sched, horizon, seed=trial_seed(seed, r)
        )
        assert np.array_equal(batch["visited"][r], trace.visited_count.astype(np.int16))
        assert np.allclose(batch["sq_err"][r], trace.token_sq_err, rtol=1e-9, atol=1e-13)
        assert np.allclose(
            batch["last_seen"][r], trace.mean_last_seen_sq_err, rtol=1e-9, atol=1e-13
        )


def test_batched_trials_match_single_episodes_when_cover_spans_chunks():
    # K gains versions, and each is eigendecomposed, in chunks after the first; the
    # last-seen means and errors are carried over every chunk edge
    model, spec, rule = slow_ring()
    sched = AlphaSchedule()
    horizon, trials, seed = 400, 4, 0
    assert horizon > 3 * CHUNK_TICKS
    batch = SeriesRows(horizon, *TOKEN_SERIES)
    trial0 = run_token_trials(
        model, spec, rule, sched, horizon, trials, master_seed=seed, readers=batch.readers
    ).trial0
    for r in range(trials):
        trace = run_episode(model, spec, rule, sched, horizon, seed=trial_seed(seed, r))
        first_visits = np.flatnonzero(np.diff(trace.visited_count, prepend=0))
        assert len(set(first_visits // CHUNK_TICKS)) >= 3
        assert trace.visited_count[-1] == 8
        if r == 0:
            assert np.array_equal(trial0.holder, trace.holder)
        assert np.array_equal(batch["visited"][r], trace.visited_count.astype(np.int16))
        assert np.allclose(batch["sq_err"][r], trace.token_sq_err, rtol=1e-9, atol=1e-13)
        assert np.allclose(
            batch["last_seen"][r], trace.mean_last_seen_sq_err, rtol=1e-9, atol=1e-13
        )


def test_estimate_guard_names_first_failing_tick(monkeypatch):
    model, spec, rule = slow_ring()
    args = (model, spec, rule, AlphaSchedule())
    with monkeypatch.context() as m:
        m.setattr("roamtoken._kernels.ESTIMATE_RTOL", -1.0)
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
    sched = AlphaSchedule()
    batch = SeriesRows(120, "sq_err", "visited")
    run_token_trials(
        model, spec, rule, sched, horizon=120, trials=3, master_seed=5, readers=batch.readers
    )
    for r in range(3):
        trace = run_episode(model, spec, rule, sched, 120, seed=trial_seed(5, r))
        assert np.array_equal(batch["visited"][r], trace.visited_count.astype(np.int16))
        assert np.allclose(batch["sq_err"][r], trace.token_sq_err, rtol=1e-8, atol=1e-12)


def test_engine_deterministic_given_seed(ref5_model, ref5_iid, reciprocal, linear_alpha):
    def run(seed):
        rows = SeriesRows(100, "sq_err", "last_seen")
        args = (ref5_model, ref5_iid, reciprocal, linear_alpha, 100, 8)
        run_token_trials(*args, master_seed=seed, readers=rows.readers)
        return rows

    a, b, c = run(3), run(3), run(4)
    assert np.array_equal(a["sq_err"], b["sq_err"])
    assert np.array_equal(a["last_seen"], b["last_seen"])
    assert not np.array_equal(a["sq_err"], c["sq_err"])


def test_ci_batch_matches_step_loop(ref5_model, ref5_iid):
    cfg = CiConfig(a=1.0, b=0.3, tau1=1.0, tau2=0.5)
    horizon, seed = 150, 11
    batch = SeriesRows(horizon, "netavg")
    run_ci_trials(
        ref5_model, ref5_iid, [cfg], horizon, trials=3, master_seed=seed, readers=batch.readers
    )
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
        assert np.allclose(batch["netavg"][r], values, rtol=1e-9, atol=1e-12)


def test_token_and_ci_share_noise_and_graph_draws(ref5_model, ref5_iid):
    # pairing: blocks whose graph draws nothing (static) or without a model (chain)
    # draw the same per-trial streams as the full blocks of the token and CI engines
    from roamtoken.engine import _TrialBlocks

    seed, trials = 21, 3
    full = _TrialBlocks(trials, seed, ref5_model, ref5_iid)
    static = _TrialBlocks(trials, seed, ref5_model, StaticGraph(ref5_iid.backbone))
    chain = _TrialBlocks(trials, seed, None, ref5_iid)
    seen = []
    for (t0, length), *others in zip(full.chunks(300), static.chunks(300), chain.chunks(300)):
        assert all(other == (t0, length) for other in others)
        seen.append((t0, length))
        assert np.array_equal(full.noise, static.noise)
        assert np.array_equal(full.graph_u, chain.graph_u)
        assert np.array_equal(full.move_u, static.move_u)
        assert np.array_equal(full.move_u, chain.move_u)
        assert static.graph_u.shape == (trials, length, 0)
        assert chain.noise is None
    assert [t0 for t0, _ in seen] == list(range(0, 300, CHUNK_TICKS))
    assert [length for _, length in seen] == [CHUNK_TICKS] * (len(seen) - 1) + [300 - seen[-1][0]]
    assert len(seen) >= 2


def test_chain_and_token_engines_walk_the_same_paths(
    ref5_model, ref5_iid, reciprocal, linear_alpha
):
    # both engines step the holder through the same walker on the same graph and move streams
    horizon, trials, seed = 300, 6, 13
    token = SeriesRows(horizon, "visited")
    run_token_trials(
        ref5_model, ref5_iid, reciprocal, linear_alpha, horizon, trials, start_node=1,
        master_seed=seed, readers=token.readers,
    )
    chain = run_chain_trials(ref5_iid, reciprocal, 1, horizon, trials, master_seed=seed)
    assert np.array_equal(chain.gap_frac, 1 - (token["visited"] == 5).mean(axis=0))


def test_engines_reject_graph_model_size_mismatch(ref5_model, reciprocal, linear_alpha):
    spec = StaticGraph(~np.eye(3, dtype=bool))
    with pytest.raises(ValueError, match="graph has 3 nodes but model has 5 agents"):
        run_token_trials(ref5_model, spec, reciprocal, linear_alpha, horizon=5, trials=2)
    cfg = CiConfig(a=1.0, b=0.3, tau1=1.0, tau2=0.5)
    with pytest.raises(ValueError, match="graph has 3 nodes but model has 5 agents"):
        run_ci_trials(ref5_model, spec, [cfg], horizon=5, trials=2)


@pytest.mark.parametrize("trials, horizon", [(0, 5), (2, -1)])
def test_entry_points_reject_runs_without_trials_or_ticks(
    ref5_model, ref5_static, reciprocal, linear_alpha, trials, horizon
):
    # with no trials the token and chain engines and the tail check divided by zero and the
    # baseline engine returned an empty result; every entry point took a horizon of -1
    model, spec, rule, schedule = ref5_model, ref5_static, reciprocal, linear_alpha
    cfg = CiConfig(a=1.0, b=0.3, tau1=1.0, tau2=0.5)
    runs = [
        lambda: run_token_trials(model, spec, rule, schedule, horizon, trials),
        lambda: run_ci_trials(model, spec, [cfg], horizon, trials),
        lambda: run_chain_trials(spec, rule, 0, horizon, trials),
        lambda: verify_tail_bounds(spec, rule, trials=trials, horizon=horizon),
    ]
    if trials:  # a single episode has no trial count
        runs.append(lambda: run_episode(model, spec, rule, schedule, horizon))
    named = rf"need trials >= 1 and horizon >= 0, got \d+ and {horizon}"
    for run in runs:
        with pytest.raises(ValueError, match=named):
            run()


def test_readers_name_only_series_the_run_makes(
    monkeypatch, ref5_model, ref5_iid, reciprocal, linear_alpha
):
    # a reader for a series the run does not make fails before the run starts: no
    # oracle is built and no block of trials is run
    def refuse(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(engine, "_sharded", refuse)
    monkeypatch.setattr(engine, "central_solver", refuse)
    cfg = CiConfig(a=1.0, b=0.3, tau1=1.0, tau2=0.5)
    runs = {
        "token": lambda readers: run_token_trials(
            ref5_model, ref5_iid, reciprocal, linear_alpha, 10, 2, readers=readers
        ),
        "central": lambda readers: central_trials(ref5_model, 10, 2, readers=readers),
        "ci": lambda readers: run_ci_trials(ref5_model, ref5_iid, [cfg], 10, 2, readers=readers),
        "ci grid": lambda readers: run_ci_trials(
            ref5_model, ref5_iid, [cfg, cfg], 10, 2, readers=readers
        ),
    }
    for run in runs.values():
        with pytest.raises(ValueError, match="no series 'bogus'"):
            run({"bogus": ignore})
    with pytest.raises(ValueError, match="no series 'netavg'"):
        runs["ci grid"]({"netavg": ignore})

    # without a central reader the token engine never builds the oracle; trial 0's
    # last-seen errors do not depend on whether a reader reads them
    monkeypatch.undo()
    monkeypatch.setattr(engine, "central_solver", refuse)
    token = runs["token"]({"sq_err": ignore})
    assert isinstance(token, Trials) and (token.trials, token.horizon) == (2, 10)
    assert token.trial0.token_sq_err.shape == (11,)
    read = runs["token"]({"sq_err": ignore, "last_seen": ignore}).trial0
    assert np.array_equal(token.trial0.mean_last_seen_sq_err, read.mean_last_seen_sq_err)



def test_call_time_bindings_see_every_step_and_oracle(monkeypatch, ref5_model, ref5_static):
    # the benchmark's traced pass wraps ``engine.bulk_step`` and ``engine.central_solver``,
    # looked up at call time; in one process a wrap sees every tick's step of the token and
    # chain walks, and each run's oracle, built once and solved once per chunk
    monkeypatch.setattr(sharding, "_usable_cpus", lambda: 1)
    steps, solves = [], []

    def counted_step(*args, **kwargs):
        steps.append(len(args[0]))
        return bulk_step(*args, **kwargs)

    def counted_solver(model):
        solve = central_solver(model)
        solves.append(0)

        def counted(means):
            solves[-1] += 1
            return solve(means)

        return counted

    monkeypatch.setattr(engine, "bulk_step", counted_step)
    monkeypatch.setattr(engine, "central_solver", counted_solver)
    rule, schedule, horizon = OutDegreeReciprocal(), AlphaSchedule(), 150
    trials = sharding.SHARD_MIN_TRIALS  # sharded but for the one usable core
    readers = {"sq_err": ignore, "central": ignore}
    run_token_trials(ref5_model, ref5_static, rule, schedule, horizon, trials, readers=readers)
    assert steps == [trials] * (horizon + 1) and solves == [3]
    run_chain_trials(ref5_static, rule, 0, horizon, trials)
    assert steps == [trials] * 2 * (horizon + 1)
    central_trials(ref5_model, horizon, trials)
    assert solves == [3, 3]

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
    args = (model, spec, OutDegreeReciprocal(), AlphaSchedule())
    with pytest.raises(ValueError, match=r"noise sampler gave shape \(6,\), not \(5,\)"):
        run_episode(*args, horizon=20, seed=trial_seed(3, 0))
    with pytest.raises(ValueError, match=r"noise sampler gave shape \(6,\), not \(21, 5\)"):
        run_token_trials(*args, horizon=20, trials=2, master_seed=3)


def test_ci_divergence_detection(ref5_model, ref5_iid):
    # a consensus weight far beyond stability makes the linear part explode; the run
    # raises where the candidate's series is read and flags the candidate where it is not
    cfg = CiConfig(a=1.0, b=80.0, tau1=1.0, tau2=0.01)
    args = (ref5_model, ref5_iid, [cfg], 4000, 2)
    with pytest.raises(NonFiniteMetric):
        run_ci_trials(*args, master_seed=0, readers={"netavg": ignore})
    soft = run_ci_trials(*args, master_seed=0)
    assert soft.diverged[0]
    assert np.isinf(soft.final_sq_err[:, 0]).all()


def _vector_model() -> GlobalModel:
    """Four agents of a parameter in R^3, three of them with two measurements each."""
    rng = np.random.default_rng(12)
    agents = [
        AgentModel(i, rng.standard_normal((m, 3)), random_spd(rng, m) + np.eye(m))
        for i, m in enumerate([2, 1, 2, 2])
    ]
    return GlobalModel(agents, [0.5, -1.0, 2.0])


@pytest.mark.parametrize("make_model", [make_ref5_model, _vector_model], ids=["ref5", "vector"])
def test_central_trials_match_direct_estimates(make_model, reciprocal, linear_alpha):
    # the oracle alone on a static graph, as `[central]` runs it, and the token engine's
    # oracle on an i.i.d. graph, per tick; the horizon crosses several chunk edges, where
    # the running means carry over
    horizon, seed, model = 300, 2, make_model()
    assert horizon > CHUNK_TICKS
    spec = IidFailureGraph(~np.eye(model.n_agents, dtype=bool), p_fail=0.5)
    central, token = SeriesRows(horizon, "central"), SeriesRows(horizon, "central")
    central_trials(model, horizon, trials=2, master_seed=seed, readers=central.readers)
    run_token_trials(
        model, spec, reciprocal, linear_alpha, horizon, trials=2, master_seed=seed,
        readers=token.readers,
    )
    for r in range(2):
        streams = episode_streams(trial_seed(seed, r))
        means = [np.zeros(a.n_measurements) for a in model.agents]
        for t in range(horizon + 1):
            ys = sample_measurements(model, streams.noise)
            for i, y in enumerate(ys):
                means[i] += (y - means[i]) / (t + 1)
            est = central_estimate(model.agents, means)
            sq = float(((est - model.theta) ** 2).sum())
            assert central["central"][r, t] == pytest.approx(sq, rel=1e-9)
            assert token["central"][r, t] == pytest.approx(sq, rel=1e-9)


def test_chain_trials_start_node_and_monotonicity(ref5_iid, reciprocal):
    result = run_chain_trials(ref5_iid, reciprocal, start_node=2, horizon=100, trials=500, master_seed=1)
    assert result.nonvisit_frac[0, 2] == 0.0
    assert np.all(np.diff(result.gap_frac) <= 1e-12)
    assert np.all(np.diff(result.nonvisit_frac, axis=0) <= 1e-12)


def _frames_with_a_dead_end() -> DeterministicSequence:
    """Four nodes cycling through three frames; node 3 has no out-edge in frame 1."""
    edges = [
        [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (3, 0)],
        [(0, 1), (1, 0), (1, 2), (2, 3)],
        [(2, 0), (3, 0), (3, 1)],
    ]
    frames = [np.zeros((4, 4), dtype=bool) for _ in edges]
    for frame, frame_edges in zip(frames, edges):
        for i, j in frame_edges:
            frame[i, j] = True
    return DeterministicSequence(frames, cycle=True)


WALK_SPECS = {
    "static": lambda: StaticGraph(ref5_adjacency()),
    "iid": lambda: IidFailureGraph(ref5_adjacency(), p_fail=0.9),
    "iid-no-edges": lambda: IidFailureGraph(np.zeros((2, 2), dtype=bool), p_fail=0.5),
    "sequence": _frames_with_a_dead_end,
}


@pytest.mark.parametrize("rule", [OutDegreeReciprocal(), Lazy(0.3)], ids=["reciprocal", "lazy"])
@pytest.mark.parametrize("kind", sorted(WALK_SPECS))
def test_compact_walk_matches_dense_steps(kind, rule):
    # each trial's holder, stepped as run_episode steps it: bulk_step on the dense
    # adjacency row of the holder, from the trial's own graph and move streams
    spec = WALK_SPECS[kind]()
    trials, seed, ticks = 6, 17, 6 * CHUNK_TICKS + 20
    blocks = _TrialBlocks(trials, seed, None, spec)
    out_rows, pos = _OutRows(spec, rule), np.full(trials, spec.n - 1)
    paths = []
    for t0, length in blocks.chunks(ticks):
        path, pos = _walk(out_rows, blocks, t0, length, pos)
        paths.append(path.copy())  # the next chunk reuses the path's buffer
    batched = np.concatenate(paths + [pos[None]])
    assert len(paths) == 7  # six chunk edges, then a short chunk
    holds_on_empty_rows = 0
    for r in range(trials):
        streams = episode_streams(trial_seed(seed, r))
        node = spec.n - 1
        for t in range(ticks):
            assert batched[t, r] == node, (t, r)
            a = spec.adjacency(t, streams.graph.random(spec.draws))
            holds_on_empty_rows += not a[node].any()
            node = int(bulk_step(np.array([node]), a[[node]], rule, streams.move.random(1))[0])
        assert batched[ticks, r] == node
    # the cases where the token must hold on an empty row do occur
    if kind != "static":
        assert holds_on_empty_rows > 0


# Under a sampler that always draws the last column, the compact walk from ``start`` first
# leaves the graph at tick ``first``.  On the reference graph, node 0's last compact column is
# node 2 and node 2's is node 4, both edges, and node 4's is padding, never an edge; on the
# sequence, node 0's is node 3, an edge of frame 0, and node 3's is padding.  On a dense row
# the last column is node n - 1, which node 1 has no edge to at t=0 in any of the three.
GUARD_CASES = {"static": (0, 2), "iid": (4, 0), "sequence": (0, 1)}


@pytest.mark.parametrize("kind", sorted(GUARD_CASES))
def test_batched_walk_keeps_the_nonexistent_edge_guard(kind, monkeypatch):
    spec, (start, first) = WALK_SPECS[kind](), GUARD_CASES[kind]
    monkeypatch.setattr(
        "roamtoken.chain._sample_rows", lambda cum, u: np.full(len(u), cum.shape[1] - 1)
    )
    named = rf"token jumped a nonexistent edge at t={first} in trial 0$"
    with pytest.raises(RuntimeError, match=named):
        run_chain_trials(spec, OutDegreeReciprocal(), start_node=start, horizon=10, trials=3)
    model = GlobalModel([AgentModel(i, [[1.0, 0.5 * i]], [[1.0]]) for i in range(spec.n)], [1, 2])
    args = (model, spec, OutDegreeReciprocal(), AlphaSchedule())
    with pytest.raises(RuntimeError, match=named):
        run_token_trials(*args, horizon=10, trials=3, start_node=start)
    with pytest.raises(RuntimeError, match=r"token jumped a nonexistent edge at t=0$"):
        run_episode(*args, horizon=10, start_node=1)



def test_walk_buffers_take_few_bytes_per_trial_tick(ref5_iid):
    # beside the block's draws, each trial-tick of the walk keeps its holder and the flat
    # index of its drawn column (8 bytes each), the holder's out-row (one flag a column),
    # its own and drawn columns in the narrowest type that holds the width (1 byte each
    # here) and two check flags: 25 bytes at ref5's width of 5.  With int64 own and drawn
    # columns it was 39.
    trials = 7
    blocks = _TrialBlocks(trials, 3, None, ref5_iid)
    out_rows, pos = _OutRows(ref5_iid, OutDegreeReciprocal()), np.zeros(trials, dtype=np.int64)
    for t0, length in blocks.chunks(2 * CHUNK_TICKS):
        _, pos = _walk(out_rows, blocks, t0, length, pos)
    walk = [v.nbytes for k, v in blocks._buffers.items() if k not in ("noise", "graph", "move")]
    assert out_rows.width == 5
    assert sum(walk) == 25 * trials * CHUNK_TICKS

def test_walk_guard_names_the_first_bad_step_of_a_later_chunk(monkeypatch):
    # the sampler as it is, except that at tick 150, in the third chunk, trial 2 draws a
    # column whose edge is down
    spec, ticks = IidFailureGraph(ref5_adjacency(), p_fail=0.9), []

    def one_bad_step(pos, rows, rule, u, cum=None):
        col = bulk_step(pos, rows, rule, u, cum)
        if len(ticks) == 150:
            down = np.flatnonzero(~rows[2] & (np.arange(rows.shape[1]) != pos[2]))
            col[2] = down[0]
        ticks.append(len(ticks))
        return col

    monkeypatch.setattr(engine, "bulk_step", one_bad_step)
    with pytest.raises(RuntimeError, match=r"nonexistent edge at t=150 in trial 2$"):
        run_chain_trials(spec, OutDegreeReciprocal(), start_node=0, horizon=300, trials=4)
    assert len(ticks) == 3 * CHUNK_TICKS  # the walk stops at the end of the chunk


def test_engines_build_no_per_tick_adjacency_on_iid_graphs(monkeypatch):
    # the walk reads each holder's out-edge slots from the uniforms: an (R, n, n)
    # adjacency per tick is never built, so neither engine calls ``adjacency``
    def refuse(self, t, u):
        raise AssertionError("an i.i.d. adjacency was built")

    spec = IidFailureGraph(ref5_adjacency(), p_fail=0.4)
    monkeypatch.setattr(IidFailureGraph, "adjacency", refuse)
    token = SeriesRows(150, "visited")
    run_token_trials(
        make_ref5_model(), spec, OutDegreeReciprocal(), AlphaSchedule(), horizon=150,
        trials=4, master_seed=2, readers=token.readers,
    )
    chain = run_chain_trials(spec, OutDegreeReciprocal(), 0, horizon=150, trials=4, master_seed=2)
    assert np.array_equal(chain.gap_frac, 1 - (token["visited"] == 5).mean(axis=0))


def _noise_draw_ticks(monkeypatch, horizon: int, trials: int) -> list[int]:
    """The ticks each noise draw of an oracle-only run (``central_trials``) covers, in call order."""
    calls = []
    fill_noise = GlobalModel.fill_noise

    def counted(self, rng, out):
        calls.append(out.shape[0])
        return fill_noise(self, rng, out)

    monkeypatch.setattr(GlobalModel, "fill_noise", counted)
    central_trials(make_ref5_model(), horizon, trials, master_seed=4)
    return calls


def test_each_generator_call_draws_one_chunk(monkeypatch):
    # one noise draw per trial every CHUNK_TICKS ticks, the last one short, never past
    # the horizon
    horizon, trials = 2 * CHUNK_TICKS + 10, 3
    calls = _noise_draw_ticks(monkeypatch, horizon, trials)
    assert calls == [CHUNK_TICKS] * trials * 2 + [horizon + 1 - 2 * CHUNK_TICKS] * trials


def test_block_draws_hold_one_chunk_of_every_stream(monkeypatch, ref5_model, ref5_iid):
    # each block's draw buffers, whatever the horizon: trials × CHUNK_TICKS × (m + draws +
    # 1) × 8 bytes, for m stacked measurements (none without a model) and the graph's
    # uniforms a tick (none on a static graph).  verify's 10,000 chain trials run as two
    # 5,000-trial blocks, where one process's 256-tick loads once took a 410 MB buffer.
    root = Path(__file__).resolve().parents[1] / "configs"
    verify = build_experiment(load_config(root / "ref5_iid_verify.yaml"), root)
    monkeypatch.setattr(sharding, "_usable_cpus", lambda: 1)
    load, drawn = _TrialBlocks.load, []

    def recording(self, length):
        load(self, length)
        streams = [self._buffers[k] for k in ("noise", "graph", "move") if k in self._buffers]
        drawn.append((self.trials, sum(b.nbytes for b in streams)))

    monkeypatch.setattr(_TrialBlocks, "load", recording)
    horizon, trials = 2 * CHUNK_TICKS + 10, 3
    m, draws = ref5_model.total_measurements, ref5_iid.draws  # 5 and 20
    rule, ci = OutDegreeReciprocal(), [CiConfig(a=1.0, b=0.3, tau1=1.0, tau2=0.5)]
    token = (rule, AlphaSchedule(), horizon, trials)
    runs = {
        "token": (lambda: run_token_trials(ref5_model, ref5_iid, *token), m + draws + 1),
        "central": (lambda: central_trials(ref5_model, horizon, trials), m + 1),
        "ci": (lambda: run_ci_trials(ref5_model, ref5_iid, ci, horizon, trials), m + draws + 1),
        "chain": (lambda: run_chain_trials(ref5_iid, rule, 0, horizon, trials), draws + 1),
    }
    for name, (run, width) in runs.items():
        drawn.clear()
        run()
        assert drawn == [(trials, trials * CHUNK_TICKS * width * 8)] * 3, name
    assert verify.graph.draws == 20
    drawn.clear()
    run_chain_trials(verify.graph, verify.rule, 0, CHUNK_TICKS, verify.trials // 2)
    assert drawn == [(5_000, 5_000 * CHUNK_TICKS * 21 * 8)] * 2  # 21.5 MB


@pytest.mark.parametrize("trials", [2, 500])
def test_tick_stats_equal_whole_array_mean_and_std_bit_for_bit(trials):
    # the std is built from the mean just taken; read as views of the whole rows and as
    # (trials, CHUNK_TICKS) ring slots, with a short last chunk
    ticks = 3 * CHUNK_TICKS + 17
    rng = np.random.default_rng(trials)
    rows = rng.standard_normal((trials, ticks)) * np.logspace(-3, 6, ticks) + rng.random(ticks)
    slot = np.empty((trials, CHUNK_TICKS))
    from_slots = TickStats(trials, ticks)
    for t0 in range(0, ticks, CHUNK_TICKS):
        chunk = rows[:, t0 : t0 + CHUNK_TICKS]
        slot[:, : chunk.shape[1]] = chunk
        from_slots(slot[:, : chunk.shape[1]], t0)
    for stats in (tick_stats(rows), from_slots):
        assert stats.mean.tobytes() == rows.mean(axis=0).tobytes()
        assert stats.std.tobytes() == rows.std(axis=0, ddof=1).tobytes()


def test_steady_state_token_chunk_allocates_little(monkeypatch):
    # one process, static ref5 at R=250 with the oracle and the last-seen errors: the peak
    # of traced memory above what is live at a chunk's end, within each chunk from the
    # third on.  Before the chunk's steps wrote into the block's buffers it was 3,363,040 B
    # (numpy 2.4), and 641,633 B while the oracle LU-solved every chunk into new arrays; with
    # the oracle one matmul by a gain matrix into its own scratch it is about 140,000 B.
    root = Path(__file__).resolve().parents[1] / "configs"
    shipped = build_experiment(load_config(root / "ref5_static.yaml"), root)
    monkeypatch.setattr(sharding, "_usable_cpus", lambda: 1)
    transient = []

    def probe(rows, t0):
        current, peak = tracemalloc.get_traced_memory()
        transient.append(peak - current)
        tracemalloc.reset_peak()

    tracemalloc.start()
    try:
        run_token_trials(
            shipped.model, shipped.graph, shipped.rule, shipped.schedule, 10 * CHUNK_TICKS, 250,
            master_seed=1,
            readers={"sq_err": probe, "last_seen": ignore, "central": ignore},
        )
    finally:
        tracemalloc.stop()
    assert len(transient) == 11
    assert max(transient[2:]) <= 3_363_040 / 16
