"""Property test of the token engine on drawn setups.

Each example draws a model and a graph as the consensus+innovations property test does
(``conftest.models_and_graphs``), the reciprocal or a lazy transition rule, a linear or a
power alpha schedule, a start node, a horizon of 1 to 199 ticks and 2 to 4 trials.

Three properties hold on every draw:

- trial ``r`` of a batched run replays through ``run_episode(seed=trial_seed(master, r))``:
  equal visited counts, squared and last-seen errors within rtol 1e-9 and atol 1e-13, and
  trial 0's holder path equal;
- the oracle's series ``central`` equals ``references.central_estimate`` on each trial's
  running means, at rtol 1e-9;
- ``run_chain_trials`` walks the same paths: its ``gap_frac`` is exactly the share of
  token trials that have not yet visited every node, and its ``nonvisit_frac`` the share
  of ``run_episode`` holder paths that have not yet held each node.
"""

import numpy as np
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from roamtoken import AlphaSchedule, Lazy, OutDegreeReciprocal, run_episode, sample_measurements
from roamtoken._streams import episode_streams, trial_seed
from roamtoken.engine import run_chain_trials, run_token_trials

from conftest import models_and_graphs
from references import SeriesRows, central_estimate


@st.composite
def setups(draw):
    """(model, graph, rule, schedule, start node, horizon, trials, seed)."""
    model, graph = draw(models_and_graphs())
    rule = Lazy(draw(st.floats(0.05, 0.95))) if draw(st.booleans()) else OutDegreeReciprocal()
    if draw(st.booleans()):
        schedule = AlphaSchedule(draw(st.floats(0.5, 2.0)), draw(st.floats(0.6, 1.5)))
    else:
        schedule = AlphaSchedule()
    start = draw(st.integers(0, model.n_agents - 1))
    return model, graph, rule, schedule, start, draw(st.integers(1, 199)), draw(
        st.integers(2, 4)
    ), draw(st.integers(0, 1000))


def _central_errors(model, horizon, seed, r) -> np.ndarray:
    """Trial ``r``'s oracle squared error at every tick, solved from scratch."""
    streams = episode_streams(trial_seed(seed, r))
    means = [np.zeros(a.n_measurements) for a in model.agents]
    values = []
    for t in range(horizon + 1):
        for i, y in enumerate(sample_measurements(model, streams.noise)):
            means[i] += (y - means[i]) / (t + 1)
        err = central_estimate(model.agents, means) - model.theta
        values.append(float(err @ err))
    return np.array(values)


@settings(
    max_examples=100,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(setups())
def test_token_engine_replays_through_run_episode_and_central_estimate(setup):
    model, graph, rule, schedule, start, horizon, trials, seed = setup
    form = "t + 1" if (schedule.c, schedule.q) == (1.0, 1.0) else "c * (t + 1)**q"
    event(f"{type(graph).__name__}, {type(rule).__name__}, {form}")
    rows = SeriesRows(horizon, "sq_err", "last_seen", "visited", "central")
    trial0 = run_token_trials(
        model, graph, rule, schedule, horizon, trials, start_node=start, master_seed=seed,
        readers=rows.readers,
    ).trial0
    holders = []
    for r in range(trials):
        trace = run_episode(
            model, graph, rule, schedule, horizon, start_node=start, seed=trial_seed(seed, r)
        )
        holders.append(trace.holder)
        if r == 0:
            assert np.array_equal(trial0.holder, trace.holder)
        assert np.array_equal(rows["visited"][r], trace.visited_count)
        np.testing.assert_allclose(rows["sq_err"][r], trace.token_sq_err, rtol=1e-9, atol=1e-13)
        np.testing.assert_allclose(
            rows["last_seen"][r], trace.mean_last_seen_sq_err, rtol=1e-9, atol=1e-13
        )
        expected = _central_errors(model, horizon, seed, r)
        np.testing.assert_allclose(rows["central"][r], expected, rtol=1e-9, atol=0)
    chain = run_chain_trials(graph, rule, start, horizon, trials, master_seed=seed)
    covered = rows["visited"] == model.n_agents
    assert np.array_equal(chain.gap_frac, 1 - covered.mean(axis=0))
    held = np.array(holders)[:, :, None] == np.arange(model.n_agents)
    np.logical_or.accumulate(held, axis=1, out=held)  # held by tick t, per trial and node
    assert np.array_equal(chain.nonvisit_frac, 1 - held.mean(axis=0))
