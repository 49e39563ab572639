"""Property test of the consensus+innovations engine on drawn setups.

Each example draws a model of 2 to 6 agents and 1 to 3 parameters, where every agent takes
one measurement (the engine's all-scalar path) or one or two (its per-agent path); a static,
an i.i.d. failure or a cycling-sequence graph; one to three gain candidates; a horizon of 1
to 199 ticks and 2 to 4 trials.  Gains are drawn where the iteration stays bounded: the
consensus gain at most 1 / n, the innovation gain at most 1.

Two properties hold on every draw:

- a one-candidate run's ``netavg`` equals a loop of ``references.ci_step`` over each
  trial's own streams, at rtol 1e-9 and atol 1e-12;
- each candidate's horizon column in a pass over all of them equals its own one-candidate
  run bit for bit.
"""

import numpy as np
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from roamtoken import CiConfig, sample_measurements
from roamtoken._streams import episode_streams, trial_seed
from roamtoken.engine import run_ci_trials

from conftest import models_and_graphs
from references import SeriesRows, ci_step


@st.composite
def setups(draw):
    """(model, graph, gain candidates, horizon, trials, seed)."""
    model, graph = draw(models_and_graphs())
    n = model.n_agents

    def gains() -> CiConfig:
        tau1 = draw(st.floats(0.5, 1.0))
        return CiConfig(
            a=draw(st.floats(0.05, 1.0)),
            b=draw(st.floats(0.0, 1.0 / n)),
            tau1=tau1,
            tau2=tau1 * draw(st.floats(0.05, 0.95)),
        )

    cfgs = [gains() for _ in range(draw(st.integers(1, 3)))]
    return model, graph, cfgs, draw(st.integers(1, 199)), draw(st.integers(2, 4)), draw(
        st.integers(0, 1000)
    )


def _step_loop(model, graph, cfg, horizon, seed, r) -> np.ndarray:
    """Trial ``r``'s network-average squared error at every tick, by ``ci_step``."""
    streams = episode_streams(trial_seed(seed, r))
    state = np.zeros((model.n_agents, model.dim))
    values = [float(((state - model.theta) ** 2).sum(axis=1).mean())]
    for t in range(horizon + 1):
        ys = sample_measurements(model, streams.noise)
        a_t = graph.adjacency(t, streams.graph.random(graph.draws))
        if t < horizon:
            state = ci_step(state, model, a_t, ys, cfg, t)
            values.append(float(((state - model.theta) ** 2).sum(axis=1).mean()))
    return np.array(values)


@settings(
    max_examples=100,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(setups())
def test_ci_engine_matches_step_loop_and_its_own_one_candidate_runs(setup):
    model, graph, cfgs, horizon, trials, seed = setup
    scalar = all(a.n_measurements == 1 for a in model.agents)
    event(f"{type(graph).__name__}, {'all-scalar' if scalar else 'per-agent'}, K={len(cfgs)}")
    stacked = run_ci_trials(model, graph, cfgs, horizon, trials, master_seed=seed)
    assert not stacked.diverged.any()
    for k, cfg in enumerate(cfgs):
        rows = SeriesRows(horizon, "netavg")
        run_ci_trials(model, graph, [cfg], horizon, trials, master_seed=seed, readers=rows.readers)
        assert np.array_equal(stacked.final_sq_err[:, k], rows["netavg"][:, -1])
        if k == 0:
            for r in range(trials):
                expected = _step_loop(model, graph, cfg, horizon, seed, r)
                np.testing.assert_allclose(rows["netavg"][r], expected, rtol=1e-9, atol=1e-12)
