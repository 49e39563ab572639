"""Scalar per-tick references that the batched engine is checked against.

``ci_step`` is one consensus+innovations update written agent by agent, and
``central_estimate`` is the oracle solved from scratch for one trial.  The
package computes both only in batched form, in ``engine.run_ci_trials`` and
through ``observation.central_solver``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from roamtoken import AgentModel, CiConfig, GlobalModel, SingularModel, fisher_information
from roamtoken._linalg import solve_spd
from roamtoken.observation import SOLVE_RTOL


def ci_step(
    s: np.ndarray,
    model: GlobalModel,
    a: np.ndarray,
    ys: Sequence[np.ndarray],
    cfg: CiConfig,
    t: int,
) -> np.ndarray:
    """One synchronous update of every agent's (n, L) estimate.

    Neighbors are the out-neighbors in the current adjacency (information
    flows along directed edges).
    """
    s = np.atleast_2d(np.asarray(s, dtype=float))
    adj = np.asarray(a, dtype=float)
    deg = adj.sum(axis=1)
    consensus = deg[:, None] * s - adj @ s
    innovation = np.zeros_like(s)
    gains = cfg.gains(model)
    for i, agent in enumerate(model.agents):
        resid = ys[i] - agent.H @ s[i]
        innovation[i] = gains[i] @ (agent.W @ resid)
    return s - cfg.beta(t) * consensus + cfg.alpha(t) * innovation


def central_estimate(agents: Sequence[AgentModel], running_means: Sequence[np.ndarray]) -> np.ndarray:
    """The oracle estimate from per-agent measurement running means.

    Solves ``sigma_c x = sum_i W_i ybar_i`` by SPD factorization.
    """
    sigma = fisher_information(agents)
    rhs = np.zeros(agents[0].dim)
    for a, ybar in zip(agents, running_means):
        rhs += a.W @ np.asarray(ybar, dtype=float).ravel()
    try:
        return solve_spd(sigma, rhs, rtol=SOLVE_RTOL)
    except (np.linalg.LinAlgError, ArithmeticError) as exc:
        raise SingularModel(f"oracle solve failed: {exc}") from None
