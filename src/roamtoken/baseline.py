"""Consensus-plus-innovations baseline estimator.

Every agent keeps its own estimate and mixes a neighbor-disagreement term with
a local innovation correction under separately decaying gains:

    s_i(t+1) = s_i(t) - beta(t) * sum_{l in out(i, t)} (s_i(t) - s_l(t))
                      + alpha(t) * G_i (y_i(t) - H_i s_i(t))

with alpha(t) = a / (t+1)^tau1 and beta(t) = b / (t+1)^tau2.  The per-agent
gain ``G_i`` is the identity by default or a constant matrix per agent.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ._streams import SeedLike
from .graphs import GraphSpec
from .observation import GlobalModel

if TYPE_CHECKING:
    from .engine import CiTrials


@dataclass(eq=False)
class CiConfig:
    """Gain schedule and mixing weights for one consensus+innovations run.

    The default admissible range 0 < tau2 < tau1 <= 1 keeps the innovation
    gain decaying strictly faster than the consensus gain.
    """

    a: float
    b: float
    tau1: float
    tau2: float
    gain_mode: str | Sequence[np.ndarray] = "identity"

    def __post_init__(self) -> None:
        if self.a <= 0:
            raise ValueError("a must be > 0")
        if self.b < 0:
            raise ValueError("b must be >= 0")
        if not 0.0 < self.tau2 < self.tau1 <= 1.0:
            raise ValueError(
                f"(tau1, tau2) = ({self.tau1}, {self.tau2}) outside 0 < tau2 < tau1 <= 1"
            )
        if isinstance(self.gain_mode, str):
            if self.gain_mode != "identity":
                raise ValueError(f"unknown gain mode {self.gain_mode!r}")
        else:
            self.gain_mode = [np.asarray(g, dtype=float) for g in self.gain_mode]

    def alpha(self, t: int) -> float:
        return self.a / (t + 1) ** self.tau1

    def beta(self, t: int) -> float:
        return self.b / (t + 1) ** self.tau2

    def gains(self, model: GlobalModel) -> list[np.ndarray]:
        if isinstance(self.gain_mode, str):
            return [np.eye(model.dim) for _ in model.agents]
        if len(self.gain_mode) != model.n_agents:
            raise ValueError("need one gain matrix per agent")
        return list(self.gain_mode)


@dataclass(eq=False)
class GridSearchResult:
    best: CiConfig
    curve: "np.ndarray"
    scores: list[tuple[CiConfig, float]]
    best_trials: "CiTrials"


def grid_search(
    model: GlobalModel,
    spec: GraphSpec,
    grid: dict[str, Sequence[float]],
    trials: int,
    horizon: int,
    seed: SeedLike | int = 0,
    gain_mode: str | Sequence[np.ndarray] = "identity",
) -> GridSearchResult:
    """Pick the gain parameters with the best network error at the horizon.

    All candidates run in one stacked pass on the same per-trial noise and
    graph draws, so the comparison is paired and the result is deterministic
    given the seed.  Diverged candidates score +inf and can never win; ties go
    to the first candidate in grid order.  The winner is then run once more
    on its own to record its full series (``best_trials``).
    """
    from .engine import run_ci_trials

    keys = ("a", "b", "tau1", "tau2")
    missing = [k for k in keys if k not in grid or not len(grid[k])]
    if missing:
        raise ValueError(f"grid is missing values for: {missing}")
    cfgs = [
        CiConfig(a=a, b=b, tau1=tau1, tau2=tau2, gain_mode=gain_mode)
        for a, b, tau1, tau2 in itertools.product(*(grid[k] for k in keys))
    ]
    stacked = run_ci_trials(model, spec, cfgs, horizon=horizon, trials=trials, master_seed=seed)
    # Sum trial by trial: the mean over trials of a full (trials, horizon + 1)
    # series adds up its last column in this order, whereas a mean over a
    # single column sums pairwise and can differ in the last bit.  A diverged
    # candidate's errors are inf, so its score is inf.
    total = stacked.final_sq_err[0].copy()
    for row in stacked.final_sq_err[1:]:
        total += row
    theta_sq = float(model.theta @ model.theta)
    values = total / trials / theta_sq
    scores = [(c, float(v)) for c, v in zip(cfgs, values)]
    best = min(range(len(cfgs)), key=lambda k: scores[k][1])
    if math.isinf(scores[best][1]):
        raise RuntimeError("every grid candidate diverged")
    winner = run_ci_trials(
        model, spec, cfgs[best], horizon=horizon, trials=trials, master_seed=seed
    )
    curve = winner.netavg_sq_err.mean(axis=0) / theta_sq
    return GridSearchResult(best=cfgs[best], curve=curve, scores=scores, best_trials=winner)
