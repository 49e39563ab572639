"""Consensus-plus-innovations baseline estimator.

Every agent keeps its own estimate and mixes a neighbor-disagreement term with
a local innovation correction under separately decaying gains:

    s_i(t+1) = s_i(t) - beta(t) * sum_{l in out(i, t)} (s_i(t) - s_l(t))
                      + alpha(t) * W_i (y_i(t) - H_i s_i(t))

with alpha(t) = a / (t+1)^tau1, beta(t) = b / (t+1)^tau2 and W_i = H_i^T C_i^{-1}
the agent's own noise-weighted observation matrix (``AgentModel.W``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from ._streams import SeedLike
from .graphs import GraphSpec
from .observation import GlobalModel

if TYPE_CHECKING:
    from .engine import TickStats


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

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and self.a > 0):
            raise ValueError(f"a must be finite and > 0, got {self.a}")
        if not (math.isfinite(self.b) and self.b >= 0):
            raise ValueError(f"b must be finite and >= 0, got {self.b}")
        if not 0.0 < self.tau2 < self.tau1 <= 1.0:
            raise ValueError(
                f"(tau1, tau2) = ({self.tau1}, {self.tau2}) outside 0 < tau2 < tau1 <= 1"
            )

    def alpha(self, t: int) -> float:
        return self.a / (t + 1) ** self.tau1

    def beta(self, t: int) -> float:
        return self.b / (t + 1) ** self.tau2


@dataclass(eq=False)
class GridSearchResult:
    best: CiConfig
    scores: list[tuple[CiConfig, float]]
    best_trials: "TickStats"


def grid_configs(grid: dict[str, Sequence[float]]) -> list[CiConfig]:
    """Every candidate of ``grid``, in grid order; a bad value raises ValueError."""
    keys = ("a", "b", "tau1", "tau2")
    missing = [k for k in keys if k not in grid or not len(grid[k])]
    if missing:
        raise ValueError(f"grid is missing values for: {missing}")
    return [CiConfig(*values) for values in itertools.product(*(grid[k] for k in keys))]


def grid_search(
    model: GlobalModel,
    spec: GraphSpec,
    grid: dict[str, Sequence[float]],
    trials: int,
    horizon: int,
    seed: SeedLike | int = 0,
) -> GridSearchResult:
    """Pick the gain parameters with the best network error at the horizon.

    Two or more candidates run in one stacked pass on the same per-trial noise
    and graph draws, so the comparison is paired and the result is
    deterministic given the seed.  Diverged candidates score +inf and can
    never win; ties go to the first candidate in grid order.  The winner, or
    a lone candidate, which wins unscored, then runs on its own, its network
    error reduced over trials a chunk at a time (``best_trials``, a
    ``TickStats``).  A lone candidate's score is that reduction's mean at the
    horizon over ``||theta||^2``, and a diverging one raises ``NonFiniteMetric``.
    """
    from .engine import TickStats, run_ci_trials

    cfgs = grid_configs(grid)
    best = 0
    if len(cfgs) > 1:
        stacked = run_ci_trials(model, spec, cfgs, horizon=horizon, trials=trials, master_seed=seed)
        # A mean over the outer axis of the C-contiguous (trials, K) errors adds the
        # trials one by one, in the order in which the mean over trials of a full
        # (trials, horizon + 1) series adds up its last column, whereas a mean over a
        # single column sums pairwise and can differ in the last bit.  So a
        # candidate's score equals its relative MSE at the horizon bit for bit.  A
        # diverged candidate's errors are inf, so its score is inf.
        values = stacked.final_sq_err.mean(axis=0) / model.theta_sq
        best = min(range(len(cfgs)), key=lambda k: values[k])
        if math.isinf(values[best]):
            raise RuntimeError("every grid candidate diverged")
    stats = TickStats(trials, horizon + 1)
    run_ci_trials(
        model, spec, cfgs[best : best + 1], horizon=horizon, trials=trials, master_seed=seed,
        readers={"netavg": stats},
    )
    if len(cfgs) == 1:
        values = stats.mean[-1:] / model.theta_sq
    scores = [(c, float(v)) for c, v in zip(cfgs, values)]
    return GridSearchResult(best=cfgs[best], scores=scores, best_trials=stats)
