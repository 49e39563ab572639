"""Vectorized multi-trial simulation (internal support for the harness).

All trials advance in lockstep so per-tick work is a handful of array
operations, but each trial draws from its own three streams (noise, graph,
move) with exactly the same consumption pattern as the single-episode path.
A batched trial is therefore replayable standalone via
``run_episode(seed=trial_seed(master, r))``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from ._streams import SeedLike, trial_seed
from .baseline import CiConfig
from .chain import TransitionRule, bulk_step
from .errors import NonFiniteMetric, SolveFailed
from .graphs import GraphSpec
from .observation import GlobalModel, central_solver
from .token import ESTIMATE_RTOL, AlphaSchedule

CHUNK_TICKS = 256


@dataclass(eq=False)
class TokenTrials:
    theta: np.ndarray
    trials: int
    horizon: int
    sq_err: np.ndarray | None = None
    last_seen_mean_sq: np.ndarray | None = None
    visited_count: np.ndarray | None = None
    central: CentralTrials | None = None
    holder_trial0: np.ndarray | None = None


@dataclass(eq=False)
class CentralTrials:
    theta: np.ndarray
    trials: int
    horizon: int
    sq_err: np.ndarray


@dataclass(eq=False)
class CiTrials:
    theta: np.ndarray
    trials: int
    horizon: int
    netavg_sq_err: np.ndarray


@dataclass(eq=False)
class CiGridTrials:
    """One stacked pass over K gain candidates: only the horizon tick is kept."""

    trials: int
    horizon: int
    final_sq_err: np.ndarray  # (trials, K) network-average squared error at the horizon
    diverged: np.ndarray  # (K,) bool; a diverged candidate's errors are inf


@dataclass(eq=False)
class ChainTrials:
    trials: int
    horizon: int
    n: int
    nonvisit_frac: np.ndarray
    gap_frac: np.ndarray


class _TrialBlocks:
    """Per-trial stream generators with chunked block draws.

    Block draws from numpy generators consume the underlying bit stream
    exactly like successive per-tick draws, which keeps batched trials
    replayable through the scalar path (pinned by a unit test).  Each trial's
    block is drawn straight into its row of a buffer that later chunks reuse,
    so a chunk holds one copy of its draws.  A block without a model draws no
    noise and one without a graph no graph uniforms; the three streams are
    independent, so what a block skips never shifts what it draws.
    """

    def __init__(
        self,
        trials: int,
        master_seed: SeedLike,
        model: GlobalModel | None,
        spec: GraphSpec | None,
    ) -> None:
        if model is not None and spec is not None and spec.n != model.n_agents:
            raise ValueError(f"graph has {spec.n} nodes but model has {model.n_agents} agents")
        self.trials = trials
        self.model = model
        self.draws = 0 if spec is None else spec.draws
        self.noise_gens, self.graph_gens, self.move_gens = [], [], []
        for r in range(trials):
            noise, graph, move = trial_seed(master_seed, r).spawn(3)
            self.noise_gens.append(np.random.default_rng(noise))
            self.graph_gens.append(np.random.default_rng(graph))
            self.move_gens.append(np.random.default_rng(move))
        self._buffers: dict[str, np.ndarray] = {}
        self.noise: np.ndarray | None = None
        self.graph_u: np.ndarray | None = None
        self.move_u: np.ndarray | None = None

    def chunks(self, ticks: int) -> Iterator[tuple[int, int]]:
        """Yield ``(t0, length)`` for each chunk of ``ticks`` ticks, its draws loaded."""
        for t0 in range(0, ticks, CHUNK_TICKS):
            length = min(CHUNK_TICKS, ticks - t0)
            self.load(length)
            yield t0, length

    def load(self, length: int) -> None:
        """Draw the next ``length`` ticks of every trial's streams."""
        if self.model is not None:
            self.noise = self._buffer("noise", length, (self.model.total_measurements,))
            for g, row in zip(self.noise_gens, self.noise):
                self.model.fill_noise(g, row)
        self.graph_u = self._buffer("graph", length, (self.draws,))
        if self.draws:
            for g, row in zip(self.graph_gens, self.graph_u):
                g.random(out=row)
        self.move_u = self._buffer("move", length, ())
        for g, row in zip(self.move_gens, self.move_u):
            g.random(out=row)

    def _buffer(self, name: str, length: int, width: tuple[int, ...]) -> np.ndarray:
        """A (trials, length, *width) view of a buffer that later chunks reuse."""
        buf = self._buffers.get(name)
        if buf is None or buf.shape[1] < length:
            buf = self._buffers[name] = np.empty((self.trials, length, *width))
        return buf[:, :length]


class _MeasurementMap:
    """Precomputed affine map from raw noise blocks to stacked measurements."""

    def __init__(self, model: GlobalModel) -> None:
        self.model = model
        self.h_theta = np.concatenate([a.H @ model.theta for a in model.agents])
        self.all_scalar = all(a.n_measurements == 1 for a in model.agents)
        if self.all_scalar:
            self.scale = np.array([a.chol_C[0, 0] for a in model.agents])
        else:
            m = model.total_measurements
            self.chol_block = np.zeros((m, m))
            for a, sl in zip(model.agents, model.measurement_slices()):
                self.chol_block[sl, sl] = a.chol_C

    def __call__(self, z: np.ndarray) -> np.ndarray:
        """Stacked (trials, m) measurements from one tick's (trials, m) raw noise."""
        if self.all_scalar:
            return self.h_theta + z * self.scale
        return self.h_theta + z @ self.chol_block.T


class _CentralOracle:
    """The centralized estimate on every trial's measurements, solved once per chunk.

    ``step`` folds one tick into the running means and keeps that tick's
    right-hand side ``W ybar``; ``score`` solves the chunk's kept ticks in one
    ``central_solver`` call and records their errors.
    """

    def __init__(self, model: GlobalModel, trials: int, horizon: int) -> None:
        self.solve = central_solver(model)
        self.w_full = np.hstack([a.W for a in model.agents])
        self.ybar = np.zeros((trials, model.total_measurements))
        self.rhs = np.empty((CHUNK_TICKS, trials, model.dim))
        self.result = CentralTrials(
            theta=model.theta.copy(),
            trials=trials,
            horizon=horizon,
            sq_err=np.zeros((trials, horizon + 1)),
        )

    def step(self, y: np.ndarray, t: int, ti: int) -> None:
        """Fold tick ``t`` into the running means; keep its right-hand side as row ``ti``."""
        self.ybar += (y - self.ybar) / (t + 1)
        np.matmul(self.ybar, self.w_full.T, out=self.rhs[ti])

    def score(self, t0: int, length: int) -> None:
        """Solve the chunk's ``length`` kept ticks, which start at ``t0``; record their errors."""
        err = self.solve(self.rhs[:length]) - self.result.theta
        self.result.sq_err[:, t0 : t0 + length] = (err * err).sum(axis=-1).T


def _walk(
    spec: GraphSpec, rule: TransitionRule, blocks: _TrialBlocks, t0: int, length: int,
    pos: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Step every trial's holder through one loaded chunk.

    Returns the chunk's (trials, length) path, whose column ``ti`` holds each
    trial's holder at tick ``t0 + ti``, and the holders after the chunk's
    last step.  The path depends only on the graph and move streams.
    """
    R, n = len(pos), spec.n
    ar = np.arange(R)
    path = np.empty((length, R), dtype=np.int64)  # tick-major, so each tick's column is contiguous
    for ti in range(length):
        path[ti] = pos
        rows = np.broadcast_to(spec.adjacency(t0 + ti, blocks.graph_u[:, ti]), (R, n, n))[ar, pos]
        pos = bulk_step(pos, rows, rule, blocks.move_u[:, ti])
    return path.T, pos


def run_token_trials(
    model: GlobalModel,
    spec: GraphSpec,
    rule: TransitionRule,
    schedule: AlphaSchedule,
    horizon: int,
    trials: int,
    start_node: int = 0,
    master_seed: SeedLike = 0,
    record: frozenset[str] | set[str] = frozenset({"sq_err", "last_seen", "visited"}),
    include_central: bool = False,
) -> TokenTrials:
    """Run many token episodes in lockstep; see ``token.run_episode`` for semantics."""
    blocks = _TrialBlocks(trials, master_seed, model, spec)
    n, dim, R = model.n_agents, model.dim, trials
    theta = model.theta
    theta_sq = float(theta @ theta)
    measure = _MeasurementMap(model)
    all_scalar = measure.all_scalar
    w_rows = np.stack([a.W[:, 0] for a in model.agents]) if all_scalar else None
    b_stack = np.stack([a.B for a in model.agents])
    slices = model.measurement_slices()
    eye = np.eye(dim)

    x = np.zeros((R, n, dim))
    snap = np.zeros((R, n, dim))
    d = np.zeros((R, dim))
    k_mat = np.zeros((R, dim, dim))
    visited = np.zeros((R, n), dtype=bool)
    holder = np.full(R, int(start_node))
    last_seen_err = np.full((R, n), theta_sq)
    ar = np.arange(R)

    size = horizon + 1
    sq_err = np.zeros((R, size)) if "sq_err" in record else None
    last_seen = np.zeros((R, size)) if "last_seen" in record else None
    visit_counts = np.zeros((R, size), dtype=np.int16) if "visited" in record else None
    oracle = _CentralOracle(model, R, horizon) if include_central else None
    holder0 = np.zeros(size, dtype=np.int64)

    for t0, length in blocks.chunks(size):
        path, holder = _walk(spec, rule, blocks, t0, length, holder)
        holder0[t0 : t0 + length] = path[0]
        for ti in range(length):
            t = t0 + ti
            pos = path[:, ti]
            y = measure(blocks.noise[:, ti])
            if all_scalar:
                x_target = y[:, :, None] * w_rows[None, :, :]
            else:
                x_target = np.empty((R, n, dim))
                for i, sl in enumerate(slices):
                    x_target[:, i, :] = y[:, sl] @ model.agents[i].W.T
            x += (x_target - x) / (t + 1)

            xp = x[ar, pos]
            d += xp - snap[ar, pos]
            snap[ar, pos] = xp
            first = ~visited[ar, pos]
            visited[ar, pos] = True
            if first.any():
                k_mat[first] += b_stack[pos[first]]

            alpha = schedule.alpha(t)
            m_t = k_mat + eye / alpha
            s = np.linalg.solve(m_t, d[..., None])[..., 0]
            resid = np.linalg.norm((m_t @ s[..., None])[..., 0] - d, axis=1)
            scale = np.maximum(np.linalg.norm(d, axis=1), 1e-300)
            worst = (resid / scale).max()
            if worst > ESTIMATE_RTOL:
                raise SolveFailed(f"estimate solve residual {worst:.3e} at t={t}")

            err = s - theta
            sq = (err * err).sum(axis=1)
            last_seen_err[ar, pos] = sq
            if sq_err is not None:
                sq_err[:, t] = sq
            if last_seen is not None:
                last_seen[:, t] = (last_seen_err * visited).sum(axis=1) / visited.sum(axis=1)
            if visit_counts is not None:
                visit_counts[:, t] = visited.sum(axis=1)
            if oracle is not None:
                oracle.step(y, t, ti)
        if oracle is not None:
            oracle.score(t0, length)

    return TokenTrials(
        theta=theta.copy(),
        trials=R,
        horizon=horizon,
        sq_err=sq_err,
        last_seen_mean_sq=last_seen,
        visited_count=visit_counts,
        central=None if oracle is None else oracle.result,
        holder_trial0=holder0,
    )


def run_central_trials(
    model: GlobalModel,
    horizon: int,
    trials: int,
    master_seed: SeedLike = 0,
) -> CentralTrials:
    """Oracle-only runs: per-tick squared error of the centralized estimate."""
    blocks = _TrialBlocks(trials, master_seed, model, None)
    measure = _MeasurementMap(model)
    oracle = _CentralOracle(model, trials, horizon)
    for t0, length in blocks.chunks(horizon + 1):
        for ti in range(length):
            oracle.step(measure(blocks.noise[:, ti]), t0 + ti, ti)
        oracle.score(t0, length)
    return oracle.result


def run_ci_trials(
    model: GlobalModel,
    spec: GraphSpec,
    cfg: CiConfig | Sequence[CiConfig],
    horizon: int,
    trials: int,
    master_seed: SeedLike = 0,
) -> CiTrials | CiGridTrials:
    """Run many consensus+innovations trajectories in lockstep.

    Uses the same per-trial noise and graph streams as ``run_token_trials``
    (final-tick draws included even though unused), so token-vs-baseline
    comparisons are paired draw for draw.

    One ``CiConfig`` records every tick (``CiTrials``) and raises
    NonFiniteMetric if its trajectory diverges.  A sequence of K configs runs
    all of them in one pass over a (K, trials, n, L) state that shares the
    draws, the measurements and the adjacency of each tick, and keeps only the
    error at the horizon (``CiGridTrials``), so memory does not grow with the
    horizon; a diverged candidate is flagged and scores inf.  Every
    candidate's values equal those of its own single-config run bit for bit.
    """
    blocks = _TrialBlocks(trials, master_seed, model, spec)
    single = isinstance(cfg, CiConfig)
    cfgs = [cfg] if single else list(cfg)
    if not cfgs:
        raise ValueError("need at least one CiConfig")
    n, dim, R, K = model.n_agents, model.dim, trials, len(cfgs)
    theta = model.theta
    theta_sq = float(theta @ theta)
    measure = _MeasurementMap(model)
    all_scalar = measure.all_scalar
    # Gains folded with W and stacked over candidates: one (K, L, m_i) array per agent.
    folded = [[g @ a.W for g, a in zip(c.gains(model), model.agents)] for c in cfgs]
    g_fold = [np.stack(per_agent) for per_agent in zip(*folded)]
    h_rows = np.stack([a.H[0] for a in model.agents]) if all_scalar else None
    g_rows = np.stack([g[:, :, 0] for g in g_fold], axis=1) if all_scalar else None
    slices = model.measurement_slices()

    s = np.zeros((K, R, n, dim))
    live = np.arange(K)
    diverged = np.zeros(K, dtype=bool)
    size = horizon + 1
    netavg = None
    if single:
        netavg = np.zeros((R, size))
        netavg[:, 0] = theta_sq
    final = np.full((R, K), theta_sq)

    with np.errstate(over="ignore", invalid="ignore"):
        for t0, length in blocks.chunks(size):
            if not live.size:
                break
            consensus, innovation = np.empty_like(s), np.empty_like(s)
            resid = np.empty(s.shape[:3])
            for ti in range(min(length, horizon - t0)):
                t = t0 + ti
                y = measure(blocks.noise[:, ti])
                adj = spec.adjacency(t, blocks.graph_u[:, ti]).astype(float)
                deg = np.repeat(adj.sum(axis=-1)[..., None], dim, axis=-1)
                # s - beta * (deg * s - adj @ s) + alpha * innovation, in place; the
                # innovation buffer holds adj @ s until the innovation overwrites it
                np.multiply(deg, s, out=consensus)
                consensus -= np.matmul(adj, s, out=innovation)
                consensus *= np.array([cfgs[k].beta(t) for k in live])[:, None, None, None]
                if all_scalar:
                    np.einsum("krnl,nl->krn", s, h_rows, out=resid)
                    np.subtract(y, resid, out=resid)
                    # broadcasting along the last axis is slow: spell the (..., L) operand out
                    innovation[...] = resid[..., None]
                    innovation *= g_rows[:, None]
                else:
                    for i, sl in enumerate(slices):
                        resid_i = y[:, sl] - s[:, :, i, :] @ model.agents[i].H.T
                        innovation[:, :, i, :] = resid_i @ g_fold[i].transpose(0, 2, 1)
                innovation *= np.array([cfgs[k].alpha(t) for k in live])[:, None, None, None]
                s -= consensus
                s += innovation
                if single or t + 1 == horizon:
                    for k, s_k in zip(live, s):
                        err = s_k - theta
                        err_sq = (err * err).sum(axis=-1).mean(axis=-1)
                        if single:
                            netavg[:, t + 1] = err_sq
                        if t + 1 == horizon:
                            final[:, k] = err_sq
            finite = np.isfinite(s).all(axis=(1, 2, 3))
            if not finite.all():
                if single:
                    raise NonFiniteMetric("consensus+innovations trajectory diverged")
                diverged[live[~finite]] = True
                live, s = live[finite], s[finite]
                g_fold = [g[finite] for g in g_fold]
                if all_scalar:
                    g_rows = g_rows[finite]
    final[:, diverged] = np.inf
    if single:
        return CiTrials(theta=theta.copy(), trials=R, horizon=horizon, netavg_sq_err=netavg)
    return CiGridTrials(trials=R, horizon=horizon, final_sq_err=final, diverged=diverged)


def run_chain_trials(
    spec: GraphSpec,
    rule: TransitionRule,
    start_node: int,
    horizon: int,
    trials: int,
    master_seed: SeedLike = 0,
) -> ChainTrials:
    """Token-motion-only trials for visitation tail statistics."""
    n, R = spec.n, trials
    holder = np.full(R, int(start_node))
    visited = np.zeros((R, n), dtype=bool)
    size = horizon + 1
    nonvisit = np.zeros((size, n))
    gap = np.zeros(size)
    ar = np.arange(R)
    blocks = _TrialBlocks(R, master_seed, None, spec)
    for t0, length in blocks.chunks(size):
        path, holder = _walk(spec, rule, blocks, t0, length, holder)
        for ti in range(length):
            visited[ar, path[:, ti]] = True
            nonvisit[t0 + ti] = 1.0 - visited.mean(axis=0)
            gap[t0 + ti] = 1.0 - visited.all(axis=1).mean()
    return ChainTrials(trials=R, horizon=horizon, n=n, nonvisit_frac=nonvisit, gap_frac=gap)
