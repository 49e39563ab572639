"""Vectorized multi-trial simulation (internal support for the harness).

All trials advance in lockstep so per-tick work is a handful of array
operations, but each trial draws from its own three streams (noise, graph,
move) with exactly the same consumption pattern as the single-episode path.
A batched trial is therefore replayable standalone via
``run_episode(seed=trial_seed(master, r))``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._streams import SeedLike, trial_seed_for
from .baseline import CiConfig
from .chain import TransitionRule, bulk_step
from .errors import NonFiniteMetric, SolveFailed
from .graphs import GraphSpec, StaticGraph
from .observation import GlobalModel, central_solver
from .token import AlphaSchedule

CHUNK_TICKS = 256
_ESTIMATE_RTOL = 1e-8
_CENTRAL_RTOL = 1e-10


@dataclass(eq=False)
class TokenTrials:
    theta: np.ndarray
    trials: int
    horizon: int
    sq_err: np.ndarray | None = None
    last_seen_mean_sq: np.ndarray | None = None
    visited_count: np.ndarray | None = None
    central_sq_err: np.ndarray | None = None
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
    diverged: bool = False


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
    so a chunk holds one copy of its draws.
    """

    def __init__(
        self,
        trials: int,
        master_seed: SeedLike,
        model: GlobalModel | None,
        spec: GraphSpec,
        need_move: bool,
    ) -> None:
        self.trials = trials
        self.model = model
        self.spec = spec
        self.need_move = need_move
        self.noise_gens, self.graph_gens, self.move_gens = [], [], []
        for r in range(trials):
            noise, graph, move = trial_seed_for(master_seed, r).spawn(3)
            self.noise_gens.append(np.random.default_rng(noise))
            self.graph_gens.append(np.random.default_rng(graph))
            self.move_gens.append(np.random.default_rng(move))
        self._buffers: dict[str, np.ndarray] = {}
        self.noise: np.ndarray | None = None
        self.graph_u: np.ndarray | None = None
        self.move_u: np.ndarray | None = None

    def load(self, length: int) -> None:
        """Draw the next ``length`` ticks of every trial's streams."""
        model, spec = self.model, self.spec
        self.noise = None
        if model is not None and model.noise != "zero":
            self.noise = self._buffer("noise", length, (model.total_measurements,))
            for g, row in zip(self.noise_gens, self.noise):
                if model.noise == "gaussian":
                    g.standard_normal(out=row)
                else:
                    draw = np.asarray(model.noise(g, row.shape), dtype=float)
                    if draw.shape != row.shape:
                        raise ValueError(f"noise sampler gave shape {draw.shape}, not {row.shape}")
                    row[...] = draw
        self.graph_u = self._buffer("graph", length, (spec.draws,))
        if spec.draws:
            for g, row in zip(self.graph_gens, self.graph_u):
                g.random(out=row)
        if self.need_move:
            self.move_u = self._buffer("move", length, ())
            for g, row in zip(self.move_gens, self.move_u):
                g.random(out=row)

    def _buffer(self, name: str, length: int, width: tuple[int, ...]) -> np.ndarray:
        """A (trials, length, *width) view of a buffer that later chunks reuse."""
        buf = self._buffers.get(name)
        if buf is None or buf.shape[1] < length:
            buf = self._buffers[name] = np.empty((self.trials, length, *width))
        return buf[:, :length]

    def adjacency(self, ti: int, t: int) -> np.ndarray:
        """Realized adjacency at tick ``t`` (offset ``ti`` in the loaded chunk).

        Shape (trials, n, n), or the shared (n, n) frame when the process draws nothing.
        """
        return self.spec.adjacency(t, self.graph_u[:, ti])


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

    def __call__(self, blocks: _TrialBlocks, ti: int, trials: int) -> np.ndarray:
        if blocks.noise is None:
            return np.broadcast_to(self.h_theta, (trials, self.h_theta.size)).copy()
        z = blocks.noise[:, ti, :]
        if self.all_scalar:
            return self.h_theta + z * self.scale
        return self.h_theta + z @ self.chol_block.T


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
    chunk: int = CHUNK_TICKS,
) -> TokenTrials:
    """Run many token episodes in lockstep; see ``token.run_episode`` for semantics."""
    if spec.n != model.n_agents:
        raise ValueError(f"graph has {spec.n} nodes but model has {model.n_agents} agents")
    n, dim, R = model.n_agents, model.dim, trials
    theta = model.theta
    theta_sq = float(theta @ theta)
    measure = _MeasurementMap(model)
    all_scalar = measure.all_scalar
    w_rows = np.stack([a.W[:, 0] for a in model.agents]) if all_scalar else None
    w_full = np.hstack([a.W for a in model.agents])
    b_stack = np.stack([a.B for a in model.agents])
    slices = model.measurement_slices()
    eye = np.eye(dim)

    x = np.zeros((R, n, dim))
    snap = np.zeros((R, n, dim))
    d = np.zeros((R, dim))
    k_mat = np.zeros((R, dim, dim))
    visited = np.zeros((R, n), dtype=bool)
    pos = np.full(R, int(start_node))
    last_seen_err = np.full((R, n), theta_sq)
    ar = np.arange(R)

    size = horizon + 1
    sq_err = np.zeros((R, size)) if "sq_err" in record else None
    last_seen = np.zeros((R, size)) if "last_seen" in record else None
    visit_counts = np.zeros((R, size), dtype=np.int16) if "visited" in record else None
    central_sq = np.zeros((R, size)) if include_central else None
    holder0 = np.zeros(size, dtype=np.int64)
    if include_central:
        solve_central = central_solver(model.agents)
        sigma_c = model.sigma_c
        ybar = np.zeros((R, model.total_measurements))

    blocks = _TrialBlocks(R, master_seed, model, spec, need_move=True)
    for t0 in range(0, size, chunk):
        length = min(chunk, size - t0)
        blocks.load(length)
        for ti in range(length):
            t = t0 + ti
            y = measure(blocks, ti, R)
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
            if worst > _ESTIMATE_RTOL:
                raise SolveFailed(f"estimate solve residual {worst:.3e} at t={t}")

            err = s - theta
            sq = (err * err).sum(axis=1)
            last_seen_err[ar, pos] = sq
            holder0[t] = pos[0]
            if sq_err is not None:
                sq_err[:, t] = sq
            if last_seen is not None:
                last_seen[:, t] = (last_seen_err * visited).sum(axis=1) / visited.sum(axis=1)
            if visit_counts is not None:
                visit_counts[:, t] = visited.sum(axis=1)
            if include_central:
                ybar += (y - ybar) / (t + 1)
                rhs = ybar @ w_full.T
                c_est = solve_central(rhs)
                c_res = np.linalg.norm(rhs - c_est @ sigma_c, axis=1)
                c_scale = np.maximum(np.linalg.norm(rhs, axis=1), 1e-300)
                if (c_res / c_scale).max() > _CENTRAL_RTOL:
                    raise SolveFailed(f"oracle solve residual at t={t}")
                c_err = c_est - theta
                central_sq[:, t] = (c_err * c_err).sum(axis=1)

            rows = np.broadcast_to(blocks.adjacency(ti, t), (R, n, n))[ar, pos]
            pos = bulk_step(pos, rows, rule, blocks.move_u[:, ti])

    return TokenTrials(
        theta=theta.copy(),
        trials=R,
        horizon=horizon,
        sq_err=sq_err,
        last_seen_mean_sq=last_seen,
        visited_count=visit_counts,
        central_sq_err=central_sq,
        holder_trial0=holder0,
    )


def run_central_trials(
    model: GlobalModel,
    horizon: int,
    trials: int,
    master_seed: SeedLike = 0,
    chunk: int = CHUNK_TICKS,
) -> CentralTrials:
    """Oracle-only runs: per-tick squared error of the centralized estimate."""
    R = trials
    theta = model.theta
    spec = StaticGraph(np.zeros((model.n_agents, model.n_agents), dtype=bool))
    blocks = _TrialBlocks(R, master_seed, model, spec, need_move=False)
    measure = _MeasurementMap(model)
    solve_central = central_solver(model.agents)
    w_full = np.hstack([a.W for a in model.agents])
    ybar = np.zeros((R, model.total_measurements))
    size = horizon + 1
    sq = np.zeros((R, size))
    for t0 in range(0, size, chunk):
        length = min(chunk, size - t0)
        blocks.load(length)
        for ti in range(length):
            t = t0 + ti
            y = measure(blocks, ti, R)
            ybar += (y - ybar) / (t + 1)
            c_est = solve_central(ybar @ w_full.T)
            c_err = c_est - theta
            sq[:, t] = (c_err * c_err).sum(axis=1)
    return CentralTrials(theta=theta.copy(), trials=R, horizon=horizon, sq_err=sq)


def run_ci_trials(
    model: GlobalModel,
    spec: GraphSpec,
    cfg: CiConfig | Sequence[CiConfig],
    horizon: int,
    trials: int,
    master_seed: SeedLike = 0,
    raise_on_nonfinite: bool = True,
    chunk: int = CHUNK_TICKS,
) -> CiTrials | CiGridTrials:
    """Run many consensus+innovations trajectories in lockstep.

    Uses the same per-trial noise and graph streams as ``run_token_trials``
    (final-tick draws included even though unused), so token-vs-baseline
    comparisons are paired draw for draw.

    One ``CiConfig`` records every tick (``CiTrials``).  A sequence of K
    configs runs all of them in one pass over a (K, trials, n, L) state that
    shares the draws, the measurements and the adjacency of each tick, and
    keeps only the error at the horizon (``CiGridTrials``), so memory does not
    grow with the horizon.  Every candidate's values equal those of its own
    single-config run bit for bit.
    """
    if spec.n != model.n_agents:
        raise ValueError(f"graph has {spec.n} nodes but model has {model.n_agents} agents")
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

    blocks = _TrialBlocks(R, master_seed, model, spec, need_move=False)
    with np.errstate(over="ignore", invalid="ignore"):
        for t0 in range(0, size, chunk):
            length = min(chunk, size - t0)
            blocks.load(length)
            if not live.size:
                continue
            consensus, innovation = np.empty_like(s), np.empty_like(s)
            resid = np.empty(s.shape[:3])
            for ti in range(min(length, horizon - t0)):
                t = t0 + ti
                y = measure(blocks, ti, R)
                adj = blocks.adjacency(ti, t).astype(float)
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
                if raise_on_nonfinite:
                    raise NonFiniteMetric("consensus+innovations trajectory diverged")
                diverged[live[~finite]] = True
                live, s = live[finite], s[finite]
                g_fold = [g[finite] for g in g_fold]
                if all_scalar:
                    g_rows = g_rows[finite]
    final[:, diverged] = np.inf
    if not single:
        return CiGridTrials(trials=R, horizon=horizon, final_sq_err=final, diverged=diverged)
    if diverged[0]:
        bad_cols = np.flatnonzero(~np.isfinite(netavg).all(axis=0))
        first_bad = int(bad_cols[0]) if bad_cols.size else size
        netavg[:, first_bad:] = np.inf
    return CiTrials(
        theta=theta.copy(),
        trials=R,
        horizon=horizon,
        netavg_sq_err=netavg,
        diverged=bool(diverged[0]),
    )


def run_chain_trials(
    spec: GraphSpec,
    rule: TransitionRule,
    start_node: int,
    horizon: int,
    trials: int,
    master_seed: SeedLike = 0,
    chunk: int = CHUNK_TICKS,
) -> ChainTrials:
    """Token-motion-only trials for visitation tail statistics."""
    n, R = spec.n, trials
    pos = np.full(R, int(start_node))
    visited = np.zeros((R, n), dtype=bool)
    size = horizon + 1
    nonvisit = np.zeros((size, n))
    gap = np.zeros(size)
    ar = np.arange(R)
    blocks = _TrialBlocks(R, master_seed, None, spec, need_move=True)
    for t0 in range(0, size, chunk):
        length = min(chunk, size - t0)
        blocks.load(length)
        for ti in range(length):
            t = t0 + ti
            visited[ar, pos] = True
            nonvisit[t] = 1.0 - visited.mean(axis=0)
            gap[t] = 1.0 - visited.all(axis=1).mean()
            if t == horizon:
                break
            rows = np.broadcast_to(blocks.adjacency(ti, t), (R, n, n))[ar, pos]
            pos = bulk_step(pos, rows, rule, blocks.move_u[:, ti])
    return ChainTrials(trials=R, horizon=horizon, n=n, nonvisit_frac=nonvisit, gap_frac=gap)
