"""Vectorized multi-trial simulation (internal support for the harness).

All trials advance in lockstep, chunk by chunk, but each trial draws from its
own three streams (noise, graph, move) with exactly the same consumption
pattern as the single-episode path.  A batched trial is therefore replayable
standalone via ``run_episode(seed=trial_seed(master, r))``.

In the token engine only two things step tick by tick: the walk, which fixes
the chunk's holder path, and the running means ``ybar`` of every trial's
stacked measurements.  Everything else is computed once per chunk from those
two.  Since agent ``p``'s statistic is ``x_p = W_p ybar_p``, the payload is
``d = W ybar_seen``, where ``ybar_seen`` holds each agent's means as of its
latest visit.  The estimate is solved in the eigenbasis of ``K``, which
changes only on first visits.
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

CHUNK_TICKS = 64


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
        """Stacked measurements from raw noise of shape (..., m), for example a chunk's."""
        if self.all_scalar:
            return self.h_theta + z * self.scale
        return self.h_theta + z @ self.chol_block.T


class _RunningMeans:
    """Every trial's running means of its stacked measurements, kept for each tick of a chunk.

    ``advance`` folds one loaded chunk into the means with the one per-tick
    recursion ``ybar += (y - ybar) / (t + 1)`` and returns the chunk's
    (length, trials, m) stack, whose row ``ti`` holds the means after tick
    ``t0 + ti``.  Row 0 of the buffer carries the means over from the
    previous chunk.
    """

    def __init__(self, model: GlobalModel, trials: int) -> None:
        self.measure = _MeasurementMap(model)
        self.ticks = np.zeros((CHUNK_TICKS + 1, trials, model.total_measurements))
        self.filled = 0

    def advance(self, noise: np.ndarray, t0: int) -> np.ndarray:
        """Fold the (trials, length, m) noise of the chunk starting at ``t0``; return its means."""
        length = noise.shape[1]
        y = self.measure(noise)
        ticks = self.ticks
        ticks[0] = ticks[self.filled]
        self.filled = length
        for ti in range(length):
            prev, cur = ticks[ti], ticks[ti + 1]
            np.subtract(y[:, ti], prev, out=cur)
            cur /= t0 + ti + 1
            cur += prev
        return ticks[1 : length + 1]


class _CentralOracle:
    """The centralized estimate on every trial's running means, solved once per chunk."""

    def __init__(self, model: GlobalModel, trials: int, horizon: int) -> None:
        self.solve = central_solver(model)
        self.w_full = np.hstack([a.W for a in model.agents])
        self.result = CentralTrials(
            theta=model.theta.copy(),
            trials=trials,
            horizon=horizon,
            sq_err=np.zeros((trials, horizon + 1)),
        )

    def score(self, means: np.ndarray, t0: int) -> None:
        """Solve the (ticks, trials, m) running means of the ticks from ``t0``; record errors."""
        err = self.solve(means @ self.w_full.T) - self.result.theta
        self.result.sq_err[:, t0 : t0 + len(means)] = (err * err).sum(axis=-1).T


def _walk(
    spec: GraphSpec, rule: TransitionRule, blocks: _TrialBlocks, t0: int, length: int,
    pos: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Step every trial's holder through one loaded chunk.

    Returns the chunk's (length, trials) path, whose row ``ti`` holds each
    trial's holder at tick ``t0 + ti``, and the holders after the chunk's
    last step.  The path depends only on the graph and move streams.
    """
    R, n = len(pos), spec.n
    ar = np.arange(R)
    path = np.empty((length, R), dtype=np.int64)
    for ti in range(length):
        path[ti] = pos
        rows = np.broadcast_to(spec.adjacency(t0 + ti, blocks.graph_u[:, ti]), (R, n, n))[ar, pos]
        pos = bulk_step(pos, rows, rule, blocks.move_u[:, ti])
    return path, pos


class _TokenPayload:
    """Every trial's token payload and estimate, computed a chunk at a time from the path.

    ``last[ti, r, p]`` is one plus the latest chunk tick at or before ``ti``
    at which node ``p`` held trial ``r``'s token, or 0 if ``p`` has not held
    it in this chunk; the payload and last-seen errors are gathered there.
    Each trial keeps one ``K`` per visited count, in first-visit order, each
    eigendecomposed once.  Between chunks the object carries each agent's
    last-seen means and error and each trial's visited set.
    """

    def __init__(self, model: GlobalModel, trials: int) -> None:
        n, dim, R = model.n_agents, model.dim, trials
        self.theta = model.theta
        self.w_full = np.hstack([a.W for a in model.agents])
        self.b_stack = np.stack([a.B for a in model.agents])
        self.col_agent = np.repeat(np.arange(n), [a.n_measurements for a in model.agents])
        # K after trial r's c-th first visit (c = 0..n) sits in slot r * (n + 1) + c, as does
        # its eigendecomposition; c = 0 is never read, as the start node holds at tick 0
        self.k_ver = np.zeros((R * (n + 1), dim, dim))
        self.lam = np.zeros((R * (n + 1), dim))
        self.vec = np.zeros((R * (n + 1), dim, dim))
        self.seen_means = np.zeros((R, model.total_measurements))
        self.visited = np.zeros((R, n), dtype=bool)
        self.err_seen = np.zeros((R, n))  # 0 until visited, so a plain sum covers the visited

    def advance(
        self, path: np.ndarray, ybar: np.ndarray, t0: int, schedule: AlphaSchedule,
        last_seen: bool,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """One chunk's (length, trials) squared errors, visited counts and last-seen means.

        ``path`` and ``ybar`` are the chunk's holders and running means from
        tick ``t0``.  The last-seen means are None unless ``last_seen``.
        Raises SolveFailed at the first tick whose estimate residual exceeds
        ``ESTIMATE_RTOL``.  Each step's chunk-sized temporaries die with its
        helper, which keeps the peak memory at about one step's worth.
        """
        length, n = len(path), len(self.b_stack)
        ticks = np.arange(1, length + 1)[:, None, None]
        last = np.where(path[:, :, None] == np.arange(n), ticks, 0)
        np.maximum.accumulate(last, axis=0, out=last)
        held = last > 0
        seen = held | self.visited
        counts = seen.sum(axis=-1)
        self._add_versions(path, counts)
        err = self._estimate(self._payload(last, ybar), counts, t0, schedule) - self.theta
        sq = np.einsum("tri,tri->tr", err, err)
        mean_seen = self._last_seen(last, held, sq, counts) if last_seen else None
        self.visited[...] = seen[-1]
        return sq, counts, mean_seen

    def _add_versions(self, path: np.ndarray, counts: np.ndarray) -> None:
        """Append a K version at each first visit: the holder's B plus the trial's previous K."""
        before = np.vstack([self.visited.sum(axis=-1), counts[:-1]])
        ti_new, r_new = np.nonzero(counts > before)
        if not r_new.size:
            return
        c_new, node_new = counts[ti_new, r_new], path[ti_new, r_new]
        slot = r_new * (len(self.b_stack) + 1) + c_new
        for c in range(c_new.min(), c_new.max() + 1):
            at = slot[c_new == c]
            self.k_ver[at] = self.k_ver[at - 1] + self.b_stack[node_new[c_new == c]]
        lam, self.vec[slot] = np.linalg.eigh(self.k_ver[slot])
        self.lam[slot] = np.maximum(lam, 0.0)  # K is semidefinite: drop roundoff below 0

    def _payload(self, last: np.ndarray, ybar: np.ndarray) -> np.ndarray:
        """The (length, trials, L) payloads ``d = W ybar_seen``; carries the last-seen means.

        Block 0 of ``means`` holds the earlier chunks' last-seen means.  A
        gather by ``np.take`` on flat indices is several times faster than
        fancy indexing.
        """
        R, m = ybar.shape[1:]
        means = np.concatenate([self.seen_means[None], ybar])
        at = np.take(last, self.col_agent, axis=-1)
        at *= R * m
        at += np.arange(R)[:, None] * m + np.arange(m)
        y_seen = np.take(means, at)
        self.seen_means[...] = y_seen[-1]
        return y_seen @ self.w_full.T

    def _estimate(
        self, d: np.ndarray, counts: np.ndarray, t0: int, schedule: AlphaSchedule
    ) -> np.ndarray:
        """``s = V diag(1 / (lam + 1/alpha)) V^T d`` in each tick's K version, residual-checked.

        The guard evaluates ``|(K + I/alpha) s - d| / |d|`` on K itself.
        """
        length, R = counts.shape
        alpha = np.array([schedule.alpha(t) for t in range(t0, t0 + length)])
        inv_alpha = 1.0 / alpha[:, None, None]
        version = np.arange(R) * (len(self.b_stack) + 1) + counts
        v = np.take(self.vec, version, axis=0)
        s = np.einsum("trji,trj->tri", v, d) / (np.take(self.lam, version, axis=0) + inv_alpha)
        s = np.einsum("trij,trj->tri", v, s)

        k = np.take(self.k_ver, version, axis=0)
        resid = np.einsum("trij,trj->tri", k, s) + s * inv_alpha - d
        scale = np.maximum(np.sqrt(np.einsum("tri,tri->tr", d, d)), 1e-300)
        worst = (np.sqrt(np.einsum("tri,tri->tr", resid, resid)) / scale).max(axis=1)
        bad = np.flatnonzero(worst > ESTIMATE_RTOL)
        if bad.size:
            ti = bad[0]
            raise SolveFailed(f"estimate solve residual {worst[ti]:.3e} at t={t0 + ti}")
        return s

    def _last_seen(
        self, last: np.ndarray, held: np.ndarray, sq: np.ndarray, counts: np.ndarray
    ) -> np.ndarray:
        """Mean over visited agents of the squared error at each one's latest visit."""
        R = sq.shape[1]
        at = last * R + np.arange(R)[:, None]
        errs = np.where(held, np.take(np.concatenate([np.zeros((1, R)), sq]), at), self.err_seen)
        self.err_seen[...] = errs[-1]
        return np.einsum("trp->tr", errs) / counts


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
    """Run many token episodes in lockstep; see ``token.run_episode`` for semantics.

    Only the walk and the running means step tick by tick; the payload, the
    estimates and the records are computed once per chunk (``_TokenPayload``).
    """
    blocks = _TrialBlocks(trials, master_seed, model, spec)
    R = trials
    means = _RunningMeans(model, R)
    payload = _TokenPayload(model, R)
    holder = np.full(R, int(start_node))

    size = horizon + 1
    sq_err = np.zeros((R, size)) if "sq_err" in record else None
    last_seen = np.zeros((R, size)) if "last_seen" in record else None
    visit_counts = np.zeros((R, size), dtype=np.int16) if "visited" in record else None
    oracle = _CentralOracle(model, R, horizon) if include_central else None
    holder0 = np.zeros(size, dtype=np.int64)

    for t0, length in blocks.chunks(size):
        span = slice(t0, t0 + length)
        path, holder = _walk(spec, rule, blocks, t0, length, holder)
        holder0[span] = path[:, 0]
        ybar = means.advance(blocks.noise, t0)
        if oracle is not None:
            oracle.score(ybar, t0)
        sq, counts, mean_seen = payload.advance(path, ybar, t0, schedule, last_seen is not None)
        if sq_err is not None:
            sq_err[:, span] = sq.T
        if visit_counts is not None:
            visit_counts[:, span] = counts.T
        if last_seen is not None:
            last_seen[:, span] = mean_seen.T

    return TokenTrials(
        theta=model.theta.copy(),
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
    means = _RunningMeans(model, trials)
    oracle = _CentralOracle(model, trials, horizon)
    for t0, _ in blocks.chunks(horizon + 1):
        oracle.score(means.advance(blocks.noise, t0), t0)
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
            visited[ar, path[ti]] = True
            nonvisit[t0 + ti] = 1.0 - visited.mean(axis=0)
            gap[t0 + ti] = 1.0 - visited.all(axis=1).mean()
    return ChainTrials(trials=R, horizon=horizon, n=n, nonvisit_frac=nonvisit, gap_frac=gap)
