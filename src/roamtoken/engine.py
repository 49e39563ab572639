"""Vectorized multi-trial simulation (internal support for the harness).

All trials advance in lockstep, chunk by chunk, but each trial draws from its
own three streams (noise, graph, move) with exactly the same consumption
pattern as the single-episode path.  A batched trial is therefore replayable
standalone via ``run_episode(seed=trial_seed(master, r))``.

This module holds the engines' entry points, the walk and the oracle.  The
token chunk's kernels (running means, payload and estimate) are in
``_kernels``; the trial blocks, the series ring and the forked workers that
every engine runs on are in ``_sharding``.  The oracle is scored inside the
token engine: its estimates are one matmul of the running means by a gain
matrix solved once per run (``observation.central_solver``).  The walk and the
oracle look up ``bulk_step`` and ``central_solver`` in this module's globals at
call time, where perfbench's traced pass wraps them.

The walk (``_walk``, shared with the chain engine) steps on compact,
CSR-style out-rows (``_OutRows``): a node's columns are its possible
out-neighbours and itself.  A static graph's rows and cumulative transition
weights are computed once per worker; an i.i.d. graph's holders read their
out-edge uniforms from one contiguous slice of each tick's draws; a sequence
reads its frame at the compact columns.  No tick builds an (R, n, n)
adjacency, and one step costs O(out-degree) per trial.  The walk checks its
moves once per chunk, not once per tick: each drawn column must be an edge
that was up at its tick or the holder's own, a sanctioned hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ._kernels import _MeasurementMap, _RunningMeans, _TokenPayload
from ._sharding import CHUNK_TICKS, Reader, _TrialBlocks, _sharded
from ._streams import SeedLike
from .baseline import CiConfig
from .chain import TransitionRule, bulk_step, transition_rows
from .errors import NonFiniteMetric
from .graphs import DeterministicSequence, GraphSpec, check_run
from .observation import GlobalModel, central_solver
from .token import AlphaSchedule, EpisodeTrace


class TickStats:
    """Per-tick mean and sample standard deviation over trials of one series.

    A ring reader.  Each chunk's rows are reduced over all trials in trial
    order, so every column of ``mean`` and ``std`` equals the whole (trials,
    ticks) array's ``mean(axis=0)`` and ``std(axis=0, ddof=1)`` bit for bit;
    tick-major slots or sums of per-block partial sums would differ in the
    last bits.  The std stays 0 for a single trial.  It takes numpy's
    ``_var`` steps from the mean in a (trials, CHUNK_TICKS) ``scratch`` that
    readers may share.
    """

    def __init__(self, trials: int, size: int, scratch: np.ndarray | None = None) -> None:
        self.trials = trials
        self.mean, self.std = np.zeros(size), np.zeros(size)
        self.scratch = np.empty((trials, CHUNK_TICKS)) if scratch is None else scratch

    def __call__(self, rows: np.ndarray, t0: int) -> None:
        span = slice(t0, t0 + rows.shape[1])
        mean = np.mean(rows, axis=0, out=self.mean[span])
        if self.trials >= 2:
            d, std = self.scratch[:, : rows.shape[1]], self.std[span]  # d: the deviations
            np.square(np.subtract(rows, mean, out=d), out=d)
            np.add.reduce(d, axis=0, out=std)
            std /= self.trials - 1
            np.sqrt(std, out=std)


@dataclass(eq=False)
class Trials:
    """What a token run returns; its series went to the readers."""

    trials: int
    horizon: int
    trial0: EpisodeTrace


@dataclass(eq=False)
class CiTrials:
    """What a pass over K gain candidates returns: of the per-tick errors, only the horizon's."""

    trials: int
    horizon: int
    final_sq_err: np.ndarray  # (trials, K) network-average squared error at the horizon
    diverged: np.ndarray  # (K,) bool: an error at the horizon was not finite; its errors are inf


@dataclass(eq=False)
class ChainTrials:
    trials: int
    horizon: int
    nonvisit_frac: np.ndarray
    gap_frac: np.ndarray


class _CentralOracle:
    """The centralized estimate on every trial's running means, a chunk at a time."""

    def __init__(self, model: GlobalModel) -> None:
        self.estimate = central_solver(model)
        self.theta, self.ones = model.theta, np.ones(model.dim)

    def score(self, means: np.ndarray, blocks: _TrialBlocks) -> np.ndarray:
        """The (ticks, trials) squared errors of the estimates on (ticks, trials, m) running means."""
        err = self.estimate(means)
        for i, value in enumerate(self.theta):  # broadcasting along the last axis is slow
            err[..., i] -= value
        sq = blocks.buffer("central", means.shape[:2])
        return np.matmul(np.square(err, out=err), self.ones, out=sq)


class _OutRows:
    """Compact, CSR-style out-rows of a graph process under one rule.

    Node ``p``'s columns are, in increasing order, the nodes it can reach in
    one step (its out-neighbours in the support, the backbone or the union of
    a sequence's frames, and ``p`` itself), then non-neighbours as padding up
    to the largest out-degree plus one.  Column ``c`` of ``p`` is node
    ``cols[p * width + c]``; ``own[p]`` is ``p``'s own.  A static graph's rows
    and cumulative transition weights, like those of an i.i.d. graph without
    edges, are fixed here.  On an i.i.d. graph with edges,
    column ``c`` is up where the tick's uniform ``slot[p, c]`` is below
    ``keep[p, c]``, which is 0 off the backbone.  A sequence's rows are read
    from its frame at ``at_frame``.
    """

    def __init__(self, spec: GraphSpec, rule: TransitionRule) -> None:
        self.spec, self.rule, self.draws = spec, rule, spec.draws
        n = spec.n
        node = np.arange(n)[:, None]
        if isinstance(spec, DeterministicSequence):
            support = np.logical_or.reduce(spec.frames)
        else:
            support = spec.backbone
        reach = support | np.eye(n, dtype=bool)
        self.width = int(reach.sum(axis=1).max())
        cols = np.argsort(~reach, axis=1, kind="stable")[:, : self.width]
        self.cols = cols.ravel()
        self.own = np.argmax(cols == node, axis=1)
        # the own column lands on the frame's zero diagonal, padding off the support
        self.at_frame = node * n + cols
        self.rows = self.cum = None
        if spec.draws:  # i.i.d. failures
            edge = np.zeros((n, n), dtype=np.int64)
            edge[spec.edges[:, 0], spec.edges[:, 1]] = np.arange(spec.draws)
            self.slot = np.take(edge, self.at_frame)
            self.keep = np.where(np.take(support, self.at_frame), 1.0 - spec.p_fail, 0.0)
        elif not isinstance(spec, DeterministicSequence):  # the backbone at every tick
            self.rows = np.take(spec.backbone, self.at_frame)
            self.cum = np.cumsum(transition_rows(rule, self.rows, self.own), axis=1)


def _walk(
    out: _OutRows, blocks: _TrialBlocks, t0: int, length: int, pos: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Step every trial's holder through one loaded chunk on compact out-rows.

    Returns the chunk's (length, trials) path, in a buffer the next chunk
    reuses, whose row ``ti`` holds each trial's holder at tick ``t0 + ti``,
    and the holders after the last step.  The path depends only on the graph
    and move streams.  Each tick gathers the holders' rows (on an i.i.d.
    graph, their slots of the chunk's uniforms, by one flat ``np.take``) and
    own columns into the chunk's buffers, steps them through ``bulk_step``
    and maps each drawn column to a node.  After the chunk, one pass checks
    that every drawn column was an edge up at its tick or the holder's own
    column, a sanctioned hold; the first step that was neither, by tick and
    then trial, raises RuntimeError.
    """
    R, width = len(pos), out.width
    index = np.min_scalar_type(width)  # the narrowest type that holds a column index
    path = blocks.buffer("path", (length, R), np.int64)
    rows = blocks.buffer("rows", (length, R, width), bool)
    own = blocks.buffer("own", (length, R), index)
    col = blocks.buffer("col", (length, R), index)
    if out.draws:  # trial r's uniform e at chunk tick ti is at (r * length + ti) * draws + e
        uniforms = blocks.graph_u.reshape(-1)
        start = (np.arange(R) * (length * out.draws))[:, None]
    cum = None
    for ti in range(length):
        # a take into ``out=`` copies its result first unless out-of-range indices wrap or
        # clip; assigning the returned rows is faster
        path[ti], own[ti] = pos, out.own.take(pos)
        if out.cum is not None:
            rows[ti], cum = out.rows.take(pos, axis=0), out.cum.take(pos, axis=0)
        elif out.draws:
            at = out.slot.take(pos, axis=0)
            at += start + ti * out.draws
            np.less(uniforms.take(at), out.keep.take(pos, axis=0), out=rows[ti])
        else:
            frame = out.spec.adjacency(t0 + ti, None)
            rows[ti] = frame.take(out.at_frame.take(pos, axis=0))
        col[ti] = bulk_step(own[ti], rows[ti], out.rule, blocks.move_u[:, ti], cum)
        pos = out.cols.take(pos * width + col[ti])
    # each step's drawn column, flat in ``rows``: (ti * R + r) * width + col, in range; an
    # intp index, since ``np.take`` copies an index of any other type into an intp temporary
    at = np.add(
        np.arange(0, length * R * width, R * width)[:, None], np.arange(0, R * width, width),
        out=blocks.buffer("step", (length, R), np.int64),
    )
    at += col
    moved = blocks.buffer("moved", (length, R), bool)
    np.take(rows.reshape(-1), at, out=moved, mode="clip")
    moved |= np.equal(col, own, out=blocks.buffer("held", (length, R), bool))
    if not moved.all():
        ti, r = np.unravel_index(np.argmin(moved), moved.shape)
        exc = RuntimeError(
            f"token jumped a nonexistent edge at t={t0 + ti} in trial {blocks.first + r}"
        )
        exc.tick = t0 + int(ti)  # where the serial loop meets it, for ``_serial_order``
        raise exc
    return path, pos


def _series(
    readers: Mapping[str, Reader] | None, dtypes: Mapping[str, type]
) -> dict[str, tuple[type, Reader]]:
    """Each series that ``readers`` reads, with its dtype among the run's ``dtypes``, and reader."""
    readers = readers or {}
    for k in readers:
        if k not in dtypes:
            raise ValueError(f"no series {k!r} in this run; it makes {sorted(dtypes)}")
    return {k: (dtypes[k], reader) for k, reader in readers.items()}


def run_token_trials(
    model: GlobalModel,
    spec: GraphSpec,
    rule: TransitionRule,
    schedule: AlphaSchedule,
    horizon: int,
    trials: int,
    start_node: int = 0,
    master_seed: SeedLike = 0,
    readers: Mapping[str, Reader] | None = None,
) -> Trials:
    """Run many token episodes in lockstep; see ``token.run_episode`` for semantics.

    Only the walk and the running means step tick by tick; the payload, the
    estimates and the series are computed once per chunk (``_TokenPayload``).
    The series are ``sq_err``, ``visited``, ``last_seen`` and the oracle's
    ``central``; ``readers`` maps those it wants to their readers, and the
    oracle is computed only for one.  ``trial0`` holds trial 0's trace.
    """
    check_run(spec, horizon, trials, start_node, model.n_agents)
    size = horizon + 1
    dtypes = {"sq_err": float, "visited": np.int64, "last_seen": float, "central": float}
    series = _series(readers, dtypes)
    oracle = _CentralOracle(model) if "central" in series else None
    trace = {"holder": np.int64, "visited": np.int64, "sq_err": float, "last_seen": float}

    def run(blocks: _TrialBlocks, trace0: dict[str, np.ndarray]) -> None:
        R = blocks.trials
        means = _RunningMeans(model, R)
        payload = _TokenPayload(model, blocks)
        holder = np.full(R, int(start_node))
        out_rows = _OutRows(spec, rule)
        for t0, length in blocks.chunks(size):
            path, holder = _walk(out_rows, blocks, t0, length, holder)
            stack = means.advance(blocks)
            values = {"holder": path}
            if oracle is not None:  # before the estimate, whose failure comes later
                values["central"] = oracle.score(stack[1:], blocks)
            sq, counts, mean_seen = payload.advance(path, stack, t0, schedule)
            values.update(sq_err=sq, visited=counts, last_seen=mean_seen)
            for key, rows in trace0.items():  # no rows but in trial 0's block
                rows[:, t0 : t0 + length] = values[key][:, : len(rows)].T
            blocks.series = values

    rows = {k: ((1, size), dtype) for k, dtype in trace.items()}  # trial 0's row alone
    trace0 = _sharded(trials, master_seed, model, spec, rows, run, series=series, ticks=size)
    trial0 = EpisodeTrace(
        horizon=horizon,
        holder=trace0["holder"][0],
        visited_count=trace0["visited"][0],
        token_sq_err=trace0["sq_err"][0],
        mean_last_seen_sq_err=trace0["last_seen"][0],
    )
    return Trials(trials, horizon, trial0)


def run_ci_trials(
    model: GlobalModel,
    spec: GraphSpec,
    cfgs: Sequence[CiConfig],
    horizon: int,
    trials: int,
    master_seed: SeedLike = 0,
    readers: Mapping[str, Reader] | None = None,
) -> CiTrials:
    """Run many consensus+innovations trajectories in lockstep.

    Uses the same per-trial noise and graph streams as ``run_token_trials``
    (final-tick draws included even though unused), so token-vs-baseline
    comparisons are paired draw for draw.

    The K gain candidates ``cfgs`` run in one pass over a (K, trials, n, L)
    state that shares the draws, the measurements and the adjacency of each
    tick.  Every candidate's values equal those of its own one-candidate run
    bit for bit.  A one-candidate run also makes the series ``netavg``, the
    network-average squared error at every tick, for its reader in
    ``readers``; a state that turns non-finite raises NonFiniteMetric at the
    end of its chunk if that series is read.  Otherwise every candidate steps
    to the horizon, and one whose error there is not finite in some trial is
    flagged as diverged, its errors inf in every trial.  A non-finite state
    stays non-finite, so no diverged candidate escapes the flag.
    """
    check_run(spec, horizon, trials, agents=model.n_agents)
    if not cfgs:
        raise ValueError("need at least one CiConfig")
    size = horizon + 1
    n, dim, K = model.n_agents, model.dim, len(cfgs)
    series = _series(readers, {"netavg": float} if K == 1 else {})
    theta = model.theta
    theta_sq = float(theta @ theta)
    measure = _MeasurementMap(model)
    all_scalar = all(a.n_measurements == 1 for a in model.agents)
    h_rows = np.stack([a.H[0] for a in model.agents]) if all_scalar else None
    w_rows = np.stack([a.W[:, 0] for a in model.agents]) if all_scalar else None
    slices = model.measurement_slices

    def net_err(state: np.ndarray) -> np.ndarray:
        """The network-average squared error of each (n, L) state in ``state``."""
        err = state - theta
        return (err * err).sum(axis=-1).mean(axis=-1)

    def run(blocks: _TrialBlocks, out: dict[str, np.ndarray]) -> None:
        R = blocks.trials
        s = np.zeros((K, R, n, dim))
        consensus, innovation, resid = np.empty_like(s), np.empty_like(s), np.empty(s.shape[:3])
        y, adj = np.empty((R, model.total_measurements)), np.empty((R, n, n))
        deg = np.empty((R, n, dim))
        if series:  # staged tick by tick, and handed over once the chunk is done
            netavg = blocks.series["netavg"] = blocks.buffer("netavg", (CHUNK_TICKS, R))
        with np.errstate(over="ignore", invalid="ignore"):
            for t0, length in blocks.chunks(size):
                ticks = range(t0, t0 + length)  # the chunk's gains
                gain = np.array([[(c.beta(t), c.alpha(t)) for c in cfgs] for t in ticks])
                beta, alpha = gain[:, :, 0, None, None, None], gain[:, :, 1, None, None, None]
                for ti in range(length):
                    t = t0 + ti
                    if series:  # the error at tick t, before the step to t + 1
                        netavg[ti] = theta_sq if t == 0 else net_err(s[0])
                    if t == horizon:
                        break
                    measure(blocks.noise[:, ti], out=y)
                    np.copyto(adj, spec.adjacency(t, blocks.graph_u[:, ti]))
                    deg[...] = adj.sum(axis=-1)[..., None]
                    # s - beta * (deg * s - adj @ s) + alpha * innovation, in place; the
                    # innovation buffer holds adj @ s until the innovation overwrites it
                    np.multiply(deg, s, out=consensus)
                    consensus -= np.matmul(adj, s, out=innovation)
                    consensus *= beta[ti]
                    if all_scalar:
                        np.einsum("krnl,nl->krn", s, h_rows, out=resid)
                        np.subtract(y, resid, out=resid)
                        # broadcasting along the last axis is slow: spell the (..., L) operand out
                        innovation[...] = resid[..., None]
                        innovation *= w_rows
                    else:
                        for i, (sl, agent) in enumerate(zip(slices, model.agents)):
                            resid_i = y[:, sl] - s[:, :, i, :] @ agent.H.T
                            innovation[:, :, i, :] = resid_i @ agent.W.T
                    innovation *= alpha[ti]
                    s -= consensus
                    s += innovation
                if series and not np.isfinite(s).all():
                    raise NonFiniteMetric("consensus+innovations trajectory diverged")
            out["final"][...] = net_err(s).T

    rows = {"final": ((trials, K), float)}
    out = _sharded(trials, master_seed, model, spec, rows, run, series=series, ticks=size)
    final = out["final"]
    diverged = ~np.isfinite(final).all(axis=0)  # not finite at the horizon in some trial
    final[:, diverged] = np.inf
    return CiTrials(trials=trials, horizon=horizon, final_sq_err=final, diverged=diverged)


def run_chain_trials(
    spec: GraphSpec,
    rule: TransitionRule,
    start_node: int,
    horizon: int,
    trials: int,
    master_seed: SeedLike = 0,
) -> ChainTrials:
    """Token-motion-only trials for visitation tail statistics.

    Each trial keeps a row ``first``: the tick at which it first held each
    node, or ``horizon + 1`` if it never did, taken chunk by chunk as the
    earlier of the carried tick and the chunk's first ``path == node``.  The
    parent counts, per tick, the trials that have held each node and those
    that have held every node (by the latest of a row's ticks).  The counts
    are exact, so the fractions do not depend on the worker count.
    """
    check_run(spec, horizon, trials, start_node)
    n, size = spec.n, horizon + 1

    def run(blocks: _TrialBlocks, out: dict[str, np.ndarray]) -> None:
        holder = np.full(blocks.trials, int(start_node))
        first = out["first"]
        first[...] = size
        out_rows = _OutRows(spec, rule)
        for t0, length in blocks.chunks(size):
            path, holder = _walk(out_rows, blocks, t0, length, holder)
            hit = path[:, :, None] == np.arange(n)
            np.minimum(first, np.where(hit.any(0), t0 + hit.argmax(0), size), out=first)

    rows = {"first": ((trials, n), np.int64)}
    first = _sharded(trials, master_seed, None, spec, rows, run)["first"]
    # the trials that have held node j by tick t: first-hold ticks counted per (tick, node)
    hits = np.bincount((first * n + np.arange(n)).ravel(), minlength=(size + 1) * n)
    seen = hits.reshape(size + 1, n)[:size].cumsum(axis=0)
    covered = np.bincount(first.max(axis=1), minlength=size + 1)[:size].cumsum()
    nonvisit = 1.0 - seen / trials
    gap = 1.0 - covered / trials
    return ChainTrials(trials=trials, horizon=horizon, nonvisit_frac=nonvisit, gap_frac=gap)
