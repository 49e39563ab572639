"""The token chunk's kernels: measurements, running means, payload and estimate.

In the token engine only two things step tick by tick: the walk, which fixes
the chunk's holder path, and the running means ``ybar`` of every trial's
stacked measurements.  Everything else is computed once per chunk from those
two.  Since agent ``p``'s statistic is ``x_p = W_p ybar_p``, the payload is
``d = W ybar_seen``, where ``ybar_seen`` holds each agent's means as of its
latest visit, gathered on flat indices.  The estimate is solved in the
eigenbasis of ``K``, which changes only on first visits.  Every chunk-sized
array is a view of a buffer that the block (``_TrialBlocks.buffer``)
allocates once.
"""

from __future__ import annotations

import numpy as np

from ._sharding import CHUNK_TICKS, _TrialBlocks
from .errors import SolveFailed
from .observation import GlobalModel
from .token import ESTIMATE_RTOL, AlphaSchedule


class _MeasurementMap:
    """Precomputed affine map from raw noise blocks to stacked measurements."""

    def __init__(self, model: GlobalModel) -> None:
        self.h_theta = np.concatenate([a.H @ model.theta for a in model.agents])
        m = model.total_measurements
        self.chol_block = np.zeros((m, m))
        for a, sl in zip(model.agents, model.measurement_slices):
            self.chol_block[sl, sl] = a.chol_C

    def __call__(self, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Stacked measurements from raw noise of shape (..., m), for example a chunk's."""
        return np.add(np.matmul(z, self.chol_block.T, out=out), self.h_theta, out=out)


class _RunningMeans:
    """Every trial's running means of its stacked measurements, kept for each tick of a chunk.

    ``advance`` folds one loaded chunk into the means with the one per-tick
    recursion ``ybar += (y - ybar) / (t + 1)`` and returns the chunk's
    (length + 1, trials, m) stack, whose row ``ti + 1`` holds the means after
    tick ``t0 + ti``.  Row 0 carries the means over from the previous chunk
    into the recursion; after that the caller may overwrite it.
    """

    def __init__(self, model: GlobalModel, trials: int) -> None:
        self.measure = _MeasurementMap(model)
        self.ticks = np.zeros((CHUNK_TICKS + 1, trials, model.total_measurements))
        self.filled = 0

    def advance(self, blocks: _TrialBlocks) -> np.ndarray:
        """Fold the loaded chunk's (trials, length, m) noise into the means; return the stack."""
        noise, t0, ticks = blocks.noise, blocks.t0, self.ticks
        R, length, m = noise.shape
        y = blocks.buffer("wide", (length, R, m))  # tick-major: each tick's rows are contiguous
        self.measure(noise, out=y.transpose(1, 0, 2))
        ticks[0] = ticks[self.filled]
        self.filled = length
        for ti in range(length):
            prev, cur = ticks[ti], ticks[ti + 1]
            np.subtract(y[ti], prev, out=cur)
            cur /= t0 + ti + 1
            cur += prev
        return ticks[: length + 1]


class _TokenPayload:
    """Every trial's token payload and estimate, computed a chunk at a time from the path.

    ``last[ti, r * n + p]`` is one plus the latest chunk tick at or before
    ``ti`` at which node ``p`` held trial ``r``'s token, or 0 if ``p`` has not
    held it in this chunk; the payload and last-seen errors are gathered
    there, on flat (ticks, trials * width) views with offsets fixed here.
    Each trial keeps one ``K`` per visited count, in first-visit order, each
    eigendecomposed once.  Between chunks the object carries each agent's
    last-seen means and error and each trial's visited set.
    """

    def __init__(self, model: GlobalModel, blocks: _TrialBlocks) -> None:
        n, m, dim, R = model.n_agents, model.total_measurements, model.dim, blocks.trials
        self.buffer = blocks.buffer
        self.theta = model.theta
        self.w_full = np.hstack([a.W for a in model.agents])
        self.b_stack = np.stack([a.B for a in model.agents])
        col_agent = np.repeat(np.arange(n), [a.n_measurements for a in model.agents])
        self.tick, self.node0 = np.arange(CHUNK_TICKS)[:, None], np.arange(R) * n
        # the flat offsets of trial r's measurement j in a tick of the means, of the column
        # of ``last`` of its agent, and of trial r in a tick of the errors
        self.mean_col, self.trial_col = np.arange(R * m), np.repeat(np.arange(R), n)
        self.agent_col = (self.node0[:, None] + col_agent).ravel()
        # K after trial r's c-th first visit (c = 0..n) sits in slot r * (n + 1) + c, as does
        # its eigendecomposition; c = 0 is never read, as the start node holds at tick 0
        self.slot0 = np.arange(R) * (n + 1)
        self.k_ver = np.zeros((R * (n + 1), dim, dim))
        self.lam = np.zeros((R * (n + 1), dim))
        self.vec = np.zeros((R * (n + 1), dim, dim))
        self.seen_means = np.zeros((R, m))
        self.visited = np.zeros((R, n), dtype=bool)
        self.err_seen = np.zeros((R, n))  # 0 until visited, so a plain sum covers the visited

    def advance(
        self, path: np.ndarray, means: np.ndarray, t0: int, schedule: AlphaSchedule
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One chunk's (length, trials) squared errors, visited counts and last-seen means.

        ``path`` is the chunk's holders from tick ``t0`` and ``means`` the
        running means' stack, whose row 0 is overwritten here.  Raises
        SolveFailed at the first tick whose estimate residual exceeds
        ``ESTIMATE_RTOL`` or is NaN.
        """
        (length, R), n = path.shape, len(self.b_stack)
        last = self.buffer("last", (length, R * n), np.int64)
        last.fill(0)
        cols = np.add(path, self.node0, out=self.buffer("at", path.shape, np.int64))
        last[self.tick[:length], cols] = self.tick[:length] + 1
        for ti in range(1, length):
            np.maximum(last[ti - 1], last[ti], out=last[ti])
        seen = np.greater(last, 0, out=self.buffer("mask", last.shape, bool)).reshape(length, R, n)
        seen |= self.visited
        counts = self.buffer("counts", (length + 1, R), np.int64)
        np.add.reduce(self.visited, axis=-1, out=counts[0])
        np.einsum("trp->tr", seen.view(np.uint8), dtype=np.int64, out=counts[1:])
        self.visited[...] = seen[-1]
        self._add_versions(path, counts)
        s = self._estimate(self._payload(last, means), counts[1:], t0, schedule)
        s -= self.theta
        sq = self.buffer("sq", (length + 1, R))
        sq[0] = 0.0
        np.einsum("tri,tri->tr", s, s, out=sq[1:])
        return sq[1:], counts[1:], self._last_seen(last, sq, counts[1:])

    def _add_versions(self, path: np.ndarray, counts: np.ndarray) -> None:
        """Add a K version at each first visit; row 0 of ``counts`` holds the counts before."""
        fresh = np.greater(counts[1:], counts[:-1], out=self.buffer("mask", path.shape, bool))
        ti_new, r_new = np.nonzero(fresh)
        if not r_new.size:
            return
        c_new, node_new = counts[ti_new + 1, r_new], path[ti_new, r_new]
        slot = self.slot0[r_new] + c_new
        for c in range(c_new.min(), c_new.max() + 1):
            at = slot[c_new == c]
            self.k_ver[at] = self.k_ver[at - 1] + self.b_stack[node_new[c_new == c]]
        lam, self.vec[slot] = np.linalg.eigh(self.k_ver[slot])
        self.lam[slot] = np.maximum(lam, 0.0)  # K is semidefinite: drop roundoff below 0

    def _payload(self, last: np.ndarray, means: np.ndarray) -> np.ndarray:
        """The (length, trials, L) payloads ``d = W ybar_seen``; carries the last-seen means.

        Row 0 of ``means`` takes the earlier chunks' last-seen means.  A flat ``np.take``
        is several times faster than fancy indexing.
        """
        length, (R, m) = len(last), means.shape[1:]
        means[0] = self.seen_means
        at = self.buffer("at", (length, R * m), np.int64)
        np.take(last, self.agent_col, axis=1, out=at, mode="wrap")
        at *= R * m
        at += self.mean_col
        y_seen = self.buffer("wide", (length, R, m))
        np.take(means.reshape(-1), at, out=y_seen.reshape(at.shape), mode="wrap")
        self.seen_means[...] = y_seen[-1]
        d = self.buffer("d", (length, R, len(self.theta)))
        return np.matmul(y_seen, self.w_full.T, out=d)

    def _estimate(
        self, d: np.ndarray, counts: np.ndarray, t0: int, schedule: AlphaSchedule
    ) -> np.ndarray:
        """``s = V diag(1 / (lam + 1/alpha)) V^T d`` in each tick's K version, residual-checked.

        The guard evaluates ``|(K + I/alpha) s - d| / |d|`` on K itself.
        """
        length, R, dim = d.shape
        inv_alpha = 1 / np.array([schedule.alpha(t) for t in range(t0, t0 + length)])[:, None, None]
        version = np.add(counts, self.slot0, out=self.buffer("at", counts.shape, np.int64))
        vk = self.buffer("wide", (length, R, dim, dim))  # free once the payload is made
        v = np.take(self.vec, version, axis=0, out=vk, mode="wrap")
        lam = np.take(self.lam, version, axis=0, out=self.buffer("lam", d.shape), mode="wrap")
        lam += inv_alpha
        s_eig = np.einsum("trji,trj->tri", v, d, out=self.buffer("resid", d.shape))
        s_eig /= lam
        s = np.einsum("trij,trj->tri", v, s_eig, out=self.buffer("s", d.shape))
        k = np.take(self.k_ver, version, axis=0, out=vk, mode="wrap")
        resid = np.einsum("trij,trj->tri", k, s, out=s_eig)
        resid += np.multiply(s, inv_alpha, out=lam)
        resid -= d
        scale = np.einsum("tri,tri->tr", d, d, out=self.buffer("scale", counts.shape))
        np.maximum(np.sqrt(scale, out=scale), 1e-300, out=scale)
        worst = np.einsum("tri,tri->tr", resid, resid, out=self.buffer("norm", counts.shape))
        worst = np.divide(np.sqrt(worst, out=worst), scale, out=worst).max(axis=1)
        bad = np.flatnonzero(~(worst <= ESTIMATE_RTOL))  # NaN included
        if bad.size:
            ti, t = bad[0], t0 + int(bad[0])
            msg = f"estimate solve residual {worst[ti]:.3e} at t={t}"
            raise SolveFailed(msg, residual=float(worst[ti]), tick=t)
        return s

    def _last_seen(self, last: np.ndarray, sq: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """Mean over visited agents of the squared error at each one's latest visit."""
        length, R = counts.shape
        at = np.multiply(last, R, out=self.buffer("at", last.shape, np.int64))
        at += self.trial_col
        errs = self.buffer("wide", (length, R, len(self.b_stack)))
        np.take(sq.reshape(-1), at, out=errs.reshape(at.shape), mode="wrap")
        unheld = np.equal(last, 0, out=self.buffer("mask", last.shape, bool))
        np.copyto(errs, self.err_seen, where=unheld.reshape(errs.shape))
        self.err_seen[...] = errs[-1]
        mean_seen = np.einsum("trp->tr", errs, out=self.buffer("mean_seen", counts.shape))
        return np.divide(mean_seen, counts, out=mean_seen)
