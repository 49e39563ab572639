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
latest visit, gathered on flat indices.  The estimate is solved in the
eigenbasis of ``K``, which changes only on first visits.  The oracle's
estimates are one matmul of the running means by a gain matrix solved once
per run (``observation.central_solver``).  Every chunk-sized array is a view
of a buffer that the block (``_TrialBlocks.buffer``) or the oracle allocates
once.

The walk (``_walk``, shared with the chain engine) steps on compact,
CSR-style out-rows (``_OutRows``): a node's columns are its possible
out-neighbours and itself.  A static graph's rows and cumulative transition
weights are computed once per worker; an i.i.d. graph's holders read their
out-edge uniforms from one contiguous slice of each tick's draws; a sequence
reads its frame at the compact columns.  No tick builds an (R, n, n)
adjacency, and one step costs O(out-degree) per trial.  The walk checks its
moves once per chunk, not once per tick: each drawn column must be an edge
that was up at its tick or the holder's own, a sanctioned hold.

All four engines (token, central, consensus+innovations and chain) shard
their trials across the usable cores through one function, ``_sharded``.  Each
forked worker runs the same serial loop on a contiguous block of at least
``MIN_BLOCK_TRIALS`` trials, with trial ``lo + r`` seeded
``trial_seed(master, lo + r)``.  Every per-trial value is computed row by row,
so outputs do not depend on the worker count; a block holds at least two
trials because numpy's linear algebra takes a different path for a single
row, which changes the last bits.  A worker's failure is re-raised in the
parent as the serial loop would raise it.

A run keeps no per-tick series: it hands each to the caller's reader for it,
one ``Reader`` per series name, and computes the oracle's and the last-seen
errors only for a reader.  A series with a reader passes through a ring
(``_Ring``) of one trial-major (trials, CHUNK_TICKS) slot in anonymous shared
memory.  A worker computes a chunk into its own buffers first; only then does
it wait for the parent's credit for the chunk, copy its rows of the chunk into
the slot, transposed, and signal the parent.  Once every block has filled the
slot, the parent hands its rows, all trials in trial order, to the series'
reader, for example a ``TickStats`` reduction, and sends each worker a
credit.  So a worker runs at most one chunk ahead of the slowest, and the
ring costs series × trials × CHUNK_TICKS × 8 bytes.  A block's draws, one
generator call per trial, stream and chunk, cost trials × CHUNK_TICKS ×
(m + draws + 1) × 8 bytes, for m stacked measurements and ``draws`` graph
uniforms a tick.  With one block the slot is read in-process right after
each chunk is written.  Other outputs, such as trial 0's trace (written by
trial 0's block alone), the CI candidates' horizon column or the chain's
exact counts, are written straight into shared arrays.
"""

from __future__ import annotations

import mmap
import os
import pickle
import signal
from contextlib import suppress
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, NoReturn, Sequence

import numpy as np

from ._streams import SeedLike, trial_seed
from .baseline import CiConfig
from .chain import TransitionRule, bulk_step, transition_rows
from .errors import NonFiniteMetric, SolveFailed
from .graphs import DeterministicSequence, GraphSpec
from .observation import GlobalModel, central_solver
from .token import ESTIMATE_RTOL, AlphaSchedule, EpisodeTrace

CHUNK_TICKS = 64
# A worker's block holds at least this many trials: numpy's linear algebra takes
# another path for a single row, which changes the last bits of the values.
MIN_BLOCK_TRIALS = 2
# Runs of fewer trials stay in one process.  Every worker still steps every tick, so
# sharding pays only once a block's per-trial work outweighs the per-tick overhead
# that each worker repeats and the few milliseconds it takes to fork and join them.
# On a 2-vCPU VM, 1,000-tick runs of the token, oracle and CI engines broke even at
# about 32 trials and were faster sharded from 64.
SHARD_MIN_TRIALS = 64

# A series reader: called with a chunk's (trials, length) rows from tick t0, chunk by chunk.
Reader = Callable[[np.ndarray, int], None]


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
    """What a token or oracle run returns; its series went to the readers."""

    trials: int
    horizon: int
    trial0: EpisodeTrace | None = None  # the token engine's trial 0


@dataclass(eq=False)
class CiTrials:
    """What a pass over K gain candidates returns: of the per-tick errors, only the horizon's."""

    trials: int
    horizon: int
    final_sq_err: np.ndarray  # (trials, K) network-average squared error at the horizon
    diverged: np.ndarray  # (K,) bool; a diverged candidate's errors are inf


@dataclass(eq=False)
class ChainTrials:
    trials: int
    horizon: int
    nonvisit_frac: np.ndarray
    gap_frac: np.ndarray


class _TrialBlocks:
    """Per-trial stream generators that draw one chunk a call, for trials ``first`` onwards.

    Block draws from numpy generators consume the underlying bit stream
    exactly like successive per-tick draws, which keeps batched trials
    replayable through the scalar path (pinned by a unit test).  Each chunk,
    every trial's generators draw the chunk's ticks straight into its rows of
    buffers that the next chunk reuses, one call per stream.  So a block's
    draws cost trials × CHUNK_TICKS × (m + draws + 1) × 8 bytes, with ``m``
    the model's stacked measurements (0 without a model) and ``draws`` the
    graph's uniforms per tick.  A block without a model neither makes a noise
    generator nor draws noise, and one whose graph draws no uniforms (none,
    static or a sequence) makes no graph generator; the three streams are
    independent, so what a block skips never shifts what it draws.

    ``_sharded`` sets ``ring``, the block's (trials, CHUNK_TICKS) rows of
    each read series' slot, and the calls ``wait(c)``, which returns once
    the slot may take chunk ``c``, and ``filled(c)``, which hands the filled
    slot over.  The loop body puts each chunk's (ticks, trials) values of
    every read series in ``series``.
    """

    def __init__(
        self,
        trials: int,
        master_seed: SeedLike,
        model: GlobalModel | None,
        spec: GraphSpec | None,
        first: int = 0,
    ) -> None:
        self.trials, self.first = trials, first
        self.model = model
        self.draws = 0 if spec is None else spec.draws
        self.t0 = 0  # first tick of the chunk being run
        self.noise_gens, self.graph_gens, self.move_gens = [], [], []
        for r in range(first, first + trials):
            noise, graph, move = trial_seed(master_seed, r).spawn(3)
            if model is not None:  # a generator that would draw nothing is not made
                self.noise_gens.append(np.random.default_rng(noise))
            if self.draws:
                self.graph_gens.append(np.random.default_rng(graph))
            self.move_gens.append(np.random.default_rng(move))
        self._buffers: dict[str, np.ndarray] = {}
        self.noise: np.ndarray | None = None
        self.graph_u: np.ndarray | None = None
        self.move_u: np.ndarray | None = None
        self.ring: dict[str, np.ndarray] = {}
        self.series: dict[str, np.ndarray] = {}
        self.wait: Callable[[int], None] = lambda c: None
        self.filled: Callable[[int], None] = lambda c: None

    def chunks(self, ticks: int) -> Iterator[tuple[int, int]]:
        """Yield ``(t0, length)`` for each chunk of ``ticks`` ticks, its draws loaded.

        Once the loop body is done, each read series' first ``length`` rows
        of ``series`` go into its slot, transposed, as soon as the slot is
        free, and the slot is handed over.
        """
        for c, t0 in enumerate(range(0, ticks, CHUNK_TICKS)):
            self.t0, length = t0, min(CHUNK_TICKS, ticks - t0)
            self.load(length)
            yield t0, length
            if self.ring:
                self.wait(c)
                for k, slot in self.ring.items():
                    slot[:, :length] = self.series[k][:length].T
                self.filled(c)

    def load(self, length: int) -> None:
        """Draw every trial's next ``length`` ticks into ``noise``, ``graph_u`` and ``move_u``."""
        if self.model is not None:
            self.noise = self.buffer("noise", (self.trials, length, self.model.total_measurements))
            for g, row in zip(self.noise_gens, self.noise):
                self.model.fill_noise(g, row)
        self.graph_u = self.buffer("graph", (self.trials, length, self.draws))
        if self.draws:
            for g, row in zip(self.graph_gens, self.graph_u):
                g.random(out=row)
        self.move_u = self.buffer("move", (self.trials, length))
        for g, row in zip(self.move_gens, self.move_u):
            g.random(out=row)

    def buffer(self, name: str, shape: tuple[int, ...], dtype: type = float) -> np.ndarray:
        """A C-contiguous ``shape`` view of the block's flat buffer ``name``, grown as needed."""
        size, buf = int(np.prod(shape)), self._buffers.get(name)
        if buf is None or buf.size < size or buf.dtype != dtype:
            buf = self._buffers[name] = np.empty(size, dtype)
        return buf[:size].reshape(shape)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _shared_zeros(shape: tuple[int, ...], dtype: type) -> np.ndarray:
    """A zero array in anonymous shared memory, where the parent sees what forked workers write."""
    count, dtype = int(np.prod(shape)), np.dtype(dtype)
    buf = mmap.mmap(-1, max(count * dtype.itemsize, 1))
    return np.frombuffer(buf, dtype, count).reshape(shape)


def _serial_order(exc: BaseException, t0: int) -> tuple[int, int, float]:
    """Where the serial loop, running all trials, would meet the failure ``exc`` of chunk ``t0``.

    Within a chunk, errors in loading come first, then the walk's by tick,
    then the oracle's, then the estimate's by tick.  A solve failure that
    several blocks meet at the same point is reported with the worst
    residual, as the serial loop takes the worst over all trials.
    """
    residual = getattr(exc, "residual", None)
    tick = getattr(exc, "tick", None)
    if residual is None:
        return t0, -2, -1 if tick is None else tick
    return t0, -1 if tick is None else tick, -residual


class _Ring:
    """One trial-major (trials, CHUNK_TICKS) slot per series read, and its reader.

    ``series`` maps each series to its dtype and reader.  Every chunk of a
    series is written into its one slot once the chunk is computed.
    ``read(c)`` hands each series' (trials, length) rows of chunk ``c``, all
    trials in trial order, to its reader, after which the slot may take
    chunk ``c + 1``.
    """

    def __init__(
        self, ticks: int, trials: int, series: Mapping[str, tuple[type, Reader]], alloc
    ) -> None:
        self.chunks = -(-ticks // CHUNK_TICKS)
        self.ticks = ticks
        self.slots = {k: alloc((trials, CHUNK_TICKS), t) for k, (t, _) in series.items()}
        self.readers = {k: reader for k, (_, reader) in series.items()}

    def read(self, c: int) -> None:
        t0 = c * CHUNK_TICKS
        length = min(CHUNK_TICKS, self.ticks - t0)
        for k, slot in self.slots.items():
            self.readers[k](slot[:, :length], t0)


def _worker(
    up: int,
    credit: int,
    block: Callable[[], tuple[_TrialBlocks, dict, dict]],
    run_block: Callable[[_TrialBlocks, dict, dict], None],
) -> NoReturn:
    """A forked worker's life: run its block; send up ``up`` any failure and where it was.

    If the block writes ring series, each chunk is computed first.  Then,
    for chunk ``c >= 1``, the worker reads one credit byte from ``credit``,
    sent once the parent has read chunk ``c - 1``; it fills the slots and
    signals up ``up`` with one byte ``r``.  When the parent closes
    ``credit``, the worker stops waiting.  Every exception, an interrupt
    included, goes to the parent as a pickle after the signals, and the
    parent raises it.
    ``os._exit`` ends the worker without running the parent's exit handlers
    or flushing the buffers it inherited, so nothing runs or prints twice.
    """
    code, streams = 1, None
    try:
        with os.fdopen(up, "wb") as out:
            draining = False

            def wait(c: int) -> None:
                nonlocal draining
                if c and not draining:
                    draining = os.read(credit, 1) == b""

            def filled(c: int) -> None:
                out.write(b"r")
                out.flush()

            try:
                streams, part, mine = block()
                streams.wait, streams.filled = wait, filled
                run_block(streams, part, mine)
                code = 0
            except BaseException as exc:
                where = _serial_order(exc, 0 if streams is None else streams.t0)
                try:
                    msg = pickle.dumps((where, exc))
                    pickle.loads(msg)
                except Exception:  # an exception that does not survive pickling
                    msg = pickle.dumps((where, RuntimeError(f"{type(exc).__name__}: {exc}")))
                out.write(msg)
    finally:
        os._exit(code)


def _sharded(
    trials: int,
    master_seed: SeedLike,
    model: GlobalModel | None,
    spec: GraphSpec | None,
    rows: dict[str, tuple[tuple[int, ...], type]],
    run_block: Callable[[_TrialBlocks, dict, dict], None],
    per_block: dict[str, tuple[tuple[int, ...], type]] | None = None,
    series: Mapping[str, tuple[type, Reader]] | None = None,
    ticks: int = 0,
) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """Run ``run_block`` over contiguous blocks of trials, one forked worker per block.

    ``rows`` names the per-trial outputs, each ``(trials, *width)``, and
    ``per_block`` those each block keeps for itself, ``(blocks, *width)``.
    ``series`` names the per-tick series of a ``ticks``-tick run that pass
    through the ring, each with its dtype and reader.  Block ``b`` holds
    trials ``lo..hi-1``; ``run_block(streams, rows[lo:hi], per_block[b])``
    fills its part and puts each chunk of its series in ``streams.series``,
    where ``streams`` are those trials' ``_TrialBlocks``, which copy it into
    the block's rows of the slot.

    The parent reads chunk ``c`` once every worker has signalled it, then,
    if a chunk follows, grants each worker a credit to fill the slot with
    chunk ``c + 1``.  One block, run in this process, serves runs of fewer
    than ``SHARD_MIN_TRIALS`` trials, a single usable core and platforms
    without ``os.fork``; it reads each chunk right after it is written.  If
    workers fail, the parent stops reading, closes the credit pipes so that
    no worker waits on it, and raises the failure the serial loop would meet
    first, once every worker has been reaped.
    """
    workers = 1
    if hasattr(os, "fork") and trials >= SHARD_MIN_TRIALS:
        workers = max(1, min(_usable_cpus(), trials // MIN_BLOCK_TRIALS))
    bounds = [trials * b // workers for b in range(workers + 1)]
    alloc = np.zeros if workers == 1 else _shared_zeros
    out = {k: alloc((trials, *width), dtype) for k, (width, dtype) in rows.items()}
    own = {k: alloc((workers, *width), dtype) for k, (width, dtype) in (per_block or {}).items()}
    ring = _Ring(ticks, trials, series or {}, alloc)

    def block(b: int) -> tuple[_TrialBlocks, dict, dict]:
        """Block ``b``'s streams, with its rows of the ring, and its parts of the outputs."""
        lo, hi = bounds[b], bounds[b + 1]
        streams = _TrialBlocks(hi - lo, master_seed, model, spec, lo)
        streams.ring = {k: v[lo:hi] for k, v in ring.slots.items()}
        return streams, {k: v[lo:hi] for k, v in out.items()}, {k: v[b] for k, v in own.items()}

    if workers == 1:
        streams, part, mine = block(0)
        streams.filled = ring.read
        run_block(streams, part, mine)
        return out, own

    pids: dict[int, int] = {}  # unreaped worker -> its block
    ups, credits = [], []  # the parent's ends of each worker's pipes
    failures = []
    try:
        for b in range(workers):
            up_read, up_write = os.pipe()
            credit_read, credit_write = os.pipe()
            ups.append(os.fdopen(up_read, "rb"))
            credits.append(credit_write)
            try:
                pid = os.fork()
                if pid == 0:
                    for fd in [up.fileno() for up in ups] + credits:
                        os.close(fd)  # else no worker would see a credit pipe close
                    _worker(up_write, credit_read, lambda: block(b), run_block)
            finally:
                os.close(up_write)  # a worker never gets here: it leaves by os._exit
                os.close(credit_read)
            pids[pid] = b
        heads = [b""] * workers
        for c in range(ring.chunks if ring.slots else 0):
            heads = [up.read(1) for up in ups]
            if heads != [b"r"] * workers:
                break  # a worker failed or died
            ring.read(c)
            if c + 1 < ring.chunks:
                for credit in credits:
                    with suppress(BrokenPipeError):  # a dead worker shows at its next signal
                        os.write(credit, b"c")
        while credits:
            os.close(credits.pop())
        # each ends when its worker does; a failure follows the worker's signals
        msgs = [(head + up.read()).lstrip(b"r") for head, up in zip(heads, ups)]
        for pid in list(pids):
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            b = pids.pop(pid)
            if msgs[b]:
                failures.append((*pickle.loads(msgs[b]), b))
            elif status:
                lo, hi = bounds[b], bounds[b + 1]
                crash = RuntimeError(f"the worker for trials {lo}..{hi - 1} exited with {status}")
                failures.append(((-1,), crash, b))
    finally:
        for up in ups:
            up.close()
        for credit in credits:
            os.close(credit)
        for pid in pids:  # left only if this process was interrupted
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if failures:
        raise min(failures, key=lambda f: (f[0], f[2]))[1]
    return out, own


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
    path = blocks.buffer("path", (length, R), np.int64)
    rows = blocks.buffer("rows", (length, R, width), bool)
    own = blocks.buffer("own", (length, R), np.int64)
    col = blocks.buffer("col", (length, R), np.int64)
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
    # each step's drawn column, flat in ``rows``: (ti * R + r) * width + col, in range
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
        self, path: np.ndarray, means: np.ndarray, t0: int, schedule: AlphaSchedule,
        last_seen: bool,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """One chunk's (length, trials) squared errors, visited counts and last-seen means.

        ``path`` is the chunk's holders from tick ``t0`` and ``means`` the
        running means' stack, whose row 0 is overwritten here.  The last-seen
        means are None unless ``last_seen``.  Raises SolveFailed at the first
        tick whose estimate residual exceeds ``ESTIMATE_RTOL``.
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
        mean_seen = self._last_seen(last, sq, counts[1:]) if last_seen else None
        return sq[1:], counts[1:], mean_seen

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
        bad = np.flatnonzero(worst > ESTIMATE_RTOL)
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


def _check_sizes(model: GlobalModel, spec: GraphSpec) -> None:
    if spec.n != model.n_agents:
        raise ValueError(f"graph has {spec.n} nodes but model has {model.n_agents} agents")


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
    last two are computed only for one.  ``trial0`` holds trial 0's trace,
    its last-seen errors only where ``last_seen`` is read.
    """
    _check_sizes(model, spec)
    size = horizon + 1
    dtypes = {"sq_err": float, "visited": np.int64, "last_seen": float, "central": float}
    series = _series(readers, dtypes)
    last_seen = "last_seen" in series
    oracle = _CentralOracle(model) if "central" in series else None
    trace = {"holder": np.int64, "visited": np.int64, "sq_err": float}
    if last_seen:
        trace["last_seen"] = float

    def run(blocks: _TrialBlocks, _: dict, own: dict[str, np.ndarray]) -> None:
        R = blocks.trials
        means = _RunningMeans(model, R)
        payload = _TokenPayload(model, blocks)
        holder = np.full(R, int(start_node))
        out_rows = _OutRows(spec, rule)
        trace0 = own if blocks.first == 0 else {}  # only trial 0's block writes the trace
        for t0, length in blocks.chunks(size):
            path, holder = _walk(out_rows, blocks, t0, length, holder)
            stack = means.advance(blocks)
            values = {"holder": path}
            if oracle is not None:  # before the estimate, whose failure comes later
                values["central"] = oracle.score(stack[1:], blocks)
            sq, counts, mean_seen = payload.advance(path, stack, t0, schedule, last_seen)
            values.update(sq_err=sq, visited=counts, last_seen=mean_seen)
            for key, value in values.items():
                if key in trace0:
                    trace0[key][t0 : t0 + length] = value[:, 0]
            blocks.series = values

    _, own = _sharded(
        trials, master_seed, model, spec, {}, run,
        per_block={k: ((size,), dtype) for k, dtype in trace.items()}, series=series, ticks=size,
    )
    trial0 = EpisodeTrace(
        horizon=horizon,
        holder=own["holder"][0],
        visited_count=own["visited"][0],
        token_sq_err=own["sq_err"][0],
        mean_last_seen_sq_err=own["last_seen"][0] if last_seen else None,
    )
    return Trials(trials, horizon, trial0)


def run_central_trials(
    model: GlobalModel,
    horizon: int,
    trials: int,
    master_seed: SeedLike = 0,
    readers: Mapping[str, Reader] | None = None,
) -> Trials:
    """Oracle-only runs: the series ``central`` is the centralized estimate's squared error."""
    size = horizon + 1
    series = _series(readers, {"central": float})
    oracle = _CentralOracle(model)

    def run(blocks: _TrialBlocks, _: dict, __: dict) -> None:
        means = _RunningMeans(model, blocks.trials)
        for _ in blocks.chunks(size):
            blocks.series["central"] = oracle.score(means.advance(blocks)[1:], blocks)

    _sharded(trials, master_seed, model, None, {}, run, series=series, ticks=size)
    return Trials(trials, horizon)


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
    ``readers``.  A diverged candidate raises NonFiniteMetric if that series
    is read; otherwise it is flagged, and its error at the horizon is inf.
    """
    _check_sizes(model, spec)
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

    def net_err(s_k: np.ndarray) -> np.ndarray:
        """Each trial's network-average squared error of one candidate's (trials, n, L) state."""
        err = s_k - theta
        return (err * err).sum(axis=-1).mean(axis=-1)

    def run(blocks: _TrialBlocks, out: dict[str, np.ndarray], own: dict[str, np.ndarray]) -> None:
        R = blocks.trials
        s = np.zeros((K, R, n, dim))
        buffers = np.empty_like(s), np.empty_like(s), np.empty(s.shape[:3])  # over the live ones
        y, adj = np.empty((R, model.total_measurements)), np.empty((R, n, n))
        deg = np.empty((R, n, dim))
        live = np.arange(K)
        diverged, final = own["diverged"], out["final"]
        final[...] = theta_sq
        if series:  # staged tick by tick, and handed over once the chunk is done
            netavg = blocks.series["netavg"] = blocks.buffer("netavg", (CHUNK_TICKS, R))
        with np.errstate(over="ignore", invalid="ignore"):
            for t0, length in blocks.chunks(size):
                if not live.size:
                    break
                consensus, innovation, resid = (b[: live.size] for b in buffers)
                ticks = range(t0, t0 + length)  # the chunk's gains of the live candidates
                gain = np.array([[(c.beta(t), c.alpha(t)) for c in cfgs] for t in ticks])
                beta, alpha = gain[:, live, 0, None, None, None], gain[:, live, 1, None, None, None]
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
                    if t + 1 == horizon:
                        for k, s_k in zip(live, s):
                            final[:, k] = net_err(s_k)
                finite = np.isfinite(s).all(axis=(1, 2, 3))
                if not finite.all():
                    if series:
                        raise NonFiniteMetric("consensus+innovations trajectory diverged")
                    diverged[live[~finite]] = True
                    live, s = live[finite], s[finite]

    out, own = _sharded(
        trials, master_seed, model, spec, {"final": ((K,), float)}, run,
        per_block={"diverged": ((K,), bool)}, series=series, ticks=size,
    )
    diverged = own["diverged"].any(axis=0)  # a candidate diverged if it did in any block
    final = out["final"]
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

    A chunk's visited flags come from its path at once: a running OR over the
    ticks of ``path == node``, seeded with the flags carried from the chunk
    before.  Each block counts, per tick, its trials that have seen each node
    and those that have seen every node.  The counts are exact, so their sums
    over the blocks, divided once by ``trials``, do not depend on the worker
    count.
    """
    n, size = spec.n, horizon + 1

    def run(blocks: _TrialBlocks, _: dict, own: dict[str, np.ndarray]) -> None:
        holder = np.full(blocks.trials, int(start_node))
        visited = np.zeros((blocks.trials, n), dtype=bool)
        out_rows = _OutRows(spec, rule)
        for t0, length in blocks.chunks(size):
            path, holder = _walk(out_rows, blocks, t0, length, holder)
            seen = path[:, :, None] == np.arange(n)
            seen[0] |= visited
            np.logical_or.accumulate(seen, axis=0, out=seen)
            visited = seen[-1]
            own["seen"][t0 : t0 + length] = seen.sum(axis=1)
            own["covered"][t0 : t0 + length] = seen.all(axis=2).sum(axis=1)

    counts = {"seen": ((size, n), np.int64), "covered": ((size,), np.int64)}
    _, own = _sharded(trials, master_seed, None, spec, {}, run, per_block=counts)
    nonvisit = 1.0 - own["seen"].sum(axis=0) / trials
    gap = 1.0 - own["covered"].sum(axis=0) / trials
    return ChainTrials(trials=trials, horizon=horizon, nonvisit_frac=nonvisit, gap_frac=gap)
