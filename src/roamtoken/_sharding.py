"""The process layer of the engines: trial blocks, the series ring and the forked workers.

All three engines (token, consensus+innovations and chain) shard their
trials across the usable cores through one function, ``_sharded``.  Each
forked worker runs the same serial loop on a contiguous block of at least
``MIN_BLOCK_TRIALS`` trials, with trial ``lo + r`` seeded
``trial_seed(master, lo + r)``.  Every per-trial value is computed row by row,
so outputs do not depend on the worker count; a block holds at least two
trials because numpy's linear algebra takes a different path for a single
row, which changes the last bits.  A worker's failure is re-raised in the
parent as the serial loop would raise it.

A run keeps no per-tick series: it hands each to the caller's reader for it,
one ``Reader`` per series name, and computes the oracle's errors only for a
reader.  A series with a reader passes through a ring
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
each chunk is written.  Every other output is per-trial rows written straight
into shared arrays, each block into its own trials' rows: trial 0's trace
(one row, so only trial 0's block has any), the CI candidates' horizon column
and each chain trial's first-hold tick of every node.
"""

from __future__ import annotations

import mmap
import os
import pickle
import signal
from contextlib import suppress
from typing import Callable, Iterator, Mapping, NoReturn

import numpy as np

from ._streams import SeedLike, trial_seed
from .graphs import GraphSpec
from .observation import GlobalModel

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
    generator nor draws noise, and one whose graph draws no uniforms (static
    or a sequence) makes no graph generator; the three streams are
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
        spec: GraphSpec,
        first: int = 0,
    ) -> None:
        self.trials, self.first = trials, first
        self.model = model
        self.draws = spec.draws
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
    block: Callable[[], tuple[_TrialBlocks, dict]],
    run_block: Callable[[_TrialBlocks, dict], None],
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
                streams, part = block()
                streams.wait, streams.filled = wait, filled
                run_block(streams, part)
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
    spec: GraphSpec,
    rows: dict[str, tuple[tuple[int, ...], type]],
    run_block: Callable[[_TrialBlocks, dict], None],
    series: Mapping[str, tuple[type, Reader]] | None = None,
    ticks: int = 0,
) -> dict[str, np.ndarray]:
    """Run ``run_block`` over contiguous blocks of trials, one forked worker per block.

    ``rows`` names the per-trial outputs, each with its shape and dtype: an
    output of shape ``(k, *width)`` holds the rows of trials ``0..k-1``.
    ``series`` names the per-tick series of a ``ticks``-tick run that pass
    through the ring, each with its dtype and reader.  Block ``b`` holds
    trials ``lo..hi-1``; ``run_block(streams, {k: v[lo:hi]})`` fills its rows,
    none past ``k``, and puts each chunk of its series in ``streams.series``,
    where ``streams`` are those trials' ``_TrialBlocks``, which copy it into
    the block's rows of the slot.  The outputs are returned by name.

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
    out = {k: alloc(shape, dtype) for k, (shape, dtype) in rows.items()}
    ring = _Ring(ticks, trials, series or {}, alloc)

    def block(b: int) -> tuple[_TrialBlocks, dict]:
        """Block ``b``'s streams, with its rows of the ring, and its rows of the outputs."""
        lo, hi = bounds[b], bounds[b + 1]
        streams = _TrialBlocks(hi - lo, master_seed, model, spec, lo)
        streams.ring = {k: v[lo:hi] for k, v in ring.slots.items()}
        return streams, {k: v[lo:hi] for k, v in out.items()}

    if workers == 1:
        streams, part = block(0)
        streams.filled = ring.read
        run_block(streams, part)
        return out

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
    return out
