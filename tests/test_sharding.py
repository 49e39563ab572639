"""Trials sharded over forked workers: the same bytes, seeds and failures as one process."""

import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import roamtoken._kernels as kernels
import roamtoken._sharding as sharding
import roamtoken.engine as engine
from roamtoken import (
    AgentModel,
    AlphaSchedule,
    CiConfig,
    DeterministicSequence,
    GlobalModel,
    IidFailureGraph,
    Lazy,
    NonFiniteMetric,
    OutDegreeReciprocal,
    SequenceExhausted,
    SolveFailed,
    StaticGraph,
    run_episode,
)
from roamtoken._streams import trial_seed
from roamtoken.cli import main
from roamtoken.engine import run_chain_trials, run_ci_trials, run_token_trials

from conftest import make_ref5_model, ref5_adjacency, slow_ring
from references import SeriesRows, central_trials, ignore

ROOT = Path(__file__).resolve().parents[1]

# Readers that drop every chunk: the workers still fill the ring and wait on the parent.
TOKEN_READERS = dict.fromkeys(("sq_err", "last_seen", "visited"), ignore)


def _shard(monkeypatch, cpus: int) -> None:
    """Shard every run, however small, over up to ``cpus`` workers; 1 keeps one block."""
    monkeypatch.setattr(sharding, "SHARD_MIN_TRIALS", 0)
    monkeypatch.setattr(sharding, "_usable_cpus", lambda: cpus)


def _no_worker_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


_BLOCKS = {"2+2": (4, 2), "3+3": (6, 2), "7+7": (14, 2), "2+2+3": (7, 3)}


@pytest.mark.parametrize("trials, cpus", list(_BLOCKS.values()), ids=list(_BLOCKS))
@pytest.mark.parametrize(
    "command, config", [("simulate", "ref5_static.yaml"), ("compare", "geo20_compare.yaml")]
)
def test_outputs_do_not_depend_on_the_worker_count(
    tmp_path, capsys, monkeypatch, command, config, trials, cpus
):
    # 150 ticks cross two chunk edges; compare runs the token engine, the stacked CI grid
    # and the winner's single CI config.  The serial run reads the ring's one slot
    # in-process; the workers wait on the parent's credit before they fill it with each
    # chunk after the first.
    assert 150 > 2 * engine.CHUNK_TICKS
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())

    def run(workers: int) -> dict[str, bytes]:
        out = tmp_path / f"workers{workers}"
        argv = [command, str(ROOT / "configs" / config), "--out", str(out)]
        for item in (f"run.trials={trials}", "run.horizon=150", "run.seed=11"):
            argv += ["--set", item]
        with monkeypatch.context() as m:
            _shard(m, workers)
            assert main(argv) == 0
        stdout = capsys.readouterr().out.replace(str(out), "<out>")
        return {"stdout": stdout.encode(), **{p.name: p.read_bytes() for p in out.iterdir()}}

    serial = run(1)
    assert not forks
    assert run(cpus) == serial
    assert len(forks) == (1 if command == "simulate" else 3) * cpus
    _no_worker_left()


def test_chain_fractions_and_verify_do_not_depend_on_the_worker_count(
    capsys, monkeypatch, ref5_iid, ref5_static
):
    # each block writes its trials' first-hold ticks, which the parent counts exactly, so
    # the fractions over 1, 2 or 3 blocks are the same bits; 150 ticks cross two chunk edges
    config = str(ROOT / "configs" / "ref5_iid_verify.yaml")
    overrides = ["--set", "run.trials=2000", "--set", "run.horizon=150"]

    def run(cpus: int) -> tuple[list[np.ndarray], str]:
        with monkeypatch.context() as m:
            _shard(m, cpus)
            arrays = []
            for spec, rule in ((ref5_iid, OutDegreeReciprocal()), (ref5_static, Lazy(0.3))):
                chain = run_chain_trials(spec, rule, 1, horizon=150, trials=7, master_seed=3)
                arrays += [chain.nonvisit_frac, chain.gap_frac]
            assert main(["verify", config, *overrides]) == 0
        _no_worker_left()
        return arrays, capsys.readouterr().out

    serial_arrays, serial_out = run(1)
    assert "PASS tail bounds" in serial_out
    for cpus in (2, 3):
        arrays, out = run(cpus)
        assert all(np.array_equal(a, b) for a, b in zip(arrays, serial_arrays))
        assert out == serial_out


@pytest.mark.parametrize("cpus", [2, 3, 4])
def test_blocks_hold_two_trials_or_more_and_keep_their_seeds(monkeypatch, cpus):
    # a 1-trial batch differs from the batched run in the last bits (numpy's linear
    # algebra takes another path for a single row), so no block may hold one trial
    _shard(monkeypatch, cpus)

    def run(streams, out):
        out["move"][:, 0] = [g.random() for g in streams.move_gens]
        out["first"][:, 0] = streams.first

    for trials in range(1, 12):
        rows = {"move": ((trials, 1), float), "first": ((trials, 1), np.int64)}
        out = engine._sharded(trials, 5, None, StaticGraph(~np.eye(2, dtype=bool)), rows, run)
        # each block writes its first trial into every row it holds
        sizes = np.unique(out["first"][:, 0], return_counts=True)[1]
        assert len(sizes) == max(1, min(cpus, trials // 2))
        assert sizes.sum() == trials and (len(sizes) == 1 or sizes.min() >= 2)
        moves = [np.random.default_rng(trial_seed(5, r).spawn(3)[2]) for r in range(trials)]
        assert out["move"][:, 0].tolist() == [g.random() for g in moves]
    _no_worker_left()


def test_worker_that_dies_without_a_report_is_an_error(monkeypatch):
    _shard(monkeypatch, 2)

    def run(streams, out):
        if streams.trials == 3:  # the second block
            os.kill(os.getpid(), signal.SIGKILL)

    with pytest.raises(RuntimeError, match=r"worker for trials 2\.\.4 exited with -9"):
        engine._sharded(5, 0, None, StaticGraph(~np.eye(2, dtype=bool)), {}, run)
    _no_worker_left()


def _serial_and_sharded(monkeypatch, run) -> tuple[BaseException, BaseException]:
    """The exception ``run()`` raises in one process and over two workers."""
    caught = []
    for cpus in (1, 2):
        with monkeypatch.context() as m:
            _shard(m, cpus)
            with pytest.raises(Exception) as info:
                run()
        caught.append(info.value)
        _no_worker_left()
    return caught[0], caught[1]


def _skewed_eigh(monkeypatch) -> None:
    """A wrong eigendecomposition of every full-rank K, as in the estimate guard's test."""
    eigh = np.linalg.eigh

    def skewed(k):
        lam, vec = eigh(k)
        full = lam.min(axis=-1) > 1e-9 * lam.max(axis=-1)
        lam[full] *= 1 + 1e-6
        return lam, vec

    monkeypatch.setattr(np.linalg, "eigh", skewed)


# The first tick at which K has rank 3, per trial: block 0 holds trials 0 and 1, block 1
# trials 2 and 3.  Seed 4 fails first in block 0; seed 1 in block 1, in the same chunk;
# seed 19 in block 1, a chunk before block 0 fails.
@pytest.mark.parametrize("seed, first", [(4, 20), (1, 17), (19, 36)])
def test_solve_failure_met_first_by_the_serial_loop_wins(monkeypatch, seed, first):
    model, spec, rule = slow_ring()
    args = (model, spec, rule, AlphaSchedule(), 400, 4)
    _skewed_eigh(monkeypatch)
    serial, sharded = _serial_and_sharded(
        monkeypatch, lambda: run_token_trials(*args, master_seed=seed, readers=TOKEN_READERS)
    )
    assert type(serial) is type(sharded) is SolveFailed
    assert str(serial).endswith(f" at t={first}")
    assert str(sharded) == str(serial)


def test_solve_failure_in_every_block_at_once_names_the_worst_residual(monkeypatch):
    # every block fails at t=0, and the serial loop reports the worst residual over all
    # trials; at this seed it is in block 1
    monkeypatch.setattr(kernels, "ESTIMATE_RTOL", -1.0)
    model, spec, rule = slow_ring()
    args = (model, spec, rule, AlphaSchedule(), 100, 6)
    serial, sharded = _serial_and_sharded(
        monkeypatch, lambda: run_token_trials(*args, master_seed=1, readers=TOKEN_READERS)
    )
    assert type(sharded) is SolveFailed and str(serial).endswith(" at t=0")
    assert str(sharded) == str(serial)


def _nan_model() -> tuple:
    """Three agents on a static triangle whose noise sampler returns only NaN."""
    rows = ([1.0, 0.0], [0.0, 1.0], [1.0, 1.0])
    agents = [AgentModel(i, h, [[1.0]]) for i, h in enumerate(rows)]
    model = GlobalModel(agents, [2.0, -1.0], noise=lambda rng, shape: np.full(shape, np.nan))
    return model, StaticGraph(~np.eye(3, dtype=bool)), OutDegreeReciprocal(), AlphaSchedule()


_NAN_RUNS = {
    "estimate solve residual nan at t=0": lambda args: run_token_trials(
        *args, horizon=10, trials=64, readers={"sq_err": ignore}
    ),
    "oracle solve residual nan": lambda args: central_trials(args[0], 10, 64),
}


@pytest.mark.parametrize("message", list(_NAN_RUNS), ids=["estimate", "oracle"])
def test_nan_residual_fails_the_guard_as_in_the_scalar_path(monkeypatch, message):
    # a NaN residual fails `worst > rtol`, so the engine's estimate and oracle guards let
    # an all-NaN run through, while run_episode's `not rel <= rtol` raised at t=0.  The
    # scalar path's failure has the engine's text, tick and residual
    args = _nan_model()
    with pytest.raises(SolveFailed) as scalar:
        run_episode(*args, horizon=10, seed=trial_seed(0, 0))
    assert str(scalar.value) == "estimate solve residual nan at t=0" == next(iter(_NAN_RUNS))
    assert scalar.value.tick == 0 and np.isnan(scalar.value.residual)
    serial, sharded = _serial_and_sharded(monkeypatch, lambda: _NAN_RUNS[message](args))
    assert type(serial) is type(sharded) is SolveFailed
    assert str(serial) == str(sharded) == message


def test_diverging_ci_config_raises_as_in_one_process(monkeypatch, ref5_iid):
    cfg = CiConfig(a=1.0, b=80.0, tau1=1.0, tau2=0.01)
    args = (make_ref5_model(), ref5_iid, [cfg], 400, 4)
    serial, sharded = _serial_and_sharded(
        monkeypatch, lambda: run_ci_trials(*args, readers={"netavg": ignore})
    )
    assert type(serial) is type(sharded) is NonFiniteMetric
    assert str(sharded) == str(serial)


def test_ci_grid_divergence_in_one_block_flags_the_candidate(monkeypatch, ref5_model, ref5_iid):
    # at this horizon the first candidate diverges in trials 4..7 but not in 0..3
    cfgs = [CiConfig(a=1.0, b=1.0, tau1=1.0, tau2=0.01), CiConfig(a=1.0, b=0.2, tau1=1.0, tau2=0.5)]
    results = []
    for cpus in (1, 2):
        with monkeypatch.context() as m:
            _shard(m, cpus)
            results.append(run_ci_trials(ref5_model, ref5_iid, cfgs, 1400, trials=8, master_seed=0))
    serial, sharded = results
    assert serial.diverged.tolist() == sharded.diverged.tolist() == [True, False]
    assert np.array_equal(serial.final_sq_err, sharded.final_sq_err)
    _no_worker_left()


def test_diverged_candidate_does_not_leak_into_its_neighbours(monkeypatch, ref5_model, ref5_iid):
    # every candidate steps to the horizon, the first one's non-finite state in the stacked arrays
    stable = CiConfig(a=1.0, b=0.2, tau1=1.0, tau2=0.5)
    cfgs = [CiConfig(a=1.0, b=80.0, tau1=1.0, tau2=0.01), stable]
    for cpus in (1, 2):
        with monkeypatch.context() as m:
            _shard(m, cpus)
            stacked = run_ci_trials(ref5_model, ref5_iid, cfgs, 400, trials=4, master_seed=0)
            alone = SeriesRows(400, "netavg")
            run_ci_trials(ref5_model, ref5_iid, [stable], 400, 4, readers=alone.readers)
        _no_worker_left()
        assert stacked.diverged.tolist() == [True, False]
        assert np.isinf(stacked.final_sq_err[:, 0]).all()
        assert np.array_equal(stacked.final_sq_err[:, 1], alone["netavg"][:, -1])


def test_exhausted_sequence_raises_as_in_one_process(monkeypatch, ref5_model, ref5_static):
    frames = [ref5_static.backbone] * 3
    spec = DeterministicSequence(frames, cycle=False)
    args = (ref5_model, spec, OutDegreeReciprocal(), AlphaSchedule())
    serial, sharded = _serial_and_sharded(
        monkeypatch, lambda: run_token_trials(*args, horizon=100, trials=4, readers=TOKEN_READERS)
    )
    assert type(serial) is type(sharded) is SequenceExhausted
    assert str(sharded) == str(serial) == "no frame for t=3; sequence has 3"


def test_walk_guard_names_the_step_the_serial_loop_meets_first(monkeypatch):
    # a sampler that always draws the last compact column, on an i.i.d. reference graph from
    # node 0: a trial leaves the graph at t=0 where its edge to node 2 is down, else at t=1
    # or t=2.  At this seed block 1 (trials 2 and 3) leaves it first, in the same chunk as
    # block 0, at an earlier tick
    spec = IidFailureGraph(ref5_adjacency(), p_fail=0.5)
    monkeypatch.setattr(
        "roamtoken.chain._sample_rows", lambda cum, u: np.full(len(u), cum.shape[1] - 1)
    )
    args = (spec, OutDegreeReciprocal(), 0, 10, 4)
    serial, sharded = _serial_and_sharded(
        monkeypatch, lambda: run_chain_trials(*args, master_seed=5)
    )
    assert type(serial) is type(sharded) is RuntimeError
    assert str(sharded) == str(serial) == "token jumped a nonexistent edge at t=0 in trial 2"


def test_failure_while_a_worker_waits_on_a_full_ring():
    # the ring's one slot: block 0 (trials 0, 1) waits for the parent's credit after every
    # chunk, while block 1 (trials 2, 3) fails in the oracle at t=300, in the fifth chunk,
    # where trial 2 meets a poisoned row of running means; the parent must release block 0,
    # reap both workers and raise what the serial loop raises
    script = textwrap.dedent(
        """
        import os
        import numpy as np
        import roamtoken._sharding as sharding
        import roamtoken.engine as engine
        from roamtoken import AlphaSchedule, OutDegreeReciprocal, SolveFailed, StaticGraph
        from conftest import make_ref5_model, ref5_adjacency
        from references import ignore

        solver = engine.central_solver
        model, spec = make_ref5_model(), StaticGraph(ref5_adjacency())
        args = (model, spec, OutDegreeReciprocal(), AlphaSchedule())
        seen = []
        readers = dict.fromkeys(("sq_err", "last_seen", "visited", "central"), ignore)

        def recording(m):
            solve = solver(m)
            return lambda means: seen.append(means.copy()) or solve(means)

        engine.central_solver = recording
        engine.run_token_trials(*args, horizon=400, trials=4, readers=readers)
        poison = seen[4][300 - 4 * engine.CHUNK_TICKS, 2]

        def poisoned(m):
            solve = solver(m)

            def checked(means):
                if np.isclose(means, poison, rtol=1e-12, atol=0).all(axis=-1).any():
                    raise SolveFailed("oracle solve residual 1.000e+00", residual=1.0)
                return solve(means)

            return checked

        engine.central_solver = poisoned
        sharding.SHARD_MIN_TRIALS = 0
        for cpus in (1, 2):
            sharding._usable_cpus = lambda: cpus
            try:
                engine.run_token_trials(*args, horizon=400, trials=4, readers=readers)
            except SolveFailed as exc:
                print(cpus, type(exc).__name__, exc, exc.residual)
        try:
            os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            print("no worker left")
        """
    )
    path = os.pathsep.join(str(ROOT / d) for d in ("src", "tests"))
    out = subprocess.run(
        [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120, check=True,
    )
    failure = "SolveFailed oracle solve residual 1.000e+00 1.0"
    assert out.stdout.splitlines() == [f"1 {failure}", f"2 {failure}", "no worker left"]


def test_ring_holds_one_chunk_of_each_read_series(monkeypatch, ref5_model, ref5_static):
    # two workers and the CLI's three token readers: besides trial 0's trace, one row per
    # series, one (trials, CHUNK_TICKS) slot per series read, whatever the horizon
    _shard(monkeypatch, 2)
    shared = sharding._shared_zeros
    allocs = []

    def recording(shape, dtype):
        allocs.append((shape, np.dtype(dtype).itemsize))
        return shared(shape, dtype)

    monkeypatch.setattr(sharding, "_shared_zeros", recording)
    readers = dict.fromkeys(("sq_err", "last_seen", "central"), ignore)
    trials, horizon = 10, 300
    run_token_trials(
        ref5_model, ref5_static, OutDegreeReciprocal(), AlphaSchedule(), horizon, trials,
        readers=readers,
    )
    _no_worker_left()
    trace = [((1, horizon + 1), 8)] * 4  # holder, visited, sq_err and last_seen
    assert allocs[:4] == trace
    ring = sum(int(np.prod(shape)) * size for shape, size in allocs[4:])
    assert ring == 3 * trials * engine.CHUNK_TICKS * 8


def test_only_trial_0s_block_writes_the_trace(monkeypatch, ref5_model, ref5_static):
    # two workers: trial 0's trace is one row of each array, which only block 0 holds
    _shard(monkeypatch, 2)
    shared = sharding._shared_zeros
    allocs = []
    monkeypatch.setattr(sharding, "_shared_zeros", lambda *a: allocs.append(shared(*a)) or allocs[-1])
    horizon = 150
    token = run_token_trials(
        ref5_model, ref5_static, OutDegreeReciprocal(), AlphaSchedule(), horizon, 10,
        readers=TOKEN_READERS,
    )
    _no_worker_left()
    trace = allocs[:4]  # holder, visited, sq_err and last_seen
    assert [rows.shape for rows in trace] == [(1, horizon + 1)] * 4
    trial0 = token.trial0
    expected = (trial0.holder, trial0.visited_count, trial0.token_sq_err)
    assert all(np.array_equal(rows[0], e) for rows, e in zip(trace, expected))
    assert trial0.token_sq_err.any()


_SERIES_RUNS = {
    "token": lambda model, spec, horizon, readers: run_token_trials(
        model, spec, OutDegreeReciprocal(), AlphaSchedule(), horizon, 7, master_seed=5,
        readers=readers,
    ),
    "central": lambda model, _, horizon, readers: central_trials(
        model, horizon, 7, master_seed=5, readers=readers
    ),
    "ci": lambda model, spec, horizon, readers: run_ci_trials(
        model, spec, [CiConfig(a=1.0, b=0.3, tau1=1.0, tau2=0.5)], horizon, 7, master_seed=5,
        readers=readers,
    ),
}
_SERIES_READ = {"token": ("sq_err", "visited", "last_seen", "central"),
                "central": ("central",), "ci": ("netavg",)}
# horizons whose horizon + 1 ticks end at and next to chunk edges: one 1-tick chunk, one
# full chunk (no credit), a 1-tick second chunk, and two full chunks (one credit)
_EDGES = {"1": 0, "C": engine.CHUNK_TICKS - 1, "C+1": engine.CHUNK_TICKS,
          "2C": 2 * engine.CHUNK_TICKS - 1}


@pytest.mark.parametrize("horizon", list(_EDGES.values()), ids=list(_EDGES))
@pytest.mark.parametrize("kind", list(_SERIES_RUNS))
def test_series_reach_their_readers_whole_at_chunk_edges(monkeypatch, ref5_iid, kind, horizon):
    # three workers, each filling its rows of the one slot per series after it computes a
    # chunk; every reader gets each chunk once, in order, with the serial run's bits
    ticks = horizon + 1

    def run(cpus: int) -> dict[str, list[tuple[int, np.ndarray]]]:
        seen = {k: [] for k in _SERIES_READ[kind]}
        readers = {k: lambda chunk, t0, k=k: seen[k].append((t0, chunk.copy()))
                   for k in seen}
        with monkeypatch.context() as m:
            _shard(m, cpus)
            _SERIES_RUNS[kind](make_ref5_model(), ref5_iid, horizon, readers)
        _no_worker_left()
        return seen

    serial, sharded = run(1), run(3)
    for k, chunks in sharded.items():
        assert [t0 for t0, _ in chunks] == list(range(0, ticks, engine.CHUNK_TICKS))
        assert [c.shape for _, c in chunks] == [
            (7, min(engine.CHUNK_TICKS, ticks - t0)) for t0, _ in chunks
        ]
        assert [t0 for t0, _ in serial[k]] == [t0 for t0, _ in chunks]
        assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(serial[k], chunks)), k


def test_workers_run_no_exit_handler_and_flush_nothing():
    # stdout is a pipe, so the first line is still in the buffer when the workers fork
    script = textwrap.dedent(
        """
        import atexit
        import roamtoken._sharding as sharding
        import roamtoken.engine as engine
        from roamtoken import CiConfig, IidFailureGraph, NonFiniteMetric
        from conftest import make_ref5_model
        from references import central_trials, ignore
        import numpy as np

        sharding.SHARD_MIN_TRIALS = 0
        sharding._usable_cpus = lambda: 2
        atexit.register(print, "exit handler")
        print("before the runs")
        model = make_ref5_model()
        central_trials(model, horizon=10, trials=4)
        graph = IidFailureGraph(~np.eye(5, dtype=bool), p_fail=0.5)
        cfg = CiConfig(1.0, 80.0, 1.0, 0.01)
        try:
            engine.run_ci_trials(model, graph, [cfg], 400, trials=4, readers={"netavg": ignore})
        except NonFiniteMetric:
            print("failed once")
        """
    )
    path = os.pathsep.join(str(ROOT / d) for d in ("src", "tests"))
    out = subprocess.run(
        [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert out.stdout.splitlines() == ["before the runs", "failed once", "exit handler"]
