"""Scalar per-tick references that the batched engine is checked against.

``ci_step`` is one consensus+innovations update written agent by agent, and
``central_estimate`` is the oracle solved from scratch for one trial.  The
package computes both only in batched form, in ``engine.run_ci_trials`` and
through ``observation.central_solver``.  ``stationary_distribution`` is the
long-run law the token's visit frequencies are checked against.
``csv_metrics``, ``csv_compare`` and ``csv_trace`` write the three CSV
exports row by row through ``csv.writer``, as the package once did; its
joined-line writers must match their bytes.  The engines hand each per-tick
series to a reader a chunk at a time: ``SeriesRows`` keeps whole rows of the
series a test reads, ``ignore`` drops them, and ``tick_stats`` reduces whole
rows as a run's ``TickStats`` reduces its chunks.  ``central_trials`` runs
the oracle alone as ``algorithms: [central]`` does: through the token engine,
whose ``central`` series it reads.
``verify_sequential_connectivity`` samples window-connected sequences and
checks acceptance 5's lemma, all-pairs ``sequential_reachability``, on each.
``relative_degree``, ``write_adjacency`` and ``write_frames_csv`` measure a
generated backbone and write the two graph files that configs read.
``identity_deviations`` recomputes an episode's payload tick by tick: the
loop that ``harness.verify_state_identity`` runs over all ticks at once.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass, field
from functools import partial
from typing import Mapping, Sequence

import numpy as np

from roamtoken import (
    AgentModel,
    AlphaSchedule,
    CiConfig,
    GlobalModel,
    OutDegreeReciprocal,
    SingularModel,
    StaticGraph,
    fisher_information,
)
from roamtoken._linalg import solve_spd
from roamtoken._sharding import Reader
from roamtoken._streams import derived_stream
from roamtoken.engine import CHUNK_TICKS, TickStats, Trials, run_token_trials
from roamtoken.graphs import as_adjacency, smallest_connected_window
from roamtoken.observation import SOLVE_RTOL

# Draws of a random window-connected sequence before a sample is given up.
SEQUENCE_ATTEMPTS = 200


class SeriesRows(dict):
    """Whole (trials, horizon + 1) rows of the series in ``names``, kept by ``readers``.

    ``readers`` maps each name to a series reader that copies each chunk into
    the series' rows, made in its dtype at the first chunk.
    """

    def __init__(self, horizon: int, *names: str) -> None:
        super().__init__()
        self.ticks = horizon + 1
        self.readers = {name: partial(self._keep, name) for name in names}

    def _keep(self, name: str, chunk: np.ndarray, t0: int) -> None:
        if name not in self:
            self[name] = np.zeros((len(chunk), self.ticks), chunk.dtype)
        self[name][:, t0 : t0 + chunk.shape[1]] = chunk


def ignore(chunk: np.ndarray, t0: int) -> None:
    """A series reader that drops every chunk."""


def tick_stats(rows: np.ndarray) -> TickStats:
    """The ``TickStats`` of whole (trials, ticks) rows, read a chunk at a time."""
    stats = TickStats(*rows.shape)
    for t0 in range(0, rows.shape[1], CHUNK_TICKS):
        stats(rows[:, t0 : t0 + CHUNK_TICKS], t0)
    return stats


def central_trials(
    model: GlobalModel,
    horizon: int,
    trials: int,
    master_seed: int = 0,
    readers: Mapping[str, Reader] | None = None,
) -> Trials:
    """``run_token_trials`` on the complete static graph, its series read by ``readers``.

    By default only ``central`` is read, by ``ignore``.  The oracle's series
    depends on the noise streams alone, so the graph, the rule and the
    schedule do not change it.
    """
    spec = StaticGraph(~np.eye(model.n_agents, dtype=bool))
    return run_token_trials(
        model, spec, OutDegreeReciprocal(), AlphaSchedule(), horizon, trials,
        master_seed=master_seed, readers={"central": ignore} if readers is None else readers,
    )


def ci_step(
    s: np.ndarray,
    model: GlobalModel,
    a: np.ndarray,
    ys: Sequence[np.ndarray],
    cfg: CiConfig,
    t: int,
    gains: Sequence[np.ndarray] | None = None,
) -> np.ndarray:
    """One synchronous update of every agent's (n, L) estimate.

    Neighbors are the out-neighbors in the current adjacency (information
    flows along directed edges).  ``gains``, one (L, L) matrix per agent,
    multiplies each agent's innovation; the package has none.
    """
    s = np.atleast_2d(np.asarray(s, dtype=float))
    adj = np.asarray(a, dtype=float)
    deg = adj.sum(axis=1)
    consensus = deg[:, None] * s - adj @ s
    innovation = np.zeros_like(s)
    for i, agent in enumerate(model.agents):
        resid = ys[i] - agent.H @ s[i]
        innovation[i] = agent.W @ resid if gains is None else gains[i] @ (agent.W @ resid)
    return s - cfg.beta(t) * consensus + cfg.alpha(t) * innovation


def central_estimate(agents: Sequence[AgentModel], running_means: Sequence[np.ndarray]) -> np.ndarray:
    """The oracle estimate from per-agent measurement running means.

    Solves ``sigma_c x = sum_i W_i ybar_i`` by SPD factorization.
    """
    sigma = fisher_information(agents)
    rhs = np.zeros(agents[0].dim)
    for a, ybar in zip(agents, running_means):
        rhs += a.W @ np.asarray(ybar, dtype=float).ravel()
    try:
        return solve_spd(sigma, rhs, rtol=SOLVE_RTOL)
    except (np.linalg.LinAlgError, ArithmeticError) as exc:
        raise SingularModel(f"oracle solve failed: {exc}") from None


def stationary_distribution(q: np.ndarray) -> np.ndarray:
    """The stationary row vector of an irreducible stochastic matrix."""
    q = np.asarray(q, dtype=float)
    n = q.shape[0]
    m = q.T - np.eye(n)
    m[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    pi = np.linalg.solve(m, b)
    if pi.min() < -1e-10:
        raise ValueError("chain is not irreducible: negative stationary mass")
    return np.clip(pi, 0.0, None) / pi.sum()


def csv_metrics(path, metrics) -> None:
    """``harness.write_metrics_csv`` through ``csv.writer``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "metric", "value", "ci_half_width", "trials"])
        for name in sorted(metrics):
            series = metrics[name]
            for t, (v, hw) in enumerate(zip(series.values, series.half_widths)):
                writer.writerow([t, name, f"{v:.17g}", f"{hw:.17g}", series.trials])


def csv_compare(path, metrics) -> None:
    """``harness.write_compare_csv`` through ``csv.writer``."""
    names = sorted(metrics)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + names + [f"{n}_half_width" for n in names])
        for t in range(len(metrics[names[0]].values)):
            row: list = [t]
            row += [f"{metrics[n].values[t]:.17g}" for n in names]
            row += [f"{metrics[n].half_widths[t]:.17g}" for n in names]
            writer.writerow(row)


def csv_trace(trace, path) -> None:
    """``token.write_trace_csv`` through ``csv.writer``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "holder", "visited_count", "token_sq_err", "mean_last_seen_sq_err"])
        for t in range(trace.horizon + 1):
            writer.writerow(
                [
                    t,
                    int(trace.holder[t]),
                    int(trace.visited_count[t]),
                    f"{trace.token_sq_err[t]:.17g}",
                    f"{trace.mean_last_seen_sq_err[t]:.17g}",
                ]
            )


def relative_degree(a: np.ndarray) -> float:
    """Directed edge count over n(n-1), the number of possible edges."""
    a = as_adjacency(a)
    n = a.shape[0]
    if n < 2:
        raise ValueError("relative degree needs at least two nodes")
    return float(a.sum()) / (n * (n - 1))


def write_adjacency(path, a: np.ndarray) -> None:
    """The 0/1 matrix rows that ``graph.backbone_file`` names."""
    np.savetxt(path, as_adjacency(a).astype(int), fmt="%d")


def write_frames_csv(path, frames: Sequence[np.ndarray]) -> None:
    """Edge-list export, one row per edge: t, from, to."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "from", "to"])
        for t, frame in enumerate(frames):
            for src, dst in np.argwhere(np.asarray(frame, dtype=bool)):
                writer.writerow([t, int(src), int(dst)])


def sequential_reachability(frames: Sequence[np.ndarray] | np.ndarray) -> np.ndarray:
    """All-pairs sequential connectivity with self-loops over (T, n, n) or (T, W, n, n) frames."""
    frames = np.asarray(frames, dtype=bool)
    reach = np.broadcast_to(np.eye(frames.shape[-1], dtype=bool), frames.shape[1:]).copy()
    for f in frames:
        reach |= reach @ f
    return reach


@dataclass(eq=False)
class SequentialConnectivityReport:
    """Window-connected deterministic sequences vs frontier reachability."""

    passed: bool
    checked: int
    counterexamples: list[str] = field(default_factory=list)

    def summary(self) -> str:
        state = "PASS" if self.passed else "FAIL"
        return f"{state} sequential connectivity: sequences={self.checked}"


def _random_window_connected_sequence(
    n: int, b: int, length: int, rng: np.random.Generator
) -> np.ndarray | None:
    """A (length, n, n) stack of frames without self-loops whose b-window unions all connect."""
    for _ in range(SEQUENCE_ATTEMPTS):
        p_edge = rng.uniform(0.25, 0.9)
        frames = rng.random((length, n, n)) < p_edge  # the draws of one (n, n) frame at a time
        frames[:, np.arange(n), np.arange(n)] = False
        if smallest_connected_window(frames, cycle=False) in range(1, b + 1):
            return frames
    return None


def verify_sequential_connectivity(
    n_values: Sequence[int] = (2, 3, 4),
    b_values: Sequence[int] = (1, 2),
    samples_per_combo: int = 2000,
    master_seed: int = 0,
) -> SequentialConnectivityReport:
    """Sample window-connected sequences and check all-pairs frontier reachability.

    For every sampled sequence whose complete b-windows all have strongly
    connected unions, every ordered node pair must be sequentially connected
    with self-loops within each window of (n-1)*b frames.
    """
    rng = derived_stream(master_seed, 7)
    checked = 0
    counterexamples: list[str] = []
    for n, b in itertools.product(n_values, b_values):
        window = (n - 1) * b
        length = window + b
        for _ in range(samples_per_combo):
            frames = _random_window_connected_sequence(n, b, length, rng)
            if frames is None:
                continue
            checked += 1
            # every window start at once: step k of the window from t0 reads frame t0 + k
            starts = np.arange(length - window + 1)
            reach = sequential_reachability(frames[np.arange(window)[:, None] + starts])
            for t0 in np.flatnonzero(~reach.all(axis=(1, 2)))[:1]:  # the first failing start
                i, j = np.argwhere(~reach[t0])[0]
                counterexamples.append(
                    f"n={n} b={b} window start {t0}: no sequential path {i}->{j}"
                )
    return SequentialConnectivityReport(
        passed=not counterexamples, checked=checked, counterexamples=counterexamples
    )


def identity_deviations(model: GlobalModel, trace) -> tuple[np.ndarray, np.ndarray]:
    """Each tick's largest deviation of the logged ``d`` and ``K`` from their sums over
    the agents seen so far: each one's statistic as of its latest visit, and its ``B``."""
    b_stack = np.stack([a.B for a in model.agents])
    d_dev, k_dev = np.zeros(trace.horizon + 1), np.zeros(trace.horizon + 1)
    for t in range(trace.horizon + 1):
        seen = trace.tau[t] >= 0
        d_ref = trace.x_hist[trace.tau[t][seen], np.flatnonzero(seen)].sum(axis=0)
        d_dev[t] = np.abs(trace.d_hist[t] - d_ref).max()
        k_dev[t] = np.abs(trace.K_hist[t] - b_stack[seen].sum(axis=0)).max()
    return d_dev, k_dev
