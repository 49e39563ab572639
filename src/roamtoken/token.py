"""The token-passing distributed estimator.

Every agent keeps a running statistic ``x_i = W_i ybar_i`` over its own
measurements.  A single token hops between agents along currently available
edges, carrying the fused vector ``d`` (sum of each visited agent's statistic
at its last visit) and the matrix ``K`` (sum of visited agents' information
matrices).  The holder's estimate is the regularized solve

    s(t) = (I / alpha(t) + K)^{-1} d,

which is well posed for any positive ``alpha`` because ``K`` is positive
semidefinite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from ._linalg import solve_spd
from ._sharding import CHUNK_TICKS
from ._streams import SeedLike, episode_streams
from .chain import TransitionRule, bulk_step
from .errors import SolveFailed
from .graphs import GraphSpec, check_start_node
from .observation import GlobalModel, sample_measurements

ESTIMATE_RTOL = 1e-8


@dataclass(eq=False)
class AlphaSchedule:
    """Regularization schedule ``alpha(t) = c * (t + 1)**q``.

    Positive at t=0; q > 1/2 keeps ``t / alpha(t)^2`` vanishing.  The default
    ``c = q = 1`` is ``t + 1`` bit for bit.
    """

    c: float = 1.0
    q: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.c) and math.isfinite(self.q) and self.c > 0 and self.q > 0.5):
            raise ValueError(f"schedule needs finite c > 0 and q > 1/2, got c={self.c} q={self.q}")

    def alpha(self, t: int) -> float:
        return self.c * float(t + 1) ** self.q


@dataclass(eq=False)
class EpisodeTrace:
    """Per-tick series of one episode.

    ``run_episode`` fills every field.  The token engine's trial 0 fills the
    first five; the spec-only fields from ``estimates`` on stay None.
    """

    horizon: int
    holder: np.ndarray
    visited_count: np.ndarray
    token_sq_err: np.ndarray
    mean_last_seen_sq_err: np.ndarray
    estimates: np.ndarray | None = None
    d_hist: np.ndarray | None = None
    K_hist: np.ndarray | None = None
    tau: np.ndarray | None = None
    x_hist: np.ndarray | None = None


def run_episode(
    model: GlobalModel,
    spec: GraphSpec,
    rule: TransitionRule,
    schedule: AlphaSchedule,
    horizon: int,
    start_node: int = 0,
    seed: SeedLike = 0,
) -> EpisodeTrace:
    """One full episode of the token algorithm, the spec the batched engine is tested against.

    Row ``i`` of ``x`` is agent ``i``'s statistic ``W_i ybar_i`` and row ``i``
    of ``x_seen`` its contribution inside ``d``, the statistic it had when it
    last held the token.  Each tick: every agent measures and updates its
    statistic; the holder replaces its contribution in ``d`` and, on its first
    visit, adds its ``B_i`` to ``K``; the estimate is solved (its error
    becomes the holder's last-seen error); an adjacency is drawn and the token
    steps, along an edge of it or by holding, or RuntimeError is raised.
    Strictly sequential and reproducible from ``seed``, which feeds three
    independent streams (noise, graph, move).
    """
    if spec.n != model.n_agents:
        raise ValueError(f"graph has {spec.n} nodes but model has {model.n_agents} agents")
    check_start_node(spec, start_node)
    n, dim = model.n_agents, model.dim
    streams = episode_streams(seed)
    x = np.zeros((n, dim))
    x_seen = np.zeros((n, dim))
    last_visit = np.full(n, -1, dtype=np.int64)
    visited = np.zeros(n, dtype=bool)
    d, K, node = np.zeros(dim), np.zeros((dim, dim)), int(start_node)

    size = horizon + 1
    holder = np.zeros(size, dtype=np.int64)
    visited_count = np.zeros(size, dtype=np.int64)
    token_sq, last_seen_sq = np.zeros(size), np.zeros(size)
    estimates, d_hist = np.zeros((size, dim)), np.zeros((size, dim))
    k_hist = np.zeros((size, dim, dim))
    tau, x_hist = np.zeros((size, n), dtype=np.int64), np.zeros((size, n, dim))

    last_seen_err = np.full(n, float(model.theta @ model.theta))
    theta = model.theta

    for t in range(size):
        ys = sample_measurements(model, streams.noise)
        x += (np.stack([a.W @ y for a, y in zip(model.agents, ys)]) - x) / (t + 1)
        d += x[node] - x_seen[node]
        x_seen[node] = x[node]
        last_visit[node] = t
        if not visited[node]:
            visited[node] = True
            K += model.agents[node].B
        try:
            s = solve_spd(K + np.eye(dim) / schedule.alpha(t), d, rtol=ESTIMATE_RTOL)
        except np.linalg.LinAlgError as exc:
            raise SolveFailed(f"estimate solve at t={t}: {exc}") from None
        except ArithmeticError as exc:  # the engine's message, residual and tick
            msg = f"estimate solve residual {exc.residual:.3e} at t={t}"
            raise SolveFailed(msg, residual=exc.residual, tick=t) from None

        err = s - theta
        sq = float(err @ err)
        last_seen_err[node] = sq
        holder[t], visited_count[t] = node, visited.sum()
        token_sq[t], last_seen_sq[t] = sq, last_seen_err[visited].sum() / visited.sum()
        estimates[t], d_hist[t], k_hist[t], tau[t], x_hist[t] = s, d, K, last_visit, x

        adj = spec.adjacency(t, streams.graph.random(spec.draws))
        nxt = int(bulk_step(np.array([node]), adj[[node]], rule, streams.move.random(1))[0])
        if nxt != node and not adj[node, nxt]:
            raise RuntimeError(f"token jumped a nonexistent edge at t={t}")
        node = nxt

    return EpisodeTrace(
        horizon=horizon,
        holder=holder,
        visited_count=visited_count,
        token_sq_err=token_sq,
        mean_last_seen_sq_err=last_seen_sq,
        estimates=estimates,
        d_hist=d_hist,
        K_hist=k_hist,
        tau=tau,
        x_hist=x_hist,
    )


def write_trace_csv(trace: EpisodeTrace, path) -> None:
    """Per-tick trace export: t, holder, visited_count, token_sq_err, mean_last_seen_sq_err."""
    series = (trace.holder, trace.visited_count, trace.token_sq_err, trace.mean_last_seen_sq_err)
    rows = enumerate(column_rows(*(a[: trace.horizon + 1] for a in series)))
    write_csv_lines(
        path, "t,holder,visited_count,token_sq_err,mean_last_seen_sq_err",
        (f"{t},{h},{c},{e:.17g},{s:.17g}" for t, (h, c, e, s) in rows),
    )


def column_rows(*columns: np.ndarray) -> Iterator[tuple]:
    """Equally long ``columns`` row by row, in Python scalars converted a chunk at a time."""
    for t0 in range(0, len(columns[0]), CHUNK_TICKS):
        yield from zip(*(c[t0 : t0 + CHUNK_TICKS].tolist() for c in columns))


def write_csv_lines(path, header: str, rows: Iterable[str]) -> None:
    """Write ``header`` and ``rows``, CSV lines joined beforehand, with ``csv.writer``'s bytes.

    No field the package writes needs quoting; the line ends are csv's ``\\r\\n``."""
    with open(path, "w", newline="") as fh:
        fh.write(f"{header}\r\n")
        fh.writelines(f"{line}\r\n" for line in rows)
