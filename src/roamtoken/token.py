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

from dataclasses import dataclass, field

import numpy as np

from ._linalg import solve_spd
from ._streams import SeedLike, episode_streams
from .chain import TransitionRule, bulk_step
from .errors import SolveFailed
from .graphs import GraphSpec
from .observation import AgentModel, GlobalModel, sample_measurements

ESTIMATE_RTOL = 1e-8

DEFAULT_RECORD = frozenset({"token_sq_err", "last_seen"})
RECORDABLE = frozenset(
    {"token_sq_err", "last_seen", "estimates", "payload", "local_stats", "tau"}
)


@dataclass(eq=False)
class AlphaSchedule:
    """Regularization schedule ``alpha(t)``.

    ``linear`` is ``t + 1`` (positive at t=0, linear growth satisfies both
    rate conditions).  ``power`` is ``c * (t + 1)**q`` and requires q > 1/2 so
    that ``t / alpha(t)^2`` still vanishes.
    """

    form: str = "linear"
    c: float = 1.0
    q: float = 1.0

    def __post_init__(self) -> None:
        if self.form not in ("linear", "power"):
            raise ValueError(f"unknown alpha form {self.form!r}")
        if self.form == "power":
            if self.c <= 0:
                raise ValueError("power schedule needs c > 0")
            if self.q <= 0.5:
                raise ValueError("power schedule needs q > 1/2 for rate-optimal runs")

    def alpha(self, t: int) -> float:
        if self.form == "linear":
            return float(t + 1)
        return self.c * float(t + 1) ** self.q

    @classmethod
    def linear(cls) -> "AlphaSchedule":
        return cls("linear")

    @classmethod
    def power(cls, c: float, q: float) -> "AlphaSchedule":
        return cls("power", c, q)


@dataclass(eq=False)
class AgentLocalState:
    """What one agent stores between token visits."""

    x: np.ndarray
    x_snapshot: np.ndarray
    k: int = 0
    last_visit: int | None = None
    last_seen_estimate: np.ndarray | None = None

    @classmethod
    def zeros(cls, dim: int) -> "AgentLocalState":
        return cls(np.zeros(dim), np.zeros(dim), 0, None, np.zeros(dim))


@dataclass(eq=False)
class TokenPayload:
    """What the token carries: fused statistics, position, and visit history."""

    d: np.ndarray
    K: np.ndarray
    position: int
    visited: set[int] = field(default_factory=set)

    @classmethod
    def initial(cls, dim: int, start_node: int) -> "TokenPayload":
        return cls(np.zeros(dim), np.zeros((dim, dim)), int(start_node), set())


def local_update(state: AgentLocalState, agent: AgentModel, y: np.ndarray) -> None:
    """Absorb one measurement into the running statistic, in place.

    After k measurements, ``x`` equals ``W`` applied to their arithmetic mean.
    """
    state.k += 1
    target = agent.W @ np.asarray(y, dtype=float).ravel()
    state.x += (target - state.x) / state.k


def token_visit(payload: TokenPayload, state: AgentLocalState, agent: AgentModel, t: int) -> None:
    """Record the holder's current statistic into the payload, in place.

    Replaces the agent's previous contribution in ``d`` with its current one;
    adds the agent's information matrix to ``K`` on the first visit.
    """
    if payload.position != agent.id:
        raise ValueError(f"token is at node {payload.position}, not agent {agent.id}")
    payload.d += state.x - state.x_snapshot
    if agent.id not in payload.visited:
        payload.visited.add(agent.id)
        payload.K += agent.B
    state.x_snapshot = state.x.copy()
    state.last_visit = t


def estimate(payload: TokenPayload, schedule: AlphaSchedule, t: int) -> np.ndarray:
    """The holder's estimate ``(I/alpha(t) + K)^{-1} d`` by SPD solve."""
    a = schedule.alpha(t)
    if a <= 0:
        raise ValueError(f"alpha({t}) = {a} must be positive")
    m = payload.K + np.eye(payload.K.shape[0]) / a
    try:
        return solve_spd(m, payload.d, rtol=ESTIMATE_RTOL)
    except (np.linalg.LinAlgError, ArithmeticError) as exc:
        raise SolveFailed(f"estimate solve at t={t}: {exc}") from None


@dataclass(eq=False)
class EpisodeTrace:
    """Per-tick series recorded by one episode; optional fields are None unless requested."""

    horizon: int
    theta: np.ndarray
    holder: np.ndarray
    visited_count: np.ndarray
    token_sq_err: np.ndarray | None = None
    mean_last_seen_sq_err: np.ndarray | None = None
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
    record: frozenset[str] | set[str] = DEFAULT_RECORD,
    seed: SeedLike = 0,
) -> EpisodeTrace:
    """One full episode of the token algorithm.

    Each tick: every agent measures and updates its statistic; the holder
    records itself into the payload; the estimate is computed (and saved as
    the holder's last-seen estimate); an adjacency is drawn and the token
    steps.  Strictly sequential and reproducible from ``seed``, which feeds
    three independent streams (noise, graph, move).
    """
    if spec.n != model.n_agents:
        raise ValueError(f"graph has {spec.n} nodes but model has {model.n_agents} agents")
    unknown = set(record) - RECORDABLE
    if unknown:
        raise ValueError(f"unknown record keys: {sorted(unknown)}")
    n, dim = model.n_agents, model.dim
    streams = episode_streams(seed)
    states = [AgentLocalState.zeros(dim) for _ in range(n)]
    payload = TokenPayload.initial(dim, start_node)

    size = horizon + 1
    holder = np.zeros(size, dtype=np.int64)
    visited_count = np.zeros(size, dtype=np.int64)
    token_sq = np.zeros(size) if "token_sq_err" in record else None
    last_seen_sq = np.zeros(size) if "last_seen" in record else None
    estimates = np.zeros((size, dim)) if "estimates" in record else None
    d_hist = np.zeros((size, dim)) if "payload" in record else None
    k_hist = np.zeros((size, dim, dim)) if "payload" in record else None
    tau = np.full((size, n), -1, dtype=np.int64) if "tau" in record else None
    x_hist = np.zeros((size, n, dim)) if "local_stats" in record else None

    last_seen_err = np.full(n, float(model.theta @ model.theta))
    theta = model.theta

    for t in range(size):
        batch = sample_measurements(model, t, streams.noise)
        for i, agent in enumerate(model.agents):
            local_update(states[i], agent, batch.ys[i])
        node = payload.position
        token_visit(payload, states[node], model.agents[node], t)
        s = estimate(payload, schedule, t)
        states[node].last_seen_estimate = s

        err = s - theta
        sq = float(err @ err)
        last_seen_err[node] = sq
        holder[t] = node
        visited_count[t] = len(payload.visited)
        if token_sq is not None:
            token_sq[t] = sq
        if last_seen_sq is not None:
            mask = np.zeros(n, dtype=bool)
            mask[list(payload.visited)] = True
            last_seen_sq[t] = last_seen_err[mask].sum() / mask.sum()
        if estimates is not None:
            estimates[t] = s
        if d_hist is not None:
            d_hist[t] = payload.d
            k_hist[t] = payload.K
        if tau is not None:
            tau[t] = [st.last_visit if st.last_visit is not None else -1 for st in states]
        if x_hist is not None:
            x_hist[t] = [st.x for st in states]

        a = spec.adjacency(t, streams.graph.random(spec.draws))
        nxt = bulk_step(np.array([node]), a[[node]], rule, streams.move.random(1))
        payload.position = int(nxt[0])

    return EpisodeTrace(
        horizon=horizon,
        theta=theta.copy(),
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
    from .errors import MissingTrace

    if trace.token_sq_err is None or trace.mean_last_seen_sq_err is None:
        raise MissingTrace("trace export needs token_sq_err and last_seen recorded")
    import csv

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
