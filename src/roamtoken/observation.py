"""Linear measurement model, information matrix, and the centralized oracle.

Each agent ``i`` observes ``y_i(t) = H_i theta + w_i(t)`` with zero-mean noise
of covariance ``C_i``, independent across agents and time.  The centralized
oracle fuses the per-agent running means through the information matrix
``sigma_c = sum_i H_i^T C_i^{-1} H_i``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ._linalg import min_eigenvalue
from .errors import SingularModel, SolveFailed

EIGENVALUE_FLOOR = 1e-10
SOLVE_RTOL = 1e-10

NoiseSampler = Callable[[np.random.Generator, tuple[int, ...]], np.ndarray]


@dataclass(eq=False)
class AgentModel:
    """One agent's observation channel.

    ``H`` is the (m_i x L) observation matrix and ``C`` the (m_i x m_i)
    symmetric positive definite noise covariance.  ``B = H^T C^{-1} H`` and
    ``W = H^T C^{-1}`` are cached at construction.
    """

    id: int
    H: np.ndarray
    C: np.ndarray
    B: np.ndarray = field(init=False)
    W: np.ndarray = field(init=False)
    chol_C: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.H = np.atleast_2d(np.asarray(self.H, dtype=float))
        self.C = np.atleast_2d(np.asarray(self.C, dtype=float))
        m = self.H.shape[0]
        if self.C.shape != (m, m):
            raise ValueError(f"agent {self.id}: C must be {m}x{m}, got {self.C.shape}")
        if not np.allclose(self.C, self.C.T, atol=1e-12):
            raise ValueError(f"agent {self.id}: C must be symmetric")
        try:
            self.chol_C = np.linalg.cholesky(self.C)
        except np.linalg.LinAlgError:
            raise ValueError(f"agent {self.id}: C must be positive definite") from None
        cinv_h = np.linalg.solve(self.C, self.H)
        self.W = np.ascontiguousarray(cinv_h.T)
        b = self.H.T @ cinv_h
        self.B = (b + b.T) / 2.0

    @property
    def n_measurements(self) -> int:
        return self.H.shape[0]

    @property
    def dim(self) -> int:
        return self.H.shape[1]


@dataclass(eq=False)
class GlobalModel:
    """The network-wide observation model and true parameter.

    ``noise`` selects the measurement noise: ``"gaussian"`` (default),
    ``"zero"`` (exact deterministic measurements), or any callable drawing
    i.i.d. zero-mean unit-variance samples of a requested shape — samples are
    colored by each agent's covariance factor, so the declared ``C_i`` holds
    for every sampler.
    """

    agents: list[AgentModel]
    theta: np.ndarray
    noise: str | NoiseSampler = "gaussian"
    sigma_c: np.ndarray = field(init=False)
    measurement_slices: list[slice] = field(init=False)  # per agent, into the stacked vector

    def __post_init__(self) -> None:
        if not self.agents:
            raise ValueError("model needs at least one agent")
        self.theta = np.asarray(self.theta, dtype=float).ravel()
        dim = self.theta.size
        for a in self.agents:
            if a.dim != dim:
                raise ValueError(f"agent {a.id}: H has {a.dim} columns, expected {dim}")
        if isinstance(self.noise, str) and self.noise not in ("gaussian", "zero"):
            raise ValueError(f"unknown noise kind {self.noise!r}")
        self.sigma_c = fisher_information(self.agents)
        ends = list(itertools.accumulate([a.n_measurements for a in self.agents], initial=0))
        self.measurement_slices = [slice(a, b) for a, b in zip(ends, ends[1:])]

    @property
    def n_agents(self) -> int:
        return len(self.agents)

    @property
    def dim(self) -> int:
        return self.theta.size

    @property
    def total_measurements(self) -> int:
        return sum(a.n_measurements for a in self.agents)

    def fill_noise(self, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
        """Fill ``out`` with raw unit-variance noise from ``rng`` and return it.

        ``"zero"`` fills zeros and draws nothing.  A custom sampler must return
        exactly ``out.shape``; anything else raises ValueError.
        """
        if self.noise == "gaussian":
            rng.standard_normal(out=out)
        elif self.noise == "zero":
            out.fill(0.0)
        else:
            draw = np.asarray(self.noise(rng, out.shape), dtype=float)
            if draw.shape != out.shape:
                raise ValueError(f"noise sampler gave shape {draw.shape}, not {out.shape}")
            out[...] = draw
        return out


def sample_measurements(model: GlobalModel, rng: np.random.Generator) -> list[np.ndarray]:
    """Draw one measurement per agent: ``y_i = H_i theta + w_i``.

    Consumes exactly one block of ``total_measurements`` raw samples from
    ``rng`` (none in zero-noise mode), as one tick of the batched engine does.
    """
    raw = model.fill_noise(rng, np.empty(model.total_measurements))
    return [
        a.H @ model.theta + a.chol_C @ raw[sl]
        for a, sl in zip(model.agents, model.measurement_slices)
    ]


def fisher_information(agents: Sequence[AgentModel]) -> np.ndarray:
    """Sum of the per-agent information matrices ``B_i``.

    Raises SingularModel unless the smallest eigenvalue is above ``EIGENVALUE_FLOOR``;
    a NaN, from an overflowed sum, is not.  This is the model's one singularity check.
    """
    if not agents:
        raise ValueError("need at least one agent")
    total = np.zeros((agents[0].dim, agents[0].dim))
    for a in agents:
        total += a.B
    low = min_eigenvalue(total)
    if not low > EIGENVALUE_FLOOR:
        raise SingularModel(
            f"information matrix min eigenvalue {low:g}, not above {EIGENVALUE_FLOOR:g}"
        )
    return total


def central_solver(model: GlobalModel) -> Callable[[np.ndarray], np.ndarray]:
    """The oracle's estimates on stacked running means, through one gain matrix.

    The oracle solves ``sigma_c x = W_full ybar`` for running means ``ybar``,
    so ``x = G ybar`` with ``G`` the solution of ``sigma_c G = W_full``.  ``G``
    is solved here once, after a Cholesky check that ``sigma_c`` is positive
    definite; it is a solve against ``W_full``, not an inverse.  The returned
    callable maps means of shape (..., m), for example a chunk's (ticks,
    trials, m) stack, to the (..., L) estimates ``ybar G^T`` by one matmul.  It
    raises SolveFailed when a row's relative residual
    ``|sigma_c x - W_full ybar| / |W_full ybar|`` exceeds ``SOLVE_RTOL`` or is
    NaN, on the ``x`` that matmul produced.  It writes into scratch that it keeps, so
    its result holds until the next call.
    """
    sigma = model.sigma_c
    np.linalg.cholesky(sigma)  # raises LinAlgError unless sigma_c is positive definite
    w_full = np.hstack([a.W for a in model.agents])
    gain_t = np.ascontiguousarray(np.linalg.solve(sigma, w_full).T)
    w_t = np.ascontiguousarray(w_full.T)
    m, dim = w_t.shape
    ones = np.ones(dim)
    scratch = np.empty(0)

    def estimate(means: np.ndarray) -> np.ndarray:
        nonlocal scratch
        means = np.asarray(means, dtype=float)
        flat = means.reshape(-1, m)
        rows = len(flat)
        size = rows * (3 * dim + 2)
        if scratch.size < size:
            scratch = np.empty(size)
        x, rhs, resid = scratch[: 3 * rows * dim].reshape(3, rows, dim)
        worst, scale = scratch[3 * rows * dim : size].reshape(2, rows)
        np.matmul(flat, gain_t, out=x)
        np.matmul(flat, w_t, out=rhs)
        np.matmul(x, sigma, out=resid)
        resid -= rhs
        # squared row norms, as a product with ones: faster than einsum over so few columns
        np.matmul(np.square(resid, out=resid), ones, out=worst)
        np.matmul(np.square(rhs, out=rhs), ones, out=scale)
        np.maximum(np.sqrt(scale, out=scale), 1e-300, out=scale)
        worst = np.max(np.divide(np.sqrt(worst, out=worst), scale, out=worst))
        if not worst <= SOLVE_RTOL:  # NaN included
            raise SolveFailed(f"oracle solve residual {worst:.3e}", residual=float(worst))
        return x.reshape(*means.shape[:-1], dim)

    return estimate
