"""Token transition rules and the chain statistics behind the convergence rates.

A transition rule maps an adjacency matrix to a row-stochastic matrix whose
off-diagonal support is contained in the graph's edges.  Nodes with no
outgoing edge hold the token (probability one on the diagonal), which keeps
the token alive on arbitrary realizations and reduces to the plain rule
whenever the out-degree is positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import UnsupportedProcess
from .graphs import (
    DeterministicSequence,
    GraphSpec,
    IidFailureGraph,
    as_adjacency,
    is_strongly_connected,
)

ROW_SUM_TOL = 1e-12


@dataclass(frozen=True)
class OutDegreeReciprocal:
    """Uniform over the currently available out-neighbors."""


@dataclass(frozen=True)
class Lazy:
    """Holds the token with probability ``delta_self``; rest spread uniformly.

    A positive floor on the diagonal is what the windowed-connectivity
    convergence results require.
    """

    delta_self: float

    def __post_init__(self) -> None:
        if not 0.0 < self.delta_self < 1.0:
            raise ValueError(f"delta_self must be in (0, 1), got {self.delta_self}")


TransitionRule = Union[OutDegreeReciprocal, Lazy]


def transition_rows(rule: TransitionRule, rows: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Transition weights out of each walker's node, the one place ``rule`` is applied.

    ``rows[r]`` is the boolean out-edge row of walker ``r``'s node ``pos[r]``;
    the result's row ``r`` is the probability of each destination.  A node
    with no outgoing edge holds the token with probability one.
    """
    walkers, n = rows.shape
    out = rows.sum(axis=1)
    has_out = out > 0
    probs = np.zeros((walkers, n))
    if isinstance(rule, OutDegreeReciprocal):
        probs[has_out] = rows[has_out] / out[has_out, None]
    elif isinstance(rule, Lazy):
        factor = (1.0 - rule.delta_self) / np.where(has_out, out, 1)
        probs[has_out] = rows[has_out] * factor[has_out, None]
        probs[has_out, pos[has_out]] = rule.delta_self
    else:
        raise TypeError(f"unknown transition rule {type(rule).__name__}")
    probs[~has_out, pos[~has_out]] = 1.0
    return probs


def apply_rule(rule: TransitionRule, a: np.ndarray) -> np.ndarray:
    """The row-stochastic transition matrix induced by ``rule`` on adjacency ``a``."""
    a = as_adjacency(a)
    q = transition_rows(rule, a, np.arange(a.shape[0]))
    dev = np.abs(q.sum(axis=1) - 1.0).max()
    if dev > ROW_SUM_TOL:
        raise RuntimeError(f"transition rows deviate from stochastic by {dev:.3e}")
    return q


def chain_floor(q: np.ndarray) -> float:
    """Minimum positive off-diagonal transition weight of a stochastic matrix.

    This is the per-step floor along any shortest path of the chain, the
    constant that drives the hitting-time envelopes.  Applied to the exact
    ``mean_transition_matrix`` it gives the averaged chain's delta exactly,
    whatever the out-degrees.
    """
    q = np.asarray(q, dtype=float)
    off = q[~np.eye(q.shape[0], dtype=bool)]
    positive = off[off > 0]
    if positive.size == 0:
        return 1.0
    return float(positive.min())


def _sample_rows(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Categorical draw per row of cumulative weights; lands on positive entries only."""
    scaled = u * cum[..., -1]
    return (cum <= scaled[..., None]).sum(axis=-1)


def mean_transition_matrix(spec: GraphSpec, rule: TransitionRule) -> np.ndarray:
    """Exact average transition matrix of the graph process under ``rule``.

    Let node ``i`` have backbone out-degree ``k`` and each edge fail with
    probability ``p`` (0 for a static graph).  With probability ``p**k`` every
    out-edge is down and the token holds; otherwise each rule weights the
    surviving edges uniformly around a self-weight that does not depend on how
    many survive, so by symmetry every backbone edge carries ``1 - p**k``
    times its weight under the rule on the full backbone.  Hence
    ``q = (1 - p**k) * apply_rule(rule, backbone) + diag(p**k)`` at any
    degree.  A rule without that uniform, fixed-self-weight form would need
    its own average.  Undefined for deterministic sequences.
    """
    if isinstance(spec, DeterministicSequence):
        raise UnsupportedProcess("mean transition matrix is undefined for deterministic sequences")
    p = spec.p_fail if isinstance(spec, IidFailureGraph) else 0.0
    hold = p ** spec.backbone.sum(axis=1)
    q = (1.0 - hold)[:, None] * apply_rule(rule, spec.backbone)
    q[np.diag_indices(spec.n)] += hold
    return q


def is_irreducible(q: np.ndarray) -> bool:
    """True iff the support digraph of the stochastic matrix is strongly connected."""
    q = np.asarray(q, dtype=float)
    support = q > 0
    np.fill_diagonal(support, False)
    return is_strongly_connected(support)


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


def bulk_step(
    pos: np.ndarray,
    rows: np.ndarray,
    rule: TransitionRule,
    u: np.ndarray,
) -> np.ndarray:
    """Token step for many walkers given their realized out-edge rows.

    ``rows[r]`` is the boolean out-edge row of walker ``r``'s current node and
    ``u[r]`` its move uniform.  The scalar episode steps its one walker through
    here too, so scalar and batched paths produce identical destinations from
    identical uniforms.  Every move is verified to follow an existing edge or
    to be a sanctioned self-hold.
    """
    nxt = _sample_rows(np.cumsum(transition_rows(rule, rows, pos), axis=1), u)
    moved = nxt != pos
    if moved.any() and not rows[moved, nxt[moved]].all():
        raise RuntimeError("token jumped a nonexistent edge in a batched step")
    return nxt


@dataclass(frozen=True)
class TailConstants:
    """Exponential envelope ``c1 * exp(-c2 * t)`` for token hitting tails.

    ``epsilon`` is the probability floor for entering any target set within a
    block of ``m`` ticks; ``c1`` is the leading constant the blockwise argument
    yields.
    """

    epsilon: float
    m: int
    c1: float
    c2: float


def tail_constants(delta: float, m: int) -> TailConstants:
    """Envelope constants from a per-step floor ``delta`` and block length ``m``."""
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must be in (0, 1], got {delta}")
    if m < 1:
        raise ValueError("block length must be >= 1")
    eps = delta**m
    if eps >= 1.0:
        return TailConstants(1.0, m, math.inf, math.inf)
    c1 = 1.0 / (1.0 - eps)
    c2 = -math.log1p(-eps) / m
    return TailConstants(eps, m, c1, c2)


def nonvisit_bound(consts: TailConstants, t: np.ndarray | float) -> np.ndarray:
    """Envelope for the probability a fixed node is still unvisited at ``t``."""
    t = np.asarray(t, dtype=float)
    if not math.isfinite(consts.c1):
        return np.where(t > 0, 0.0, 1.0)
    return np.minimum(1.0, consts.c1 * np.exp(-consts.c2 * t))


def cover_gap_bound(consts: TailConstants, n: int, t: np.ndarray | float) -> np.ndarray:
    """Envelope for the probability that some node is still unvisited at ``t``."""
    return np.minimum(1.0, n * nonvisit_bound(consts, t))

