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
from .graphs import DeterministicSequence, GraphSpec, IidFailureGraph, as_adjacency

ROW_SUM_TOL = 1e-12


@dataclass(frozen=True)
class OutDegreeReciprocal:
    """Uniform over the currently available out-neighbors: a self-weight of 0."""

    delta_self = 0.0


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

    ``rows[r]`` is the boolean out-edge row of walker ``r``'s node, and
    ``pos[r]`` the walker's own column in it; the result's row ``r`` is the
    probability of each column.  A row may be dense, one column per node, or
    compact: the node's possible out-neighbours and the node itself, padded
    with columns that are never edges.  The own column is never an edge.
    Every rule is one formula: the token holds with ``rule.delta_self`` and
    spreads the rest evenly over the out-edges that are up; a node with no
    outgoing edge up holds it with probability one.
    """
    walkers, n = rows.shape
    out = rows @ np.ones(n)  # out-degrees, exact as floats
    probs = rows * ((1.0 - rule.delta_self) / np.maximum(out, 1.0))[:, None]
    probs[np.arange(walkers), pos] = np.where(out == 0, 1.0, rule.delta_self)
    return probs


def apply_rule(rule: TransitionRule, a: np.ndarray) -> np.ndarray:
    """The row-stochastic transition matrix induced by ``rule`` on adjacency ``a``.

    Raises RuntimeError if a row is not stochastic or weights a missing edge.
    """
    a = as_adjacency(a)
    q = transition_rows(rule, a, np.arange(a.shape[0]))
    dev = np.abs(q.sum(axis=1) - 1.0).max()
    if dev > ROW_SUM_TOL:
        raise RuntimeError(f"transition rows deviate from stochastic by {dev:.3e}")
    off_edge = np.argwhere((q > 0) & ~a & ~np.eye(a.shape[0], dtype=bool))
    if off_edge.size:
        i, j = off_edge[0]
        raise RuntimeError(f"positive transition weight on missing edge {i}->{j}")
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
    """Categorical draw per row of cumulative weights; lands on positive entries only.

    The drawn column is the first whose cumulative weight exceeds ``u`` times
    the row's total, that is the count of those that do not.
    """
    below = cum <= (u * cum[:, -1])[:, None]
    return (below @ np.ones(cum.shape[1])).astype(np.int64)


def mean_transition_matrix(spec: GraphSpec, rule: TransitionRule) -> np.ndarray:
    """Exact average transition matrix of the graph process under ``rule``.

    Let node ``i`` have backbone out-degree ``k`` and each edge fail with
    probability ``p`` (0 for a static graph).  With probability ``p**k`` every
    out-edge is down and the token holds; otherwise ``transition_rows`` holds
    it with ``rule.delta_self`` and spreads the rest evenly over the surviving
    edges, so by symmetry every backbone edge carries ``1 - p**k`` times its
    weight under the rule on the full backbone.  Hence
    ``q = (1 - p**k) * apply_rule(rule, backbone) + diag(p**k)`` at any
    degree.  Undefined for deterministic sequences.
    """
    if isinstance(spec, DeterministicSequence):
        raise UnsupportedProcess("mean transition matrix is undefined for deterministic sequences")
    p = spec.p_fail if isinstance(spec, IidFailureGraph) else 0.0
    hold = p ** spec.backbone.sum(axis=1)
    q = (1.0 - hold)[:, None] * apply_rule(rule, spec.backbone)
    q[np.diag_indices(spec.n)] += hold
    return q


def bulk_step(
    pos: np.ndarray,
    rows: np.ndarray,
    rule: TransitionRule,
    u: np.ndarray,
    cum: np.ndarray | None = None,
) -> np.ndarray:
    """Token step for many walkers given their realized out-edge rows; returns columns.

    ``rows[r]`` is the boolean out-edge row of walker ``r``'s current node,
    dense or compact as in ``transition_rows``, ``pos[r]`` the walker's own
    column in it and ``u[r]`` its move uniform.  ``cum`` may give the rows'
    cumulative transition weights when the caller has them already.  A
    zero-weight column adds exactly 0.0 to the cumulative sum and is never
    drawn, so compact and dense rows pick the same node from the same uniform.
    The scalar episode steps its one walker through here on a dense row, where
    the column is the node.  The step only samples: its callers verify that
    each move follows an edge that is up or is a sanctioned self-hold, the
    engine's walk once per chunk and the scalar episode at every step.
    """
    if cum is None:
        cum = np.cumsum(transition_rows(rule, rows, pos), axis=1)
    return _sample_rows(cum, u)


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

