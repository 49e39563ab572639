"""Time-varying directed graph processes.

Adjacency matrices are plain boolean ndarrays with a zero diagonal; row ``i``
holds the outward edges of node ``i``.  Three process kinds are supported:
a static graph, i.i.d. per-edge failures of a fixed backbone, and an explicit
deterministic frame sequence (optionally cycled).

Every process kind offers the same primitive.  ``spec.draws`` is the number of
uniforms the process consumes per tick: one per backbone edge, in row-major
edge order (``len(spec.edges)`` for i.i.d. failures, 0 for the other kinds).
``spec.adjacency(t, u)`` maps a ``(..., draws)`` block of uniforms to the
boolean ``(..., n, n)`` adjacency in force at tick ``t``.  Static and
deterministic processes ignore ``u`` and return their shared frame, which
callers must not modify.
"""

from __future__ import annotations

import bisect
import csv
from dataclasses import dataclass, field
from typing import Iterator, Sequence, Union

import numpy as np

from .errors import GenerationFailed, SequenceExhausted


def as_adjacency(a: np.ndarray | Sequence) -> np.ndarray:
    """Validate and normalize an adjacency matrix to a boolean array.

    Entries must be 0/1 or False/True; anything else (0.5, NaN, -1) is
    rejected rather than read as an edge.
    """
    arr = np.asarray(a)
    if arr.dtype != bool:
        bad = arr[(arr != 0) & (arr != 1)]
        if bad.size:
            raise ValueError(f"adjacency entries must be 0 or 1, got {bad.flat[0]}")
        arr = arr.astype(bool)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"adjacency must be square, got shape {arr.shape}")
    if arr.shape[0] < 1:
        raise ValueError("adjacency must have at least one node")
    if np.diagonal(arr).any():
        raise ValueError("adjacency diagonal must be zero (no self-edges)")
    return arr


@dataclass(eq=False)
class StaticGraph:
    """The same adjacency at every tick."""

    backbone: np.ndarray
    draws = 0

    def __post_init__(self) -> None:
        self.backbone = as_adjacency(self.backbone)

    @property
    def n(self) -> int:
        return self.backbone.shape[0]

    def adjacency(self, t: int, u: np.ndarray) -> np.ndarray:
        return self.backbone


@dataclass(eq=False)
class IidFailureGraph:
    """Each backbone edge independently survives with probability 1 - p_fail.

    Failures are drawn fresh per tick and per direction, so realized graphs
    are generally asymmetric even for a symmetric backbone.
    """

    backbone: np.ndarray
    p_fail: float
    edges: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.backbone = as_adjacency(self.backbone)
        self.p_fail = float(self.p_fail)
        if not 0.0 <= self.p_fail <= 1.0:
            raise ValueError(f"p_fail must be in [0, 1], got {self.p_fail}")
        # row-major edge enumeration: canonical order for stream consumption
        self.edges = np.argwhere(self.backbone)

    @property
    def n(self) -> int:
        return self.backbone.shape[0]

    @property
    def draws(self) -> int:
        return len(self.edges)

    def adjacency(self, t: int, u: np.ndarray) -> np.ndarray:
        """Edge ``k`` of ``edges`` is up where ``u[..., k] < 1 - p_fail``."""
        present = np.asarray(u) < (1.0 - self.p_fail)
        a = np.zeros(present.shape[:-1] + (self.n, self.n), dtype=bool)
        a[..., self.edges[:, 0], self.edges[:, 1]] = present
        return a


@dataclass(eq=False)
class DeterministicSequence:
    """An explicit list of adjacency frames, optionally repeated forever."""

    frames: list[np.ndarray]
    cycle: bool = False
    draws = 0

    def __post_init__(self) -> None:
        if not self.frames:
            raise ValueError("frame sequence must be nonempty")
        self.frames = [as_adjacency(f) for f in self.frames]
        n = self.frames[0].shape[0]
        for k, f in enumerate(self.frames):
            if f.shape[0] != n:
                raise ValueError(f"frame {k} has {f.shape[0]} nodes, expected {n}")

    @property
    def n(self) -> int:
        return self.frames[0].shape[0]

    def adjacency(self, t: int, u: np.ndarray) -> np.ndarray:
        if self.cycle:
            return self.frames[t % len(self.frames)]
        if t >= len(self.frames):
            raise SequenceExhausted(f"no frame for t={t}; sequence has {len(self.frames)}")
        return self.frames[t]


GraphSpec = Union[StaticGraph, IidFailureGraph, DeterministicSequence]


def check_run(
    spec: GraphSpec, horizon: int, trials: int = 1, start_node: int = 0, agents: int | None = None
) -> None:
    """Raise ValueError unless ``trials`` runs of ``horizon`` ticks from ``start_node`` fit
    ``spec`` and, where the run has a model, its ``agents``.  A negative start node would
    wrap silently in the engines' node arrays."""
    if agents is not None and spec.n != agents:
        raise ValueError(f"graph has {spec.n} nodes but model has {agents} agents")
    if not 0 <= start_node < spec.n:
        raise ValueError(f"start node {start_node} is not in [0, {spec.n})")
    if trials < 1 or horizon < 0:
        raise ValueError(f"need trials >= 1 and horizon >= 0, got {trials} and {horizon}")


def diameter(a: np.ndarray) -> int | None:
    """The fewest steps, at least 1, in which every node of every ``(..., n, n)`` adjacency
    reaches every other, or None when some node never does.  The diagonal is ignored.

    One breadth-first search from every node at once: ``reach`` holds the pairs joined by
    a path of at most ``steps`` edges, and a step that joins no new pair ends the search.
    """
    step = np.asarray(a, dtype=bool) | np.eye(np.shape(a)[-1], dtype=bool)
    reach, steps, seen = step, 1, 0
    while (count := np.count_nonzero(reach)) < reach.size:
        if count == seen:
            return None
        reach, steps, seen = reach @ step, steps + 1, count
    return steps


def is_strongly_connected(a: np.ndarray) -> bool:
    """True iff every ordered node pair of every ``(..., n, n)`` adjacency is joined by a
    directed path."""
    return diameter(a) is not None


def generate_backbone_with_degree(
    n: int,
    target_degree: float,
    rng: np.random.Generator,
    max_retries: int = 1000,
) -> np.ndarray:
    """A strongly connected geometric backbone whose relative degree matches ``target_degree``.

    Each attempt draws all ``n`` points afresh in the unit square, keeping the
    geometric distribution clean, and joins every pair closer than a radius
    placed between order statistics of the pairwise distances, so the realized
    relative degree differs from the target by at most one edge pair.
    """
    if not 0.0 < target_degree <= 1.0:
        raise ValueError("target relative degree must be in (0, 1]")
    if n < 2:
        raise ValueError("need at least two nodes")
    pairs_wanted = int(round(target_degree * n * (n - 1) / 2.0))
    pairs_wanted = max(1, min(pairs_wanted, n * (n - 1) // 2))
    for _ in range(max_retries):
        pts = rng.random((n, 2))
        diff = pts[:, None, :] - pts[None, :, :]
        dist = np.sqrt((diff**2).sum(axis=2))
        upper = np.sort(dist[np.triu_indices(n, k=1)])
        if pairs_wanted >= len(upper):
            radius = upper[-1] * (1.0 + 1e-9)
        else:
            radius = (upper[pairs_wanted - 1] + upper[pairs_wanted]) / 2.0
        a = dist < radius
        np.fill_diagonal(a, False)
        if is_strongly_connected(a):
            return a
    raise GenerationFailed(
        f"no strongly connected backbone at relative degree {target_degree} in {max_retries} tries"
    )


def smallest_connected_window(frames: Sequence[np.ndarray], cycle: bool) -> int | None:
    """The smallest ``b`` at which every ``b``-window of ``frames`` has a strongly connected union.

    With ``cycle`` the windows wrap around the end of ``frames``, as those of a
    repeated sequence do.  None when even the union of all frames is not
    strongly connected.  A window's union only grows with ``b``, so a binary
    search over the windows of one set of running counts finds it: a window's
    union is where each edge's count grows over its frames.
    """
    stack = np.asarray(frames, dtype=bool)
    k = len(stack)
    # each edge's count in the first 0..k frames, in the narrowest unsigned type
    counts = np.zeros((k + 1, *stack.shape[1:]), dtype=np.min_scalar_type(k))
    np.cumsum(stack, axis=0, dtype=counts.dtype, out=counts[1:])

    def unions(w: int) -> Iterator[np.ndarray]:
        yield counts[w:] > counts[:-w]  # the w-windows within ``frames``
        if cycle:  # those that wrap, from frames k - w + 1..k - 1 on to frames 0..w - 2
            yield (counts[k - w + 1 : k] < counts[k]) | (counts[1:w] > 0)

    b = bisect.bisect_left(
        range(1, k + 1), True, key=lambda w: all(map(is_strongly_connected, unions(w)))
    )
    return b + 1 if b < k else None


def read_adjacency(path) -> np.ndarray:
    return as_adjacency(np.atleast_2d(np.loadtxt(path)))


def read_frames_csv(path, n: int, count: int | None = None) -> list[np.ndarray]:
    """Load an edge-list CSV into adjacency frames on ``n`` nodes.

    ``count`` forces the number of frames; otherwise it is one past the
    largest ``t`` present (trailing all-empty frames need an explicit count).
    """
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is not None:  # an empty file has no header and no edges
            missing = [c for c in ("t", "from", "to") if c not in reader.fieldnames]
            if missing:
                raise ValueError(f"{path}: header lacks column(s) {', '.join(missing)}")
        for row in reader:
            try:
                t, src, dst = int(row["t"]), int(row["from"]), int(row["to"])
            except (TypeError, ValueError):
                raise ValueError(
                    f"{path} line {reader.line_num}: need integer t, from and to, "
                    f"got {row['t']!r}, {row['from']!r}, {row['to']!r}"
                ) from None
            if t < 0 or not (0 <= src < n and 0 <= dst < n):
                raise ValueError(
                    f"{path} line {reader.line_num}: need t >= 0 and node ids in [0, {n}), "
                    f"got t={t} from={src} to={dst}"
                )
            if src == dst:
                raise ValueError(f"{path} line {reader.line_num}: self-edge {src} -> {dst}")
            rows.append((t, src, dst))
    n_frames = count if count is not None else (max((t for t, _, _ in rows), default=-1) + 1)
    if n_frames < 1:
        raise ValueError(f"{path}: no frames")
    frames = [np.zeros((n, n), dtype=bool) for _ in range(n_frames)]
    for t, src, dst in rows:
        if t >= n_frames:
            raise ValueError(f"{path}: edge at t={t} beyond frame count {n_frames}")
        frames[t][src, dst] = True
    return [as_adjacency(f) for f in frames]
