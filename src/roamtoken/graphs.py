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
from typing import Callable, Sequence, Union

import numpy as np

from .errors import GenerationFailed, SequenceExhausted

DEFAULT_MAX_RETRIES = 1000


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


def _closure(a: np.ndarray) -> np.ndarray:
    """Reflexive transitive closure of ``(..., n, n)`` adjacencies: a path leads from i to j."""
    a = np.asarray(a, dtype=bool)
    n = a.shape[-1]
    reach = a | np.eye(n, dtype=bool)
    for _ in range(max(n - 2, 0).bit_length()):  # paths of up to 2^k >= n - 1 edges
        reach = reach @ reach
    return reach


def is_strongly_connected(a: np.ndarray) -> bool:
    """True iff every ordered node pair of every ``(..., n, n)`` adjacency is joined by a
    directed path, read off ``_closure``."""
    return bool(_closure(a).all())


def relative_degree(a: np.ndarray) -> float:
    """Directed edge count over n(n-1), the number of possible edges."""
    a = as_adjacency(a)
    n = a.shape[0]
    if n < 2:
        raise ValueError("relative degree needs at least two nodes")
    return float(a.sum()) / (n * (n - 1))


def _geometric(
    n: int,
    radius_of: Callable[[np.ndarray], float],
    rng: np.random.Generator,
    max_retries: int,
    what: str,
) -> tuple[np.ndarray, float]:
    """Draw points in the unit square until their radius graph is strongly connected.

    Each attempt draws all ``n`` points afresh, keeping the geometric
    distribution clean, and joins every pair closer than the radius that
    ``radius_of`` picks from the (n, n) distances.  Returns the adjacency
    and the radius.
    """
    if n < 2:
        raise ValueError("need at least two nodes")
    for _ in range(max_retries):
        pts = rng.random((n, 2))
        diff = pts[:, None, :] - pts[None, :, :]
        dist = np.sqrt((diff**2).sum(axis=2))
        radius = radius_of(dist)
        a = dist < radius
        np.fill_diagonal(a, False)
        if is_strongly_connected(a):
            return a, float(radius)
    raise GenerationFailed(f"no strongly connected {what} in {max_retries} tries")


def generate_geometric_backbone(
    n: int,
    radius: float,
    rng: np.random.Generator,
    max_retries: int = DEFAULT_MAX_RETRIES,
) -> np.ndarray:
    """A strongly connected geometric graph on uniform points in the unit square."""
    if not radius > 0:  # NaN included
        raise ValueError("radius must be positive")
    return _geometric(n, lambda dist: radius, rng, max_retries, "geometric graph")[0]


def generate_backbone_with_degree(
    n: int,
    target_degree: float,
    rng: np.random.Generator,
    max_retries: int = DEFAULT_MAX_RETRIES,
) -> tuple[np.ndarray, float]:
    """Geometric backbone whose relative degree matches ``target_degree``.

    For each sampled point set the radius is placed between order statistics
    of the pairwise distances, so the realized relative degree differs from
    the target by at most one edge pair.  Returns ``(adjacency, radius)``.
    """
    if not 0.0 < target_degree <= 1.0:
        raise ValueError("target relative degree must be in (0, 1]")
    pairs_wanted = int(round(target_degree * n * (n - 1) / 2.0))
    pairs_wanted = max(1, min(pairs_wanted, n * (n - 1) // 2))

    def radius_of(dist: np.ndarray) -> float:
        upper = np.sort(dist[np.triu_indices(n, k=1)])
        if pairs_wanted >= len(upper):
            return upper[-1] * (1.0 + 1e-9)
        return (upper[pairs_wanted - 1] + upper[pairs_wanted]) / 2.0

    what = f"backbone at relative degree {target_degree}"
    return _geometric(n, radius_of, rng, max_retries, what)


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
    if cycle:  # k - 1 repeated frames let a window start at each of the k frames and wrap
        stack = np.concatenate([stack, stack[:-1]])
    # each edge's count in the first 0..len(stack) frames, in the narrowest unsigned type
    counts = np.zeros((len(stack) + 1, *stack.shape[1:]), dtype=np.min_scalar_type(len(stack)))
    np.cumsum(stack, axis=0, dtype=counts.dtype, out=counts[1:])
    b = bisect.bisect_left(
        range(1, k + 1), True, key=lambda w: is_strongly_connected(counts[w:] > counts[:-w])
    )
    return b + 1 if b < k else None


def sequential_reachability(frames: Sequence[np.ndarray] | np.ndarray) -> np.ndarray:
    """All-pairs sequential connectivity with self-loops over (T, n, n) or (T, W, n, n) frames."""
    frames = np.asarray(frames, dtype=bool)
    reach = np.broadcast_to(np.eye(frames.shape[-1], dtype=bool), frames.shape[1:]).copy()
    for f in frames:
        reach |= reach @ f
    return reach


def write_adjacency(path, a: np.ndarray) -> None:
    np.savetxt(path, as_adjacency(a).astype(int), fmt="%d")


def read_adjacency(path) -> np.ndarray:
    return as_adjacency(np.atleast_2d(np.loadtxt(path)))


def write_frames_csv(path, frames: Sequence[np.ndarray]) -> None:
    """Edge-list export, one row per edge: t, from, to."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "from", "to"])
        for t, frame in enumerate(frames):
            for src, dst in np.argwhere(np.asarray(frame, dtype=bool)):
                writer.writerow([t, int(src), int(dst)])


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
