"""Graph processes, connectivity checks, and sequence connectivity."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roamtoken import (
    DeterministicSequence,
    GenerationFailed,
    IidFailureGraph,
    SequenceExhausted,
    StaticGraph,
    generate_backbone_with_degree,
    is_strongly_connected,
)
from roamtoken._streams import derived_stream
from roamtoken.graphs import (
    as_adjacency,
    diameter,
    read_adjacency,
    read_frames_csv,
    smallest_connected_window,
)

from conftest import ref5_adjacency
from references import (
    relative_degree,
    sequential_reachability,
    write_adjacency,
    write_frames_csv,
)


def _adj(n, edges):
    a = np.zeros((n, n), dtype=bool)
    for i, j in edges:
        a[i, j] = True
    return a


def test_adjacency_validation():
    with pytest.raises(ValueError, match="diagonal"):
        as_adjacency(np.eye(3))
    with pytest.raises(ValueError, match="square"):
        as_adjacency(np.zeros((2, 3)))
    # non-binary entries used to become edges through astype(bool)
    with pytest.raises(ValueError, match="0.5"):
        as_adjacency([[0, 0.5], [np.nan, 0]])
    with pytest.raises(ValueError, match="nan"):
        as_adjacency([[0, 1], [np.nan, 0]])
    with pytest.raises(ValueError, match="-1"):
        as_adjacency([[0, -1], [1, 0]])
    assert np.array_equal(as_adjacency([[0, 1.0], [True, 0]]), [[False, True], [True, False]])


def test_geometric_full_degree_gives_complete_graph():
    rng = np.random.default_rng(0)
    a = generate_backbone_with_degree(6, 1.0, rng)
    assert np.array_equal(a, ~np.eye(6, dtype=bool))


def test_geometric_unreachable_degree_fails():
    # one undirected pair on five nodes can never be strongly connected
    rng = np.random.default_rng(0)
    message = "no strongly connected backbone at relative degree 0.1 in 5 tries"
    with pytest.raises(GenerationFailed, match=message):
        generate_backbone_with_degree(5, 0.1, rng, max_retries=5)


def test_shipped_geo20_backbone_is_pinned():
    # geo20_compare.yaml's backbone: graph.seed 7 on the generation stream; the edge count
    # and the digest of its packed bits pin every draw of every attempt
    a = generate_backbone_with_degree(20, 0.12, derived_stream(7, 3))
    assert int(a.sum()) == 46
    digest = hashlib.sha256(np.packbits(a).tobytes()).hexdigest()
    assert digest == "50ba20a6a0b2c2ae4518b64fefdbbba86d1fd134301c839afa916b3cbe3e8b90"


def test_backbone_with_target_degree_bands():
    rng = np.random.default_rng(2)
    a20 = generate_backbone_with_degree(20, 0.12, rng)
    assert abs(relative_degree(a20) - 0.12) < 0.02
    assert is_strongly_connected(a20)
    a50 = generate_backbone_with_degree(50, 0.09, rng)
    assert abs(relative_degree(a50) - 0.09) < 0.02
    assert is_strongly_connected(a50)


def test_relative_degree_values():
    assert relative_degree(~np.eye(4, dtype=bool)) == 1.0
    assert relative_degree(np.zeros((4, 4), dtype=bool)) == 0.0
    cycle = _adj(3, [(0, 1), (1, 2), (2, 0)])
    assert relative_degree(cycle) == pytest.approx(0.5)


def test_next_adjacency_failure_limits():
    backbone = _adj(3, [(0, 1), (1, 2), (2, 0), (0, 2)])
    rng = np.random.default_rng(0)
    sure = IidFailureGraph(backbone, p_fail=0.0)
    assert np.array_equal(sure.adjacency(0, rng.random(sure.draws)), backbone)
    batch = sure.adjacency(0, rng.random((4, sure.draws)))
    assert batch.shape == (4, 3, 3) and (batch == backbone).all()
    never = IidFailureGraph(backbone, p_fail=1.0)
    assert not never.adjacency(0, rng.random(never.draws)).any()


def test_next_adjacency_edge_presence_frequency():
    backbone = _adj(3, [(0, 1), (1, 2), (2, 0)])
    spec = IidFailureGraph(backbone, p_fail=0.5)
    rng = np.random.default_rng(4)
    draws = 10_000
    counts = np.zeros_like(backbone, dtype=float)
    for t in range(draws):
        counts += spec.adjacency(t, rng.random(spec.draws))
    freq = counts[backbone] / draws
    assert np.all(np.abs(freq - 0.5) < 0.02)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6), st.floats(0.0, 1.0), st.integers(0, 2**31 - 1))
def test_iid_output_subset_of_backbone_with_zero_diagonal(n, p_fail, seed):
    rng = np.random.default_rng(seed)
    backbone = rng.random((n, n)) < 0.6
    np.fill_diagonal(backbone, False)
    spec = IidFailureGraph(backbone, p_fail)
    a = spec.adjacency(0, rng.random(spec.draws))
    assert not np.diagonal(a).any()
    assert not (a & ~backbone).any()


def test_deterministic_sequence_cycling_and_exhaustion():
    frames = [_adj(2, [(0, 1)]), _adj(2, [(1, 0)])]
    rng = np.random.default_rng(0)
    cyc = DeterministicSequence(frames, cycle=True)
    assert np.array_equal(cyc.adjacency(3, rng.random(cyc.draws)), frames[1])
    fin = DeterministicSequence(frames, cycle=False)
    with pytest.raises(SequenceExhausted):
        fin.adjacency(2, rng.random(fin.draws))


def test_static_spec_returns_backbone():
    backbone = _adj(3, [(0, 1), (1, 0), (1, 2), (2, 1)])
    spec = StaticGraph(backbone)
    rng = np.random.default_rng(0)
    assert np.array_equal(spec.adjacency(5, rng.random(spec.draws)), backbone)


def test_strong_connectivity_simple_cases():
    assert is_strongly_connected(_adj(3, [(0, 1), (1, 2), (2, 0)]))
    assert not is_strongly_connected(_adj(3, [(0, 1), (1, 2)]))
    assert is_strongly_connected(np.zeros((1, 1), dtype=bool))


def _brute_force_diameter(a):
    """The largest shortest-path distance over ordered node pairs, by a breadth-first search
    from each node; at least 1, and None when some pair is not joined."""
    n, longest = a.shape[0], 1
    for i in range(n):
        dist, frontier = {i: 0}, [i]
        while frontier:
            reached = []
            for u in frontier:
                for v in map(int, np.flatnonzero(a[u])):
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        reached.append(v)
            frontier = reached
        if len(dist) < n:
            return None
        longest = max(longest, *dist.values())
    return longest


def test_strong_connectivity_exhaustive_up_to_four_nodes():
    for n in (2, 3, 4):
        offdiag = [(i, j) for i in range(n) for j in range(n) if i != j]
        graphs, diameters = [], []
        for bits in range(1 << len(offdiag)):
            a = np.zeros((n, n), dtype=bool)
            for k, (i, j) in enumerate(offdiag):
                if bits >> k & 1:
                    a[i, j] = True
            expected = _brute_force_diameter(a)
            assert diameter(a) == expected
            assert is_strongly_connected(a) == (expected is not None)
            graphs.append(a)
            diameters.append(expected)
        # a batch with a disconnected graph is disconnected; else it takes its largest diameter
        connected = [d is not None for d in diameters]
        assert diameter(np.array(graphs)) is None
        assert diameter(np.array(graphs)[connected]) == max(d for d in diameters if d is not None)


def test_window_union_connected_cases():
    # read once: strongly connected frames, alternating halves, two empty frames between
    sc = _adj(2, [(0, 1), (1, 0)])
    assert smallest_connected_window([sc, sc, sc], cycle=False) == 1
    alternating = [_adj(2, [(0, 1)]), _adj(2, [(1, 0)]), _adj(2, [(0, 1)]), _adj(2, [(1, 0)])]
    assert smallest_connected_window(alternating, cycle=False) == 2
    with_empty = [sc, np.zeros((2, 2), dtype=bool), np.zeros((2, 2), dtype=bool), sc]
    assert smallest_connected_window(with_empty, cycle=False) == 3


def test_smallest_connected_window():
    # ref5's 9 edges dealt round-robin, in argwhere order, into 3 frames: only 3-windows connect
    deal = [_adj(5, np.argwhere(ref5_adjacency())[k::3]) for k in range(3)]
    assert smallest_connected_window(deal, cycle=True) == 3
    # read once, [f0, f1, f0] connects at b=2; cycled, its wrapped window [f0, f0] does not
    f0, f1 = _adj(3, [(0, 1), (1, 2)]), _adj(3, [(2, 0)])
    assert smallest_connected_window([f0, f1, f0], cycle=False) == 2
    assert smallest_connected_window([f0, f1, f0], cycle=True) == 3
    assert smallest_connected_window([f0, f0], cycle=True) is None
    # against the union of each window, wrapped ones included
    rng = np.random.default_rng(34)
    for _ in range(300):
        n, k = int(rng.integers(1, 6)), int(rng.integers(1, 7))
        frames = [rng.random((n, n)) < rng.uniform(0.05, 0.5) for _ in range(k)]
        for cycle in (False, True):

            def connected(b):
                starts = range(k) if cycle else range(k - b + 1)
                windows = ([frames[(s + i) % k] for i in range(b)] for s in starts)
                unions = map(np.logical_or.reduce, windows)
                return all(_brute_force_diameter(u) is not None for u in unions)

            expected = next((b for b in range(1, k + 1) if connected(b)), None)
            assert smallest_connected_window(frames, cycle) == expected


def test_smallest_connected_window_allocates_little():
    # a random 20-node, 2,001-frame sequence read once: the traced peak was 13.6 MB with
    # int64 running counts taken again at each bisection step and an int64 difference per
    # window; with uint16 counts taken once and compared directly it is 4.0 MB (numpy 2.4)
    frames = np.random.default_rng(3).random((2001, 20, 20)) < 0.05
    tracemalloc.start()
    try:
        b = smallest_connected_window(frames, cycle=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert b == 14
    assert peak <= 5_000_000


def test_cycling_window_check_costs_what_reading_once_does():
    # the sequence above, cycled: its wrapped windows are read from one period's running
    # counts and its total.  With k - 1 repeated frames stacked first, the traced peak was
    # 9.6 MB, 2.4 times that of reading once (numpy 2.4)
    frames = np.random.default_rng(3).random((2001, 20, 20)) < 0.05
    peaks = {}
    for cycle in (False, True):
        tracemalloc.start()
        try:
            b = smallest_connected_window(frames, cycle=cycle)
            peaks[cycle] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert b == 14
    assert peaks[True] <= 1.25 * peaks[False]


def test_sequential_connectivity_basics():
    reach = sequential_reachability([_adj(3, [(1, 2)])])
    assert reach[0, 0]
    assert reach[1, 2]
    assert not reach[2, 1]


def _brute_force_sequential(frames, i, j):
    # enumerate all paths: at each frame either stay or take an edge of that frame
    current = {i}
    if j in current:
        return True
    for f in frames:
        current = current | {b for a in current for b in np.flatnonzero(f[a])}
        if j in current:
            return True
    return False


def test_sequential_connectivity_matches_path_enumeration():
    rng = np.random.default_rng(13)
    for _ in range(300):
        n = int(rng.integers(2, 5))
        frames = []
        for _ in range(int(rng.integers(1, 5))):
            f = rng.random((n, n)) < rng.uniform(0.1, 0.7)
            np.fill_diagonal(f, False)
            frames.append(f)
        reach = sequential_reachability(frames)
        for i in range(n):
            for j in range(n):
                assert bool(reach[i, j]) == _brute_force_sequential(frames, i, j)


def test_assumption_window_rejects_single_frames_but_accepts_pairs():
    # two frames each weakly connected; union strongly connected
    f1 = _adj(3, [(0, 1), (1, 2)])
    f2 = _adj(3, [(2, 0)])
    assert smallest_connected_window([f1, f2], cycle=False) == 2


def test_adjacency_file_round_trip(tmp_path):
    a = _adj(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    path = tmp_path / "backbone.txt"
    write_adjacency(path, a)
    assert np.array_equal(read_adjacency(path), a)


def test_frames_csv_round_trip(tmp_path):
    frames = [_adj(3, [(0, 1), (1, 2)]), _adj(3, []), _adj(3, [(2, 0)])]
    path = tmp_path / "frames.csv"
    write_frames_csv(path, frames)
    loaded = read_frames_csv(path, n=3, count=3)
    assert len(loaded) == 3
    for ours, theirs in zip(frames, loaded):
        assert np.array_equal(ours, theirs)
