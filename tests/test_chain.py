"""Transition rules, the averaged chain, hitting times, and tail envelopes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roamtoken import (
    DeterministicSequence,
    IidFailureGraph,
    Lazy,
    OutDegreeReciprocal,
    StaticGraph,
    UnsupportedProcess,
    apply_rule,
    chain_floor,
    is_irreducible,
    is_strongly_connected,
    mean_transition_matrix,
    tail_constants,
)
from roamtoken.chain import bulk_step, nonvisit_bound, support_diameter, transition_rows
from roamtoken.engine import _OutRows, run_chain_trials

from conftest import ref5_adjacency
from references import stationary_distribution


def _adj(n, edges):
    a = np.zeros((n, n), dtype=bool)
    for i, j in edges:
        a[i, j] = True
    return a


def _random_adjacency(rng, n):
    a = rng.random((n, n)) < rng.uniform(0.1, 0.9)
    np.fill_diagonal(a, False)
    return a


def test_reciprocal_rule_complete_graph():
    q = apply_rule(OutDegreeReciprocal(), ~np.eye(3, dtype=bool))
    expected = np.full((3, 3), 0.5)
    np.fill_diagonal(expected, 0.0)
    assert np.allclose(q, expected)


def test_single_out_edge_gets_probability_one():
    q = apply_rule(OutDegreeReciprocal(), _adj(3, [(0, 1), (1, 0), (1, 2), (2, 1)]))
    assert q[0, 1] == 1.0


def test_lazy_rule_two_cycle():
    q = apply_rule(Lazy(0.25), _adj(2, [(0, 1), (1, 0)]))
    assert np.allclose(q, [[0.25, 0.75], [0.75, 0.25]])


def test_isolated_row_self_holds():
    for rule in (OutDegreeReciprocal(), Lazy(0.3)):
        q = apply_rule(rule, _adj(2, [(1, 0)]))
        assert q[0, 0] == 1.0


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 7), st.integers(0, 2**31 - 1), st.booleans())
def test_rows_stochastic_and_supported(n, seed, lazy):
    rng = np.random.default_rng(seed)
    a = _random_adjacency(rng, n)
    rule = Lazy(0.3) if lazy else OutDegreeReciprocal()
    q = apply_rule(rule, a)
    assert np.abs(q.sum(axis=1) - 1.0).max() <= 1e-12
    off = q.copy()
    np.fill_diagonal(off, 0.0)
    assert not ((off > 0) & ~a).any()
    # smallest positive weight either rule can produce on n nodes
    floor = min(0.3, 0.7 / (n - 1)) if lazy else 1.0 / (n - 1)
    positive = q[q > 0]
    assert positive.min() >= floor - 1e-15
    if lazy:
        assert np.diagonal(q).min() >= 0.3 - 1e-15


def test_reciprocal_rows_are_out_degree_reciprocals_bit_for_bit():
    # the reciprocal rule is the lazy formula at self-weight 0; its rows must keep the bits
    # of rows / max(out, 1), with the own column 0, or 1 on a row with no out-edge up
    spec = IidFailureGraph(ref5_adjacency(), p_fail=0.5)
    u = np.random.default_rng(11).random((200, spec.draws))
    dense = spec.adjacency(0, u).reshape(-1, spec.n)
    compact = _OutRows(spec, OutDegreeReciprocal())
    cases = {
        "dense": (dense, np.tile(np.arange(spec.n), len(u))),
        "compact": (
            (u[:, compact.slot] < compact.keep).reshape(-1, compact.width),
            np.tile(compact.own, len(u)),
        ),
    }
    for kind, (rows, pos) in cases.items():
        out = rows.sum(axis=1)
        assert (out == 0).any() and (out > 1).any(), kind
        expected = rows / np.maximum(out, 1)[:, None]
        expected[np.arange(len(rows)), pos] = np.where(out == 0, 1.0, 0.0)
        got = transition_rows(OutDegreeReciprocal(), rows, pos)
        assert got.tobytes() == expected.tobytes(), kind


def _step_one(node, a, rule, rng):
    # one walker through bulk_step, as the scalar episode steps its token
    return int(bulk_step(np.array([node]), a[[node]], rule, rng.random(1))[0])


def test_step_token_follows_single_edge_and_self_holds():
    rng = np.random.default_rng(0)
    a = _adj(3, [(0, 1), (1, 0), (1, 2), (2, 1)])
    assert _step_one(0, a, OutDegreeReciprocal(), rng) == 1
    isolated = _adj(2, [(1, 0)])
    assert _step_one(0, isolated, OutDegreeReciprocal(), rng) == 0


def test_step_token_empirical_frequencies_match_rule():
    rng = np.random.default_rng(3)
    a = ref5_adjacency()
    rule = OutDegreeReciprocal()
    q = apply_rule(rule, a)
    counts = np.zeros((5, 5))
    pos = 0
    steps = 100_000
    for _ in range(steps):
        nxt = _step_one(pos, a, rule, rng)
        counts[pos, nxt] += 1
        pos = nxt
    visits = counts.sum(axis=1, keepdims=True)
    freq = np.divide(counts, visits, out=np.zeros_like(counts), where=visits > 0)
    assert np.abs(freq - q).max() < 0.01


def test_mean_matrix_static_is_exact(ref5_static, reciprocal):
    q = mean_transition_matrix(ref5_static, reciprocal)
    assert np.array_equal(q, apply_rule(reciprocal, ref5_static.backbone))


def test_mean_matrix_no_failures_returns_backbone_rule():
    backbone = ref5_adjacency()
    spec = IidFailureGraph(backbone, p_fail=0.0)
    q = mean_transition_matrix(spec, OutDegreeReciprocal())
    assert np.allclose(q, apply_rule(OutDegreeReciprocal(), backbone))


def _enumerated_mean(spec, rule):
    # independent oracle: enumerate all 2^E realized graphs of the process
    edges = spec.edges
    total = np.zeros((spec.n, spec.n))
    for mask in range(1 << len(edges)):
        a = np.zeros((spec.n, spec.n), dtype=bool)
        kept = 0
        for b, (i, j) in enumerate(edges):
            if mask >> b & 1:
                a[i, j] = True
                kept += 1
        prob = (1 - spec.p_fail) ** kept * spec.p_fail ** (len(edges) - kept)
        total += prob * apply_rule(rule, a)
    return total


def test_mean_matrix_two_node_enumeration_oracle():
    spec = IidFailureGraph(_adj(2, [(0, 1), (1, 0)]), p_fail=0.5)
    rule = OutDegreeReciprocal()
    oracle = _enumerated_mean(spec, rule)
    assert np.allclose(oracle, [[0.5, 0.5], [0.5, 0.5]])
    exact = mean_transition_matrix(spec, rule)
    assert np.allclose(exact, oracle, atol=1e-15)


def test_exact_mean_matches_full_enumeration_on_random_specs():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        a = _random_adjacency(rng, n)
        if a.sum() == 0 or a.sum() > 10:
            continue
        spec = IidFailureGraph(a, p_fail=float(rng.uniform(0.1, 0.9)))
        for rule in (OutDegreeReciprocal(), Lazy(0.4)):
            assert np.allclose(
                mean_transition_matrix(spec, rule), _enumerated_mean(spec, rule), atol=1e-13
            )


@pytest.mark.parametrize("rule", [OutDegreeReciprocal(), Lazy(0.4)], ids=["reciprocal", "lazy"])
def test_mean_matrix_high_degree_matches_monte_carlo(rule):
    # every row has 21 > 20 edges, past where a 2^k enumeration is practical
    n, p, samples = 22, 0.5, 20_000
    spec = IidFailureGraph(~np.eye(n, dtype=bool), p_fail=p)
    q = mean_transition_matrix(spec, rule)
    frames = spec.adjacency(0, np.random.default_rng(3).random((samples, spec.draws)))
    mc = sum(apply_rule(rule, a) for a in frames) / samples
    # entries lie in [0, 1], so sqrt(q (1 - q) / samples) bounds each entry's standard error
    se = np.sqrt(q * (1.0 - q) / samples)
    assert np.all(np.abs(mc - q) <= 4.0 * se)
    off_weight = 1.0 if isinstance(rule, OutDegreeReciprocal) else 1.0 - rule.delta_self
    assert chain_floor(q) == pytest.approx(off_weight * (1.0 - p ** (n - 1)) / (n - 1), rel=1e-14)


def test_mean_matrix_rejects_deterministic_sequences():
    frames = [_adj(2, [(0, 1)]), _adj(2, [(1, 0)])]
    spec = DeterministicSequence(frames, cycle=True)
    with pytest.raises(UnsupportedProcess):
        mean_transition_matrix(spec, OutDegreeReciprocal())


def test_irreducibility_simple_cases():
    assert is_irreducible(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert not is_irreducible(np.array([[0.5, 0.5], [0.0, 1.0]]))


def test_support_diameter():
    ring = _adj(6, [(i, (i + 1) % 6) for i in range(6)])
    assert support_diameter(apply_rule(OutDegreeReciprocal(), ring)) == 5
    complete = ~np.eye(22, dtype=bool)
    assert support_diameter(mean_transition_matrix(IidFailureGraph(complete, 0.5), Lazy(0.3))) == 1
    assert support_diameter(np.ones((1, 1))) == 1  # a block is at least one step
    # the diagonal is not an edge, so only the support's shortest paths count
    assert support_diameter(apply_rule(Lazy(0.5), ref5_adjacency())) == 3
    with pytest.raises(ValueError, match="not strongly connected"):
        support_diameter(apply_rule(OutDegreeReciprocal(), _adj(3, [(0, 1), (1, 2)])))


def test_mean_chain_irreducible_for_connected_random_backbones():
    # strongly connected mean graph + positive rule floor => irreducible chain
    rng = np.random.default_rng(9)
    found = 0
    while found < 15:
        n = int(rng.integers(2, 6))
        a = _random_adjacency(rng, n)
        if not is_strongly_connected(a) or a.sum() > 12:
            continue
        found += 1
        spec = IidFailureGraph(a, p_fail=float(rng.uniform(0.0, 0.8)))
        for rule in (OutDegreeReciprocal(), Lazy(0.35)):
            assert is_irreducible(mean_transition_matrix(spec, rule))


# The hitting tails below are a node's non-visit fractions from the chain
# engine, which walks every trial on its own graph and move streams.


def test_hitting_tail_start_inside_target(ref5_static, reciprocal):
    result = run_chain_trials(
        ref5_static, reciprocal, start_node=0, horizon=5, trials=64, master_seed=0
    )
    assert np.array_equal(result.nonvisit_frac[:, 0], np.zeros(6))


def test_hitting_tail_single_edge_resolves_in_one_step():
    spec = StaticGraph(_adj(2, [(0, 1), (1, 0)]))
    result = run_chain_trials(
        spec, OutDegreeReciprocal(), start_node=0, horizon=4, trials=64, master_seed=0
    )
    tail = result.nonvisit_frac[:, 1]
    assert tail[0] == 1.0
    assert np.array_equal(tail[1:], np.zeros(4))


def test_hitting_tail_matches_geometric_closed_form():
    spec = StaticGraph(~np.eye(3, dtype=bool))
    trials = 20_000
    result = run_chain_trials(
        spec, OutDegreeReciprocal(), start_node=0, horizon=10, trials=trials, master_seed=2
    )
    tail = result.nonvisit_frac[:, 2]
    exact = 0.5 ** np.arange(11)
    se = np.sqrt(exact * (1 - exact) / trials)
    assert np.all(np.abs(tail - exact) <= 4 * se + 1e-12)


def _hitting_tail_bound(n, delta, t, t0):
    # P(first target entry after t) <= (1 - delta^n) ** ((t - t0)/n - 1), clipped to 1
    return nonvisit_bound(tail_constants(delta, n), t - t0)


def test_tail_bound_values():
    assert _hitting_tail_bound(1, 1.0, 5, 0) == 0.0
    assert _hitting_tail_bound(1, 1.0, 0, 0) == 1.0
    assert _hitting_tail_bound(3, 0.5, 0, 0) == 1.0  # clipped from above
    assert _hitting_tail_bound(3, 0.5, 6, 0) == pytest.approx(7.0 / 8.0)
    assert _hitting_tail_bound(2, 0.5, 10, 4) == pytest.approx(0.75 ** ((10 - 4) / 2 - 1))


def test_tail_constants_signs():
    consts = tail_constants(0.5, 3)
    assert consts.epsilon == pytest.approx(0.125)
    assert consts.c1 == pytest.approx(1.0 / 0.875)
    assert consts.c2 > 0  # decaying envelope
    # envelope equals the blockwise bound at block multiples
    t = np.array([0.0, 3.0, 6.0, 9.0])
    manual = np.minimum(1.0, consts.c1 * np.exp(-consts.c2 * t))
    assert np.allclose(nonvisit_bound(consts, t), manual)


def test_empirical_tail_dominated_by_bound():
    spec = IidFailureGraph(~np.eye(3, dtype=bool), p_fail=0.3)
    rule = OutDegreeReciprocal()
    delta = chain_floor(mean_transition_matrix(spec, rule))
    trials = 20_000
    result = run_chain_trials(spec, rule, start_node=0, horizon=30, trials=trials, master_seed=7)
    tail = result.nonvisit_frac[:, 2]
    for t in range(31):
        bound = _hitting_tail_bound(3, delta, t, 0)
        se = np.sqrt(tail[t] * (1 - tail[t]) / trials)
        assert tail[t] <= bound + 3 * se + 1e-12


def test_long_run_visit_frequencies_match_stationary(ref5_static, reciprocal):
    q = apply_rule(reciprocal, ref5_static.backbone)
    pi = stationary_distribution(q)
    assert pi.sum() == pytest.approx(1.0)
    assert np.allclose(pi @ q, pi, atol=1e-12)
    rng = np.random.default_rng(1)
    walkers, steps, burn_in = 100, 10_000, 200
    pos = np.zeros(walkers, dtype=int)
    counts = np.zeros(5)
    rows = ref5_static.backbone
    for t in range(steps):
        pos = bulk_step(pos, rows[pos], reciprocal, rng.random(walkers))
        if t >= burn_in:
            counts += np.bincount(pos, minlength=5)
    freq = counts / counts.sum()
    assert np.abs(freq - pi).max() < 0.01

