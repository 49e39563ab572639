"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Tolerances are fixed here, not calibrated elsewhere.
"""

import itertools

import numpy as np
import pytest

from roamtoken import (
    AgentModel,
    AlphaSchedule,
    GlobalModel,
    IidFailureGraph,
    Lazy,
    OutDegreeReciprocal,
    StaticGraph,
    apply_rule,
    generate_backbone_with_degree,
    is_strongly_connected,
    mean_transition_matrix,
    optimality_ratio,
    rmse_network_ci,
    run_episode,
    verify_state_identity,
    verify_tail_bounds,
)
from roamtoken._linalg import trace_of_inverse
from roamtoken._streams import derived_stream, trial_seed
from roamtoken.baseline import grid_search
from roamtoken.engine import run_token_trials
from roamtoken.graphs import smallest_connected_window

from conftest import ACCEPTANCE_LINES, make_ref5_model, random_spd, ref5_adjacency
from references import (
    SeriesRows,
    central_estimate,
    relative_degree,
    sequential_reachability,
    tick_stats,
    verify_sequential_connectivity,
)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    state = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num} {name}: {state} {detail}".rstrip()
    ACCEPTANCE_LINES.append(line)
    print(line)


def test_criterion_1_optimality_ratio():
    model = make_ref5_model()
    spec = StaticGraph(ref5_adjacency())
    horizon, trials = 20_000, 1000
    result = SeriesRows(horizon, "sq_err")
    run_token_trials(
        model,
        spec,
        OutDegreeReciprocal(),
        AlphaSchedule(),
        horizon=horizon,
        trials=trials,
        master_seed=2024,
        readers=result.readers,
    )
    series = optimality_ratio(tick_stats(result["sq_err"]), model)
    ratio = float(series.values[-1])
    # same quantity straight from the definition, independent of the metric op
    direct = horizon * result["sq_err"][:, -1].mean() / trace_of_inverse(model.sigma_c)
    assert ratio == pytest.approx(direct, rel=1e-12)
    ok = 0.9 <= ratio <= 1.2
    _report(1, "optimality ratio", ok, f"ratio={ratio:.4f} trials={trials} t={horizon}")
    assert ok


def test_criterion_2_consistency():
    model = make_ref5_model()
    spec = StaticGraph(ref5_adjacency())
    horizon, trials = 100_000, 100
    result = SeriesRows(horizon, "sq_err")
    run_token_trials(
        model,
        spec,
        OutDegreeReciprocal(),
        AlphaSchedule(),
        horizon=horizon,
        trials=trials,
        master_seed=512,
        readers=result.readers,
    )
    rel = np.sqrt(result["sq_err"][:, -1]) / np.linalg.norm(model.theta)
    median = float(np.median(rel))
    ok = median < 0.01
    _report(2, "consistency", ok, f"median_rel_err={median:.5f} trials={trials} t={horizon}")
    assert ok


def test_criterion_3_central_oracle_variance():
    model = make_ref5_model()
    k, trials = 1000, 10_000
    rng = derived_stream(777, 0)
    h_rows = np.stack([a.H[0] for a in model.agents])
    mean_y = h_rows @ model.theta
    estimates = np.empty((trials, 2))
    done = 0
    while done < trials:
        block = min(1000, trials - done)
        z = rng.standard_normal((block, k, 5))
        ybar = mean_y + z.mean(axis=1)  # unit noise: empirical mean of k draws
        for r in range(block):
            estimates[done + r] = central_estimate(
                model.agents, [ybar[r, i : i + 1] for i in range(5)]
            )
        done += block
    emp_cov = np.cov(estimates.T)
    target = np.linalg.inv(model.sigma_c) / k
    rel = np.linalg.norm(emp_cov - target) / np.linalg.norm(target)
    ok = rel < 0.10
    _report(3, "central oracle variance", ok, f"frobenius_rel_err={rel:.4f} trials={trials}")
    assert ok


def test_criterion_4_state_identity_oracle():
    episodes = 1000
    rng = derived_stream(4242, 0)
    failures = []
    worst = 0.0
    for e in range(episodes):
        n = int(rng.integers(2, 9))
        dim = int(rng.integers(2, 4))
        while True:
            agents = []
            for i in range(n):
                m = int(rng.integers(1, 3))
                agents.append(AgentModel(i, rng.standard_normal((m, dim)), random_spd(rng, m)))
            try:
                model = GlobalModel(agents, rng.standard_normal(dim))
                break
            except Exception:
                continue
        backbone = rng.random((n, n)) < 0.5
        np.fill_diagonal(backbone, False)
        spec = IidFailureGraph(backbone, p_fail=0.3)
        rule = OutDegreeReciprocal() if e % 2 == 0 else Lazy(0.3)
        report = verify_state_identity(
            model,
            spec,
            rule,
            AlphaSchedule(),
            episodes=1,
            horizon=200,
            master_seed=trial_seed(4242, e),
            start_node=int(rng.integers(0, n)),
        )
        worst = max(worst, report.max_d_dev, report.max_k_dev)
        if not report.passed:
            failures.append(report.first_failure)
    ok = not failures
    _report(4, "state identity oracle", ok, f"episodes={episodes} max_dev={worst:.2e}")
    assert ok, failures[:3]


def _all_digraphs(n):
    offdiag = [(i, j) for i in range(n) for j in range(n) if i != j]
    for bits in range(1 << len(offdiag)):
        a = np.zeros((n, n), dtype=bool)
        for k, (i, j) in enumerate(offdiag):
            if bits >> k & 1:
                a[i, j] = True
        yield a


def test_criterion_5_sequential_connectivity():
    checked = 0
    counterexamples = []

    # exhaustive: n=2, b=2 over every 3-frame sequence with connected windows
    frames2 = list(_all_digraphs(2))
    for combo in itertools.product(frames2, repeat=3):
        frames = list(combo)
        if smallest_connected_window(frames, cycle=False) not in (1, 2):
            continue
        checked += 1
        for t0 in range(2):
            if not sequential_reachability(frames[t0 : t0 + 2]).all():
                counterexamples.append(f"n=2 b=2 start={t0}")

    # exhaustive: n=3, b=1 over pairs of strongly connected frames
    sc3 = [a for a in _all_digraphs(3) if is_strongly_connected(a)]
    for combo in itertools.product(sc3, repeat=2):
        frames = list(combo)
        checked += 1
        if not sequential_reachability(frames).all():
            counterexamples.append("n=3 b=1")

    # sampled: remaining size/window combinations
    for n, b, samples in ((3, 2, 4000), (4, 1, 4000), (4, 2, 4000)):
        report = verify_sequential_connectivity(
            n_values=(n,), b_values=(b,), samples_per_combo=samples, master_seed=55
        )
        checked += report.checked
        counterexamples.extend(report.counterexamples)

    ok = not counterexamples and checked >= 10_000
    _report(5, "sequential connectivity", ok, f"sequences={checked}")
    assert ok, counterexamples[:3]


def test_criterion_6_tail_dominance():
    spec = IidFailureGraph(~np.eye(5, dtype=bool), p_fail=0.5)
    report = verify_tail_bounds(
        spec, OutDegreeReciprocal(), start_node=0, trials=10_000, horizon=400, master_seed=99
    )
    _report(
        6,
        "visitation tail dominance",
        report.passed,
        f"delta={report.delta:.4f} trials={report.trials}",
    )
    assert report.passed, report.violations


def test_criterion_7_mean_chain_irreducible():
    specs = {
        "ref5_static": StaticGraph(ref5_adjacency()),
        "ref5_iid_complete": IidFailureGraph(~np.eye(5, dtype=bool), p_fail=0.5),
        "geo20_iid": IidFailureGraph(
            generate_backbone_with_degree(20, 0.12, derived_stream(7, 0)), p_fail=0.5
        ),
    }
    results = {}
    for name, spec in specs.items():
        q = mean_transition_matrix(spec, OutDegreeReciprocal())
        results[name] = is_strongly_connected(q > 0)
    ok = all(results.values())
    _report(7, "mean chain irreducible", ok, " ".join(f"{k}={v}" for k, v in results.items()))
    assert ok


def test_criterion_8_token_beats_tuned_baseline():
    rng = derived_stream(2025, 0)
    backbone = generate_backbone_with_degree(20, 0.12, rng)
    degree = relative_degree(backbone)
    assert abs(degree - 0.12) < 0.02
    spec = IidFailureGraph(backbone, p_fail=0.5)
    theta = np.arange(1.0, 6.0)
    agents = [AgentModel(i, rng.standard_normal((1, 5)), [[1.0]]) for i in range(20)]
    model = GlobalModel(agents, theta)
    horizon, trials, seed = 10_000, 100, 31337

    token = SeriesRows(horizon, "sq_err")
    run_token_trials(
        model,
        spec,
        OutDegreeReciprocal(),
        AlphaSchedule(),
        horizon=horizon,
        trials=trials,
        master_seed=seed,
        readers=token.readers,
    )
    theta_sq = float(theta @ theta)
    token_rmse = token["sq_err"].mean(axis=0) / theta_sq

    grid = {"a": [0.5, 1.0, 2.0], "b": [0.1, 0.5, 1.0], "tau1": [1.0], "tau2": [0.25, 0.5]}
    search = grid_search(model, spec, grid, trials=trials, horizon=horizon, seed=seed)
    ci_rmse = rmse_network_ci(search.best_trials, model).values

    probes = (100, 1000, 10_000)
    ratios = {t: token_rmse[t] / ci_rmse[t] for t in probes}
    ordering_ok = all(token_rmse[t] <= ci_rmse[t] for t in probes)
    decay = token_rmse[1] / token_rmse[10_000]
    ok = ordering_ok and decay >= 100.0
    detail = " ".join(f"t={t}:token/ci={ratios[t]:.3f}" for t in probes)
    best = search.best
    _report(
        8,
        "token vs tuned baseline",
        ok,
        f"{detail} decay={decay:.1e} (ci a={best.a} b={best.b} tau2={best.tau2})",
    )
    assert ok, (token_rmse[list(probes)], ci_rmse[list(probes)], decay)


def test_criterion_9_chain_mechanics():
    rng = derived_stream(606, 0)
    worst_row_dev = 0.0
    for _ in range(300):
        n = int(rng.integers(2, 8))
        a = rng.random((n, n)) < rng.uniform(0.1, 0.9)
        np.fill_diagonal(a, False)
        for rule in (OutDegreeReciprocal(), Lazy(float(rng.uniform(0.05, 0.95)))):
            q = apply_rule(rule, a)
            worst_row_dev = max(worst_row_dev, float(np.abs(q.sum(axis=1) - 1.0).max()))
            off = q.copy()
            np.fill_diagonal(off, 0.0)
            assert not ((off > 0) & ~a).any()

    # every move in these episodes passes the exact edge-or-self-hold assertion
    model = make_ref5_model()
    sched = AlphaSchedule()
    specs = [
        StaticGraph(ref5_adjacency()),
        IidFailureGraph(ref5_adjacency(), p_fail=0.6),
        IidFailureGraph(~np.eye(5, dtype=bool), p_fail=0.9),
    ]
    for k, spec in enumerate(specs):
        for rule in (OutDegreeReciprocal(), Lazy(0.25)):
            run_episode(model, spec, rule, sched, horizon=400, seed=k)
    run_token_trials(
        model, specs[1], OutDegreeReciprocal(), sched, horizon=500, trials=50, master_seed=1
    )
    ok = worst_row_dev <= 1e-12
    _report(9, "chain mechanics", ok, f"max_row_sum_dev={worst_row_dev:.2e}")
    assert ok
