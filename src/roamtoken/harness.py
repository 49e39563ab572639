"""Monte Carlo experiment runner, error metrics, and verification reports.

Metrics follow the relative mean-square-error convention: squared estimation
error normalized by the initial squared error, which is ``||theta||^2``
everywhere because all estimates start at zero.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
import yaml

from ._linalg import trace_of_inverse
from ._streams import SeedLike, derived_stream, trial_seed
from .baseline import CiConfig, GridSearchResult, grid_search
from .chain import (
    TailConstants,
    TransitionRule,
    chain_floor,
    cover_gap_bound,
    is_irreducible,
    mean_transition_matrix,
    nonvisit_bound,
    support_diameter,
    tail_constants,
)
from .engine import (
    CentralTrials,
    CiTrials,
    TokenTrials,
    run_central_trials,
    run_chain_trials,
    run_ci_trials,
    run_token_trials,
)
from .errors import MissingTrace, NonFiniteMetric
from .graphs import (
    GraphSpec,
    sequential_reachability,
    window_union_connected,
)
from .observation import GlobalModel
from .token import AlphaSchedule, EpisodeTrace, run_episode, write_trace_csv

Z_95 = 1.96
ALGORITHMS = ("token", "ci", "central")


@dataclass(eq=False)
class MetricSeries:
    """A trial-aggregated per-tick series with normal-approximation half-widths."""

    name: str
    values: np.ndarray
    half_widths: np.ndarray
    trials: int

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        self.half_widths = np.asarray(self.half_widths, dtype=float)
        if self.values.shape != self.half_widths.shape:
            raise ValueError("values and half-widths must have the same length")
        if (self.half_widths < 0).any():
            raise ValueError("half-widths must be nonnegative")


def _aggregate(name: str, per_trial: np.ndarray, trials: int, scale: float = 1.0) -> MetricSeries:
    values = per_trial.mean(axis=0) / scale
    if trials >= 2:
        hw = Z_95 * per_trial.std(axis=0, ddof=1) / math.sqrt(trials) / scale
    else:
        hw = np.zeros_like(values)
    return MetricSeries(name=name, values=values, half_widths=hw, trials=trials)


def rmse_token(trials: TokenTrials) -> MetricSeries:
    """Relative MSE of the token-carried estimate."""
    if trials.sq_err is None:
        raise MissingTrace("token squared errors were not recorded")
    theta_sq = float(trials.theta @ trials.theta)
    return _aggregate("rmse_token", trials.sq_err, trials.trials, scale=theta_sq)


def rmse_last_seen(trials: TokenTrials) -> MetricSeries:
    """Relative MSE of a network where each agent keeps the last estimate it saw.

    Per trial: the sum of last-seen squared errors over visited agents divided
    by the visited count; unvisited agents contribute nothing.
    """
    if trials.last_seen_mean_sq is None:
        raise MissingTrace("last-seen squared errors were not recorded")
    theta_sq = float(trials.theta @ trials.theta)
    return _aggregate("rmse_token_last_seen", trials.last_seen_mean_sq, trials.trials, scale=theta_sq)


def rmse_network_ci(trials: CiTrials) -> MetricSeries:
    """Agent-averaged relative MSE of the consensus+innovations network."""
    if trials.netavg_sq_err is None:
        raise MissingTrace("baseline squared errors were not recorded")
    theta_sq = float(trials.theta @ trials.theta)
    return _aggregate("rmse_ci_network", trials.netavg_sq_err, trials.trials, scale=theta_sq)


def rmse_central(trials: CentralTrials) -> MetricSeries:
    """Relative MSE of the centralized oracle on the same draws."""
    theta_sq = float(trials.theta @ trials.theta)
    return _aggregate("rmse_central", trials.sq_err, trials.trials, scale=theta_sq)


def optimality_ratio(trials: TokenTrials | CentralTrials, model: GlobalModel, name: str = "optimality_ratio") -> MetricSeries:
    """``t * mean squared error / trace(sigma_c^{-1})`` per tick.

    Approaches one for an estimator that attains the oracle error rate.
    """
    if trials.trials < 2:
        raise ValueError("optimality ratio needs at least two trials")
    if trials.sq_err is None:
        raise MissingTrace("squared errors were not recorded")
    trace_inv = trace_of_inverse(model.sigma_c)
    t = np.arange(trials.sq_err.shape[1], dtype=float)
    scaled = trials.sq_err * t[None, :] / trace_inv
    return _aggregate(name, scaled, trials.trials)


@dataclass(eq=False)
class TailBoundReport:
    """Empirical visitation tails against their analytic exponential envelopes."""

    passed: bool
    delta: float
    constants: TailConstants
    trials: int
    horizon: int
    nonvisit_frac: np.ndarray
    gap_frac: np.ndarray
    nonvisit_env: np.ndarray
    gap_env: np.ndarray
    violations: list[str] = field(default_factory=list)

    def summary(self) -> str:
        state = "PASS" if self.passed else "FAIL"
        return (
            f"{state} tail bounds: delta={self.delta:.6g} eps={self.constants.epsilon:.6g} "
            f"c2={self.constants.c2:.6g} trials={self.trials} horizon={self.horizon}"
        )


def verify_tail_bounds(
    spec: GraphSpec,
    rule: TransitionRule,
    start_node: int = 0,
    trials: int = 10_000,
    horizon: int = 400,
    master_seed: SeedLike = 0,
) -> TailBoundReport:
    """Check that empirical visitation tails sit under the analytic envelopes.

    Requires a static or i.i.d.-failure process whose averaged chain is
    irreducible; a deterministic sequence raises ``UnsupportedProcess``.  The
    envelopes use the exact floor ``delta = chain_floor(mean_transition_matrix)``
    at any out-degree, so ``master_seed`` reaches only the chain trials, and
    block length ``support_diameter`` of that matrix: any target is entered
    within that many steps with probability at least ``delta**diameter``.  PASS
    means every sampled tick satisfies
    ``empirical <= envelope + 3 * binomial standard error``.
    """
    q_mean = mean_transition_matrix(spec, rule)
    if not is_irreducible(q_mean):
        raise ValueError("averaged chain is not irreducible; tail bounds do not apply")
    delta = chain_floor(q_mean)
    n = spec.n
    consts = tail_constants(delta, support_diameter(q_mean))
    result = run_chain_trials(spec, rule, start_node, horizon, trials, master_seed)
    t = np.arange(horizon + 1, dtype=float)
    env = nonvisit_bound(consts, t)
    gap_env = cover_gap_bound(consts, n, t)
    violations: list[str] = []
    se_node = 3.0 * np.sqrt(result.nonvisit_frac * (1 - result.nonvisit_frac) / trials)
    for i in range(n):
        bad = result.nonvisit_frac[:, i] > env + se_node[:, i]
        if bad.any():
            first = int(np.flatnonzero(bad)[0])
            violations.append(
                f"node {i}: empirical nonvisit {result.nonvisit_frac[first, i]:.4g} above "
                f"envelope {env[first]:.4g} at t={first}"
            )
    se_gap = 3.0 * np.sqrt(result.gap_frac * (1 - result.gap_frac) / trials)
    bad = result.gap_frac > gap_env + se_gap
    if bad.any():
        first = int(np.flatnonzero(bad)[0])
        violations.append(
            f"cover gap: empirical {result.gap_frac[first]:.4g} above envelope "
            f"{gap_env[first]:.4g} at t={first}"
        )
    return TailBoundReport(
        passed=not violations,
        delta=delta,
        constants=consts,
        trials=trials,
        horizon=horizon,
        nonvisit_frac=result.nonvisit_frac,
        gap_frac=result.gap_frac,
        nonvisit_env=env,
        gap_env=gap_env,
        violations=violations,
    )


@dataclass(eq=False)
class StateIdentityReport:
    """Incremental payload vs from-scratch recomputation over whole episodes."""

    passed: bool
    episodes: int
    max_d_dev: float
    max_k_dev: float
    first_failure: str | None = None

    def summary(self) -> str:
        state = "PASS" if self.passed else "FAIL"
        return (
            f"{state} payload identity: episodes={self.episodes} "
            f"max_d_dev={self.max_d_dev:.3e} max_k_dev={self.max_k_dev:.3e}"
        )


def verify_state_identity(
    model: GlobalModel,
    spec: GraphSpec,
    rule: TransitionRule,
    schedule: AlphaSchedule,
    episodes: int = 10,
    horizon: int = 200,
    master_seed: SeedLike = 0,
    start_node: int = 0,
    tol: float = 1e-10,
) -> StateIdentityReport:
    """Replay episodes and recompute (d, K) from logged visit times and statistics."""
    b_stack = np.stack([a.B for a in model.agents])
    max_d = 0.0
    max_k = 0.0
    first_failure = None
    for e in range(episodes):
        trace = run_episode(
            model,
            spec,
            rule,
            schedule,
            horizon=horizon,
            start_node=start_node,
            record={"payload", "local_stats", "tau"},
            seed=trial_seed(master_seed, e),
        )
        for t in range(horizon + 1):
            tau_t = trace.tau[t]
            seen = tau_t >= 0
            d_ref = trace.x_hist[tau_t[seen], np.flatnonzero(seen)].sum(axis=0)
            k_ref = b_stack[seen].sum(axis=0)
            d_dev = float(np.abs(trace.d_hist[t] - d_ref).max())
            k_dev = float(np.abs(trace.K_hist[t] - k_ref).max())
            max_d = max(max_d, d_dev)
            max_k = max(max_k, k_dev)
            scale = 1.0 + float(np.abs(trace.d_hist[t]).max())
            if first_failure is None and (d_dev > tol * scale or k_dev > tol * scale):
                first_failure = f"episode {e}, t={t}: d_dev={d_dev:.3e} k_dev={k_dev:.3e}"
    return StateIdentityReport(
        passed=first_failure is None,
        episodes=episodes,
        max_d_dev=max_d,
        max_k_dev=max_k,
        first_failure=first_failure,
    )


@dataclass(eq=False)
class SequentialConnectivityReport:
    """Window-connected deterministic sequences vs frontier reachability."""

    passed: bool
    checked: int
    counterexamples: list[str] = field(default_factory=list)

    def summary(self) -> str:
        state = "PASS" if self.passed else "FAIL"
        return f"{state} sequential connectivity: sequences={self.checked}"


def _random_window_connected_sequence(
    n: int, b: int, length: int, rng: np.random.Generator, attempts: int = 200
) -> list[np.ndarray] | None:
    for _ in range(attempts):
        p_edge = rng.uniform(0.25, 0.9)
        frames = []
        for _ in range(length):
            a = rng.random((n, n)) < p_edge
            np.fill_diagonal(a, False)
            frames.append(a)
        if window_union_connected(frames, b):
            return frames
    return None


def verify_sequential_connectivity(
    n_values: Sequence[int] = (2, 3, 4),
    b_values: Sequence[int] = (1, 2),
    samples_per_combo: int = 2000,
    master_seed: int = 0,
) -> SequentialConnectivityReport:
    """Sample window-connected sequences and check all-pairs frontier reachability.

    For every sampled sequence whose complete b-windows all have strongly
    connected unions, every ordered node pair must be sequentially connected
    with self-loops within each window of (n-1)*b frames.
    """
    rng = derived_stream(master_seed, 7)
    checked = 0
    counterexamples: list[str] = []
    for n, b in itertools.product(n_values, b_values):
        window = (n - 1) * b
        length = window + b
        for _ in range(samples_per_combo):
            frames = _random_window_connected_sequence(n, b, length, rng)
            if frames is None:
                continue
            checked += 1
            for t0 in range(length - window + 1):
                reach = sequential_reachability(frames[t0 : t0 + window])
                if not reach.all():
                    i, j = np.argwhere(~reach)[0]
                    counterexamples.append(
                        f"n={n} b={b} window start {t0}: no sequential path {i}->{j}"
                    )
                    break
    return SequentialConnectivityReport(
        passed=not counterexamples, checked=checked, counterexamples=counterexamples
    )


@dataclass(eq=False)
class RuleSupportReport:
    passed: bool
    samples: int
    violations: list[str] = field(default_factory=list)

    def summary(self) -> str:
        state = "PASS" if self.passed else "FAIL"
        return f"{state} transition support/stochasticity: samples={self.samples}"


def check_rule_support(
    spec: GraphSpec,
    samples: int,
    rng: np.random.Generator,
    rule_apply: Callable[[np.ndarray], np.ndarray],
) -> RuleSupportReport:
    """Sampled adjacencies: rows must be stochastic and supported by real edges."""
    violations: list[str] = []
    for k in range(samples):
        a = spec.adjacency(k, rng.random(spec.draws))
        q = np.asarray(rule_apply(a))
        dev = float(np.abs(q.sum(axis=1) - 1.0).max())
        if dev > 1e-12:
            violations.append(f"sample {k}: row sums deviate by {dev:.3e}")
        off = q.copy()
        np.fill_diagonal(off, 0.0)
        if ((off > 0) & ~a).any():
            i, j = np.argwhere((off > 0) & ~a)[0]
            violations.append(f"sample {k}: positive weight on missing edge {i}->{j}")
        if violations:
            break
    return RuleSupportReport(passed=not violations, samples=samples, violations=violations)


@dataclass(eq=False)
class ExperimentConfig:
    """Everything one reproducible experiment needs."""

    model: GlobalModel
    graph: GraphSpec
    rule: TransitionRule
    schedule: AlphaSchedule
    algorithms: tuple[str, ...] = ("token",)
    horizon: int = 1000
    trials: int = 100
    seed: int = 0
    start_node: int = 0
    ci: CiConfig | None = None
    ci_grid: dict[str, Sequence[float]] | None = None
    echo: dict | None = None

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        self.algorithms = tuple(self.algorithms)
        if not self.algorithms:
            raise ValueError("at least one algorithm must be requested")
        unknown = set(self.algorithms) - set(ALGORITHMS)
        if unknown:
            raise ValueError(f"unknown algorithms: {sorted(unknown)}")
        if "ci" in self.algorithms and self.ci is None and self.ci_grid is None:
            raise ValueError("ci runs need either fixed parameters or a search grid")


@dataclass(eq=False)
class ExperimentResult:
    metrics: dict[str, MetricSeries]
    files: list[Path]
    ci_best: CiConfig | None = None
    grid: GridSearchResult | None = None


def _check_finite(series: MetricSeries) -> None:
    if not np.isfinite(series.values).all() or not np.isfinite(series.half_widths).all():
        raise NonFiniteMetric(f"metric {series.name} contains non-finite values")


def run_experiment(config: ExperimentConfig, out_dir: Path | str | None = None) -> ExperimentResult:
    """Run all requested algorithms on shared per-trial draws and write CSVs.

    Per-trial noise and graph streams are shared across algorithms, so
    differences in the metrics are purely algorithmic.  Output is
    deterministic given the config and seed; partial files are removed if the
    run fails.
    """
    metrics: dict[str, MetricSeries] = {}
    ci_best: CiConfig | None = None
    grid_result: GridSearchResult | None = None
    trace: EpisodeTrace | None = None

    want_central = "central" in config.algorithms
    central: CentralTrials | None = None
    if "token" in config.algorithms:
        token = run_token_trials(
            config.model,
            config.graph,
            config.rule,
            config.schedule,
            horizon=config.horizon,
            trials=config.trials,
            start_node=config.start_node,
            master_seed=config.seed,
            include_central=want_central,
        )
        metrics["rmse_token"] = rmse_token(token)
        metrics["rmse_token_last_seen"] = rmse_last_seen(token)
        trace = EpisodeTrace(
            horizon=token.horizon,
            theta=token.theta,
            holder=token.holder_trial0,
            visited_count=token.visited_count[0],
            token_sq_err=token.sq_err[0],
            mean_last_seen_sq_err=token.last_seen_mean_sq[0],
        )
        if config.trials >= 2:
            metrics["optimality_ratio_token"] = optimality_ratio(
                token, config.model, name="optimality_ratio_token"
            )
        central = token.central
    elif want_central:
        central = run_central_trials(
            config.model, config.horizon, config.trials, master_seed=config.seed
        )
    if central is not None:
        metrics["rmse_central"] = rmse_central(central)
        if config.trials >= 2:
            metrics["optimality_ratio_central"] = optimality_ratio(
                central, config.model, name="optimality_ratio_central"
            )

    if "ci" in config.algorithms:
        if config.ci_grid is not None:
            grid_result = grid_search(
                config.model,
                config.graph,
                config.ci_grid,
                trials=config.trials,
                horizon=config.horizon,
                seed=config.seed,
            )
            ci_cfg, ci = grid_result.best, grid_result.best_trials
        else:
            ci_cfg = config.ci
            ci = run_ci_trials(
                config.model,
                config.graph,
                ci_cfg,
                horizon=config.horizon,
                trials=config.trials,
                master_seed=config.seed,
            )
        metrics["rmse_ci_network"] = rmse_network_ci(ci)
        ci_best = ci_cfg

    for series in metrics.values():
        _check_finite(series)

    files: list[Path] = []
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        try:
            metrics_path = out / "metrics.csv"
            write_metrics_csv(metrics_path, metrics)
            files.append(metrics_path)
            if trace is not None:
                trace_path = out / "trace_trial0.csv"
                write_trace_csv(trace, trace_path)
                files.append(trace_path)
            meta_path = out / "meta.yaml"
            _write_meta(meta_path, config, ci_best)
            files.append(meta_path)
        except BaseException:
            for f in files:
                f.unlink(missing_ok=True)
            raise
    return ExperimentResult(metrics=metrics, files=files, ci_best=ci_best, grid=grid_result)


def write_metrics_csv(path: Path | str, metrics: dict[str, MetricSeries]) -> None:
    """Long-format export: t, metric, value, ci_half_width, trials."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "metric", "value", "ci_half_width", "trials"])
        for name in sorted(metrics):
            series = metrics[name]
            for t, (v, hw) in enumerate(zip(series.values, series.half_widths)):
                writer.writerow([t, name, f"{v:.17g}", f"{hw:.17g}", series.trials])


def write_compare_csv(path: Path | str, metrics: dict[str, MetricSeries]) -> None:
    """Wide-format export with one value column per metric."""
    names = sorted(metrics)
    length = len(metrics[names[0]].values)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + names + [f"{n}_half_width" for n in names])
        for t in range(length):
            row: list = [t]
            row += [f"{metrics[n].values[t]:.17g}" for n in names]
            row += [f"{metrics[n].half_widths[t]:.17g}" for n in names]
            writer.writerow(row)


def _version() -> str:
    try:
        from importlib.metadata import version

        return version("roamtoken")
    except Exception:
        return "unknown"


def _write_meta(path: Path, config: ExperimentConfig, ci_best: CiConfig | None) -> None:
    meta = {
        "seed": config.seed,
        "horizon": config.horizon,
        "trials": config.trials,
        "algorithms": list(config.algorithms),
        "normalizer": "theta_squared_norm",
        "version": _version(),
    }
    if ci_best is not None:
        meta["ci_parameters"] = {
            "a": ci_best.a,
            "b": ci_best.b,
            "tau1": ci_best.tau1,
            "tau2": ci_best.tau2,
        }
    if config.echo is not None:
        meta["config"] = config.echo
    with open(path, "w") as fh:
        yaml.safe_dump(meta, fh, sort_keys=True)
