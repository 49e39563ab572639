"""Monte Carlo experiment runner, error metrics, and verification reports.

Metrics follow the relative mean-square-error convention: squared estimation
error normalized by the initial squared error, which is ``||theta||^2``
everywhere because all estimates start at zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np
import yaml

from . import __version__
from ._linalg import trace_of_inverse
from ._streams import SeedLike, trial_seed
from .baseline import CiConfig, GridSearchResult, grid_configs, grid_search
from .chain import (
    TailConstants,
    TransitionRule,
    chain_floor,
    mean_transition_matrix,
    nonvisit_bound,
    tail_constants,
)
from .engine import (
    TickStats,
    run_chain_trials,
    run_ci_trials,  # noqa: F401 - unused here; perfbench/layers.py patches this binding
    run_token_trials,
)
from .errors import NonFiniteMetric, UnsupportedProcess
from .graphs import GraphSpec, check_run, diameter
from .observation import GlobalModel
from .token import (
    AlphaSchedule,
    EpisodeTrace,
    column_rows,
    run_episode,
    write_csv_lines,
    write_trace_csv,
)

Z_95 = 1.96
# The payload identity's tolerance on (d, K), relative to 1 + max |d|.
IDENTITY_TOL = 1e-10
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


# The token engine series each algorithm's metrics reduce.  A relative MSE is the
# series' mean over trials divided by ||theta||^2; an optimality ratio scales the same
# series' mean and half-widths by t / trace(sigma_c^{-1}).  ``grid_search`` reduces
# the CI series ``netavg`` of the winner's run itself.
SERIES = {"token": ("sq_err", "last_seen"), "central": ("central",)}


def _reducers(config: ExperimentConfig) -> dict[str, TickStats]:
    """One chunk-at-a-time reduction of each engine series the requested algorithms read."""
    read = [k for name, keys in SERIES.items() if name in config.algorithms for k in keys]
    return {k: TickStats(config.trials, config.horizon + 1) for k in read}


def _aggregate(name: str, source: TickStats, scale: float = 1.0) -> MetricSeries:
    """The per-tick mean over trials of ``source``'s series over ``scale``, with 95% half-widths."""
    hw = Z_95 * source.std / math.sqrt(source.trials) / scale  # 0 for a single trial
    return MetricSeries(name=name, values=source.mean / scale, half_widths=hw, trials=source.trials)


def rmse_token(stats: TickStats, model: GlobalModel) -> MetricSeries:
    """Relative MSE of the token-carried estimate, from the series ``sq_err``."""
    return _aggregate("rmse_token", stats, model.theta_sq)


def rmse_last_seen(stats: TickStats, model: GlobalModel) -> MetricSeries:
    """Relative MSE of a network where each agent keeps the last estimate it saw.

    Per trial, the series ``last_seen``: the sum of last-seen squared errors
    over visited agents divided by the visited count; unvisited agents
    contribute nothing.
    """
    return _aggregate("rmse_token_last_seen", stats, model.theta_sq)


def rmse_network_ci(stats: TickStats, model: GlobalModel) -> MetricSeries:
    """Agent-averaged relative MSE of the consensus+innovations network (series ``netavg``)."""
    return _aggregate("rmse_ci_network", stats, model.theta_sq)


def rmse_central(stats: TickStats, model: GlobalModel) -> MetricSeries:
    """Relative MSE of the centralized oracle on the same draws (series ``central``)."""
    return _aggregate("rmse_central", stats, model.theta_sq)


def optimality_ratio(
    stats: TickStats, model: GlobalModel, name: str = "optimality_ratio"
) -> MetricSeries:
    """``t * mean squared error / trace(sigma_c^{-1})`` per tick.

    ``stats`` reduces ``sq_err`` or ``central``; its mean and half-widths are
    scaled by ``t / trace(sigma_c^{-1})``.  Approaches one for an estimator
    that attains the oracle error rate.
    """
    if stats.trials < 2:
        raise ValueError("optimality ratio needs at least two trials")
    series = _aggregate(name, stats)
    weight = np.arange(series.values.size) / trace_of_inverse(model.sigma_c)
    series.values *= weight
    series.half_widths *= weight
    return series


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
    irreducible; a deterministic sequence or a reducible chain raises
    ``UnsupportedProcess``, so this is ``verify``'s one irreducibility check.
    The envelopes use the exact floor ``delta = chain_floor(mean_transition_matrix)``
    at any out-degree, so ``master_seed`` reaches only the chain trials, and
    block length ``m = diameter(q_mean > 0)``, the diameter of that matrix's
    support: any target is entered within ``m`` steps with probability at least
    ``delta**m``, and some node is unvisited with probability at most ``n``
    times a node's envelope.  PASS means every sampled tick satisfies
    ``empirical <= envelope + 3 * binomial standard error``.
    """
    q_mean = mean_transition_matrix(spec, rule)
    m = diameter(q_mean > 0)
    if m is None:
        raise UnsupportedProcess("averaged chain is not irreducible; tail bounds do not apply")
    delta = chain_floor(q_mean)
    n = spec.n
    consts = tail_constants(delta, m)
    result = run_chain_trials(spec, rule, start_node, horizon, trials, master_seed)
    env = nonvisit_bound(consts, np.arange(horizon + 1, dtype=float))
    gap_env = np.minimum(1.0, n * env)
    # one check of the n node columns and the cover-gap column against their envelopes
    frac = np.column_stack([result.nonvisit_frac, result.gap_frac])
    envelope = np.column_stack([*[env] * n, gap_env])
    bad = frac > envelope + 3.0 * np.sqrt(frac * (1 - frac) / trials)
    labels = [f"node {i}: empirical nonvisit" for i in range(n)] + ["cover gap: empirical"]
    violations = []
    for j in np.flatnonzero(bad.any(axis=0)):
        first = int(bad[:, j].argmax())
        violations.append(
            f"{labels[j]} {frac[first, j]:.4g} above envelope {envelope[first, j]:.4g} at t={first}"
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
            seed=trial_seed(master_seed, e),
        )
        # every tick at once: the statistic each agent last sent, zero for agents never seen
        seen = trace.tau >= 0
        sent = trace.x_hist[np.maximum(trace.tau, 0), np.arange(model.n_agents)]
        d_ref = np.where(seen[..., None], sent, 0.0).sum(axis=1)
        k_ref = np.where(seen[..., None, None], b_stack, 0.0).sum(axis=1)
        d_dev = np.abs(trace.d_hist - d_ref).max(axis=1)
        k_dev = np.abs(trace.K_hist - k_ref).max(axis=(1, 2))
        max_d = max(max_d, float(d_dev.max()))
        max_k = max(max_k, float(k_dev.max()))
        limit = IDENTITY_TOL * (1.0 + np.abs(trace.d_hist).max(axis=1))
        failed = (d_dev > limit) | (k_dev > limit)
        if first_failure is None and failed.any():
            t = int(failed.argmax())
            first_failure = f"episode {e}, t={t}: d_dev={d_dev[t]:.3e} k_dev={k_dev[t]:.3e}"
    return StateIdentityReport(
        passed=first_failure is None,
        episodes=episodes,
        max_d_dev=max_d,
        max_k_dev=max_k,
        first_failure=first_failure,
    )


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
    ci_grid: dict[str, Sequence[float]] | None = None  # fixed gains are a one-point grid
    echo: dict | None = None

    def __post_init__(self) -> None:
        try:  # alpha grows in t: a float at the horizon, it is one at every tick
            self.schedule.alpha(self.horizon)
        except OverflowError:
            raise ValueError(
                f"token.alpha_params: alpha = c * (t + 1)**q overflows a float by t={self.horizon}"
            ) from None
        self.algorithms = tuple(self.algorithms)
        if not self.algorithms:
            raise ValueError("at least one algorithm must be requested")
        unknown = set(self.algorithms) - set(ALGORITHMS)
        if unknown:
            raise ValueError(f"unknown algorithms: {sorted(unknown)}")
        check_run(self.graph, self.horizon, self.trials, self.start_node, self.model.n_agents)
        if "ci" in self.algorithms and self.ci_grid is None:
            raise ValueError("ci runs need a gain grid; fixed gains are a one-point grid")
        if self.ci_grid is not None:  # every candidate is checked before any engine runs
            try:
                grid_configs(self.ci_grid)
            except ValueError as exc:
                raise ValueError(f"ci.grid: {exc}") from None


@dataclass(eq=False)
class ExperimentResult:
    metrics: dict[str, MetricSeries]
    files: list[Path]
    grid: GridSearchResult | None = None


def _check_finite(series: MetricSeries) -> None:
    if not np.isfinite(series.values).all() or not np.isfinite(series.half_widths).all():
        raise NonFiniteMetric(f"metric {series.name} contains non-finite values")


def run_experiment(config: ExperimentConfig, out_dir: Path | str | None = None) -> ExperimentResult:
    """Run all requested algorithms on shared per-trial draws and write CSVs.

    Per-trial noise and graph streams are shared across algorithms, so
    differences in the metrics are purely algorithmic.  A run of the baseline
    also writes its grid's scores.  Output is deterministic given the config
    and seed; partial files are removed if the run fails.
    """
    metrics: dict[str, MetricSeries] = {}
    grid_result: GridSearchResult | None = None
    trace: EpisodeTrace | None = None

    model, reduce = config.model, _reducers(config)
    if reduce:  # one run of the token engine, which scores the oracle on its running means
        token = run_token_trials(
            model,
            config.graph,
            config.rule,
            config.schedule,
            horizon=config.horizon,
            trials=config.trials,
            start_node=config.start_node,
            master_seed=config.seed,
            readers=reduce,
        )
    if "token" in config.algorithms:
        metrics["rmse_token"] = rmse_token(reduce["sq_err"], model)
        metrics["rmse_token_last_seen"] = rmse_last_seen(reduce["last_seen"], model)
        trace = token.trial0
        if config.trials >= 2:
            metrics["optimality_ratio_token"] = optimality_ratio(
                reduce["sq_err"], model, name="optimality_ratio_token"
            )
    if "central" in config.algorithms:
        metrics["rmse_central"] = rmse_central(reduce["central"], model)
        if config.trials >= 2:
            metrics["optimality_ratio_central"] = optimality_ratio(
                reduce["central"], model, name="optimality_ratio_central"
            )

    if "ci" in config.algorithms:
        grid_result = grid_search(
            model,
            config.graph,
            config.ci_grid,
            trials=config.trials,
            horizon=config.horizon,
            seed=config.seed,
        )
        metrics["rmse_ci_network"] = rmse_network_ci(grid_result.best_trials, model)

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
            if grid_result is not None:
                scores_path = out / "grid_scores.csv"
                scores = (f"{c.a},{c.b},{c.tau1},{c.tau2},{v:.17g}" for c, v in grid_result.scores)
                write_csv_lines(scores_path, "a,b,tau1,tau2,rmse_at_horizon", scores)
                files.append(scores_path)
            if trace is not None:
                trace_path = out / "trace_trial0.csv"
                write_trace_csv(trace, trace_path)
                files.append(trace_path)
            meta_path = out / "meta.yaml"
            _write_meta(meta_path, config, grid_result.best if grid_result else None)
            files.append(meta_path)
        except BaseException:
            for f in files:
                f.unlink(missing_ok=True)
            raise
    return ExperimentResult(metrics=metrics, files=files, grid=grid_result)


def write_metrics_csv(path: Path | str, metrics: dict[str, MetricSeries]) -> None:
    """Long-format export: t, metric, value, ci_half_width, trials."""
    rows = (
        f"{t},{name},{v:.17g},{h:.17g},{s.trials}"
        for name, s in sorted(metrics.items())
        for t, (v, h) in enumerate(column_rows(s.values, s.half_widths))
    )
    write_csv_lines(path, "t,metric,value,ci_half_width,trials", rows)


def write_compare_csv(path: Path | str, metrics: dict[str, MetricSeries]) -> None:
    """Wide-format export with one value column per metric."""
    names = sorted(metrics)
    columns = [metrics[n].values for n in names] + [metrics[n].half_widths for n in names]
    rows = (
        ",".join([str(t), *(f"{v:.17g}" for v in row)])
        for t, row in enumerate(column_rows(*columns))
    )
    write_csv_lines(path, ",".join(["t", *names, *(f"{n}_half_width" for n in names)]), rows)


def _write_meta(path: Path, config: ExperimentConfig, ci_best: CiConfig | None) -> None:
    meta = {
        "seed": config.seed,
        "horizon": config.horizon,
        "trials": config.trials,
        "algorithms": list(config.algorithms),
        "normalizer": "theta_squared_norm",
        "version": __version__,
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
        yaml.dump(meta, fh, Dumper=getattr(yaml, "CSafeDumper", yaml.SafeDumper), sort_keys=True)
