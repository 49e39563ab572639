"""Command-line interface: reproducible runs driven by one config file.

Exit codes: 0 success, 1 config error, 2 runtime failure, 3 verification FAIL.
"""

from __future__ import annotations

import argparse
import csv
import sys
from functools import partial
from pathlib import Path

from ._streams import derived_stream
from .baseline import grid_search
from .chain import apply_rule, is_irreducible
from .config import (
    apply_overrides,
    build_experiment,
    default_seed,
    load_config,
)
from .errors import ConfigError, RoamTokenError, UnsupportedProcess
from .graphs import (
    DeterministicSequence,
    generate_backbone_with_degree,
    generate_geometric_backbone,
    relative_degree,
    write_adjacency,
)
from .harness import (
    chain_step_floor,
    check_rule_support,
    run_experiment,
    verify_sequential_connectivity,
    verify_state_identity,
    verify_tail_bounds,
    write_compare_csv,
)

CONFIG_KEYS_HELP = """\
config keys:
  model.L                 parameter dimension
  model.theta             true parameter (list of L numbers)
  model.agents[].H        per-agent observation matrix (rows x L)
  model.agents[].C        per-agent noise covariance (SPD)
  model.noise             gaussian (default) or zero
  graph.kind              static | iid_failure | deterministic | geometric
  graph.n                 node count
  graph.backbone          inline 0/1 adjacency (static, iid_failure)
  graph.backbone_file     adjacency file, 0/1 matrix rows (alternative)
  graph.p_fail            per-edge failure probability (iid_failure, geometric)
  graph.radius            geometric connection radius
  graph.target_degree     geometric target relative degree (alternative)
  graph.frames_file       edge-list CSV t,from,to (deterministic)
  graph.frames_count      frame count override (deterministic)
  graph.cycle             repeat the frame sequence (deterministic)
  graph.seed              generation stream for geometric (defaults to run.seed)
  chain.rule              out_degree_reciprocal (default) | lazy
  chain.delta_self        lazy self-weight (default 1/n)
  token.alpha_form        linear (default) | power
  token.alpha_params      {c, q} for the power schedule (needs q > 1/2)
  token.start_node        initial token holder (default 0)
  ci.a ci.b ci.tau1 ci.tau2   consensus+innovations gains
  ci.gain_mode            identity (default)
  ci.grid                 {a: [...], b: [...], tau1: [...], tau2: [...]}
  run.horizon             ticks per trial
  run.trials              Monte Carlo trials
  run.seed                master seed (warned + defaulted to 0 if absent)
  run.algorithms          subset of [token, ci, central]
"""


def _load(args: argparse.Namespace) -> tuple[dict, Path]:
    cfg = load_config(args.config)
    overrides = list(args.set or [])
    if args.seed is not None:
        overrides.append(f"run.seed={args.seed}")
    if overrides:
        cfg = apply_overrides(cfg, overrides)
    _, defaulted = default_seed(cfg)
    if defaulted:
        print("warning: run.seed not set; defaulting to 0", file=sys.stderr)
        cfg = apply_overrides(cfg, ["run.seed=0"])
    return cfg, Path(args.config).parent


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg, base = _load(args)
    experiment = build_experiment(cfg, base)
    result = run_experiment(experiment, out_dir=args.out)
    for path in result.files:
        print(f"wrote {path}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    cfg, base = _load(args)
    experiment = build_experiment(cfg, base)
    algorithms = set(experiment.algorithms) | {"token", "ci"}
    experiment.algorithms = tuple(a for a in ("token", "ci", "central") if a in algorithms)
    if experiment.ci is None and experiment.ci_grid is None:
        raise ConfigError("ci: section required for compare")
    result = run_experiment(experiment, out_dir=args.out)
    out = Path(args.out)
    compare_path = out / "compare.csv"
    side_by_side = {
        name: series
        for name, series in result.metrics.items()
        if name.startswith("rmse_")
    }
    write_compare_csv(compare_path, side_by_side)
    result.files.append(compare_path)
    if result.ci_best is not None:
        print(
            "ci parameters: "
            f"a={result.ci_best.a} b={result.ci_best.b} "
            f"tau1={result.ci_best.tau1} tau2={result.ci_best.tau2}"
        )
    for path in result.files:
        print(f"wrote {path}")
    return 0


def cmd_gridsearch(args: argparse.Namespace) -> int:
    cfg, base = _load(args)
    experiment = build_experiment(cfg, base)
    if experiment.ci_grid is None:
        raise ConfigError("ci.grid: required for gridsearch")
    result = grid_search(
        experiment.model,
        experiment.graph,
        experiment.ci_grid,
        trials=experiment.trials,
        horizon=experiment.horizon,
        seed=experiment.seed,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    scores_path = out / "grid_scores.csv"
    with open(scores_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["a", "b", "tau1", "tau2", "rmse_at_horizon"])
        for cfg_pt, score in result.scores:
            writer.writerow([cfg_pt.a, cfg_pt.b, cfg_pt.tau1, cfg_pt.tau2, f"{score:.17g}"])
    curve_path = out / "grid_best_curve.csv"
    with open(curve_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "rmse_ci_network"])
        for t, v in enumerate(result.curve):
            writer.writerow([t, f"{v:.17g}"])
    best = result.best
    print(f"best: a={best.a} b={best.b} tau1={best.tau1} tau2={best.tau2}")
    print(f"wrote {scores_path}")
    print(f"wrote {curve_path}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    cfg, base = _load(args)
    experiment = build_experiment(cfg, base)
    spec, rule = experiment.graph, experiment.rule
    seed = experiment.seed
    failed = False

    if isinstance(spec, DeterministicSequence):
        print("SKIP transition support: sampled check needs a random or static process")
        print("SKIP mean-chain irreducibility: undefined for deterministic sequences")
        print("SKIP tail bounds: need a static or i.i.d. failure process")
    else:
        support = check_rule_support(
            spec, samples=200, rng=derived_stream(seed, 11), rule_apply=partial(apply_rule, rule)
        )
        print(support.summary())
        failed |= not support.passed
        try:
            _, q_mean = chain_step_floor(spec, rule, seed=seed)
            irreducible = is_irreducible(q_mean)
            print(("PASS" if irreducible else "FAIL") + " mean-chain irreducibility")
            failed |= not irreducible
            tails = verify_tail_bounds(
                spec,
                rule,
                start_node=experiment.start_node,
                trials=max(experiment.trials, 2000),
                horizon=min(experiment.horizon, 2000),
                master_seed=seed,
            )
            print(tails.summary())
            for line in tails.violations:
                print(f"  {line}")
            failed |= not tails.passed
        except (UnsupportedProcess, ValueError) as exc:
            print(f"FAIL tail bounds: {exc}")
            failed = True

    seq = verify_sequential_connectivity(samples_per_combo=500, master_seed=seed)
    print(seq.summary())
    for line in seq.counterexamples:
        print(f"  {line}")
    failed |= not seq.passed

    identity = verify_state_identity(
        experiment.model,
        spec,
        rule,
        experiment.schedule,
        episodes=min(experiment.trials, 20),
        horizon=min(experiment.horizon, 200),
        master_seed=seed,
        start_node=experiment.start_node,
    )
    print(identity.summary())
    if identity.first_failure:
        print(f"  {identity.first_failure}")
    failed |= not identity.passed

    return 3 if failed else 0


def cmd_gen_graph(args: argparse.Namespace) -> int:
    rng = derived_stream(args.seed, 3)
    if (args.radius is None) == (args.target_degree is None):
        raise ConfigError("gen-graph needs exactly one of --radius, --target-degree")
    if args.radius is not None:
        backbone = generate_geometric_backbone(args.n, args.radius, rng)
        radius = args.radius
    else:
        backbone, radius = generate_backbone_with_degree(args.n, args.target_degree, rng)
    write_adjacency(args.out, backbone)
    print(f"wrote {args.out}: n={args.n} radius={radius:.6g} relative_degree={relative_degree(backbone):.6g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roamtoken",
        description="Token-passing distributed estimation: simulation, comparison, verification.",
        epilog=CONFIG_KEYS_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("config", help="YAML config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a config key")
        p.add_argument("--seed", type=int, default=None, help="override run.seed")
        p.add_argument("--out", default="runs", help="output directory (default: runs)")

    p = sub.add_parser("simulate", help="run the token estimator (plus optional oracle)")
    add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="paired token vs consensus+innovations run")
    add_common(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("gridsearch", help="search the baseline gain grid")
    add_common(p)
    p.set_defaults(func=cmd_gridsearch)

    p = sub.add_parser("verify", help="run bound and identity checks; exit 3 on FAIL")
    add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen-graph", help="emit a strongly connected geometric backbone")
    p.add_argument("-n", type=int, required=True, help="node count")
    p.add_argument("--radius", type=float, default=None, help="connection radius")
    p.add_argument("--target-degree", type=float, default=None, help="target relative degree")
    p.add_argument("--seed", type=int, default=0, help="generation seed")
    p.add_argument("--out", required=True, help="output adjacency file")
    p.set_defaults(func=cmd_gen_graph)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except RoamTokenError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, not raises
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
