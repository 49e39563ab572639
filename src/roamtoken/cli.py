"""Command-line interface: reproducible runs driven by one config file.

Exit codes: 0 success, 1 config error, 2 runtime failure, 3 verification FAIL.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import (
    CONFIG_KEYS,
    apply_overrides,
    build_experiment,
    default_seed,
    load_config,
)
from .errors import ConfigError, RoamTokenError, UnsupportedProcess
from .graphs import DeterministicSequence, smallest_connected_window
from .harness import (
    run_experiment,
    verify_state_identity,
    verify_tail_bounds,
    write_compare_csv,
)


def _config_keys_epilog() -> str:
    lines = ["config keys:"]
    for section, entry in CONFIG_KEYS.items():
        lines += [f"  {section + '.' + name:<22}  {key.help}" for name, key in entry.fields.items()]
    return "\n".join(lines) + "\n"


def _load(args: argparse.Namespace) -> tuple[dict, Path]:
    cfg = load_config(args.config)
    overrides = list(args.set or [])
    if args.seed is not None:
        overrides.append(f"run.seed={args.seed}")
    if overrides:
        cfg = apply_overrides(cfg, overrides)
    seed, defaulted = default_seed(cfg)
    if defaulted:
        print(f"warning: run.seed not set; defaulting to {seed}", file=sys.stderr)
        cfg = apply_overrides(cfg, [f"run.seed={seed}"])
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
    if experiment.ci_grid is None:
        raise ConfigError("ci: section required for compare")
    result = run_experiment(experiment, out_dir=args.out)
    out = Path(args.out)
    compare_path = out / "compare.csv"
    side_by_side = {
        name: series
        for name, series in result.metrics.items()
        if name.startswith("rmse_")
    }
    try:
        write_compare_csv(compare_path, side_by_side)
    except BaseException:  # as run_experiment does, leave no file of a failed run
        for f in result.files:
            f.unlink(missing_ok=True)
        raise
    result.files.append(compare_path)
    best = result.grid.best
    print(f"ci parameters: a={best.a} b={best.b} tau1={best.tau1} tau2={best.tau2}")
    for path in result.files:
        print(f"wrote {path}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    cfg, base = _load(args)
    experiment = build_experiment(cfg, base)
    spec, rule = experiment.graph, experiment.rule
    seed = experiment.seed
    failed = False

    if isinstance(spec, DeterministicSequence):
        # the sequence's analogue of irreducibility, over one period or the frames a run reads
        frames = spec.frames if spec.cycle else spec.frames[: experiment.horizon + 1]
        b = smallest_connected_window(frames, spec.cycle)
        if b is None:
            print(
                f"FAIL window connectivity: the union of all {len(frames)} frames "
                "is not strongly connected"
            )
        else:
            cycle = str(spec.cycle).lower()
            print(f"PASS window connectivity: b={b} frames={len(frames)} cycle={cycle}")
        failed |= b is None
        print("SKIP tail bounds: need a static or i.i.d. failure process")
    else:
        try:
            tails = verify_tail_bounds(
                spec,
                rule,
                start_node=experiment.start_node,
                trials=max(experiment.trials, 2000),
                horizon=min(experiment.horizon, 2000),
                master_seed=seed,
            )
        except UnsupportedProcess:  # the mean chain is reducible
            print("FAIL mean-chain irreducibility")
            print("SKIP tail bounds: need an irreducible mean chain")
            failed = True
        else:
            print("PASS mean-chain irreducibility")
            print(tails.summary())
            for line in tails.violations:
                print(f"  {line}")
            failed |= not tails.passed

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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roamtoken",
        description="Token-passing distributed estimation: simulation, comparison, verification.",
        epilog=_config_keys_epilog(),
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

    p = sub.add_parser("verify", help="run bound and identity checks; exit 3 on FAIL")
    add_common(p)
    p.set_defaults(func=cmd_verify)
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
