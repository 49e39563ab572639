"""Config file schema, validation, and construction of experiment objects.

One YAML file describes a whole run, with one section per subsystem:
``model``, ``graph``, ``chain``, ``token``, ``ci``, ``run``.  Unknown keys are
rejected.  Command-line overrides use dotted paths (``run.trials=50``) and
win over file values.
"""

from __future__ import annotations

import copy
from pathlib import Path
from typing import Any

import numpy as np
import yaml

from ._streams import derived_stream
from .baseline import CiConfig
from .chain import Lazy, OutDegreeReciprocal, TransitionRule
from .errors import ConfigError
from .graphs import (
    DeterministicSequence,
    GraphSpec,
    IidFailureGraph,
    StaticGraph,
    as_adjacency,
    generate_backbone_with_degree,
    generate_geometric_backbone,
    read_adjacency,
    read_frames_csv,
)
from .harness import ExperimentConfig
from .observation import AgentModel, GlobalModel
from .token import AlphaSchedule

# Every config key with its help line; the CLI's --help epilog is rendered from this.
CONFIG_KEYS = {
    "model": {
        "L": "parameter dimension",
        "theta": "true parameter (list of L numbers)",
        "agents": "per-agent {H: observation matrix (rows x L), C: SPD noise covariance}",
        "noise": "gaussian (default) or zero",
    },
    "graph": {
        "kind": "static | iid_failure | deterministic | geometric",
        "n": "node count",
        "backbone": "inline 0/1 adjacency (static, iid_failure)",
        "backbone_file": "adjacency file, 0/1 matrix rows (alternative)",
        "p_fail": "per-edge failure probability (iid_failure, geometric)",
        "radius": "geometric connection radius",
        "target_degree": "geometric target relative degree (alternative)",
        "frames_file": "edge-list CSV t,from,to (deterministic)",
        "frames_count": "frame count override (deterministic)",
        "cycle": "repeat the frame sequence (deterministic)",
        "seed": "generation stream for geometric (defaults to run.seed)",
    },
    "chain": {
        "rule": "out_degree_reciprocal (default) | lazy",
        "delta_self": "lazy self-weight (default 1/n)",
    },
    "token": {
        "alpha_form": "linear (default) | power",
        "alpha_params": "{c, q} for the power schedule (needs q > 1/2)",
        "start_node": "initial token holder (default 0)",
    },
    "ci": {
        "a": "innovation gain scale: alpha(t) = a / (t+1)^tau1",
        "b": "consensus gain scale: beta(t) = b / (t+1)^tau2",
        "tau1": "innovation gain decay (0 < tau2 < tau1 <= 1)",
        "tau2": "consensus gain decay",
        "gain_mode": "identity (default)",
        "grid": "{a: [...], b: [...], tau1: [...], tau2: [...]}",
    },
    "run": {
        "horizon": "ticks per trial",
        "trials": "Monte Carlo trials",
        "seed": "non-negative master seed (warned + defaulted to 0 if absent)",
        "algorithms": "subset of [token, ci, central]",
    },
}
_GRAPH_KINDS = {"static", "iid_failure", "deterministic", "geometric"}
# libyaml's safe loader where PyYAML was built with it, else the pure-Python one
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_config(path: str | Path) -> dict:
    """Parse and structurally validate a config file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    try:
        cfg = yaml.load(text, Loader=_LOADER)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top level must be a mapping of sections")
    validate_config(cfg)
    return cfg


def apply_overrides(cfg: dict, overrides: list[str]) -> dict:
    """Apply ``section.key=value`` overrides; values are parsed as YAML scalars."""
    cfg = copy.deepcopy(cfg)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} must look like section.key=value")
        dotted, raw = item.split("=", 1)
        parts = dotted.strip().split(".")
        if len(parts) < 2:
            raise ConfigError(f"override key {dotted!r} must be section.key")
        try:
            value = yaml.load(raw, Loader=_LOADER)
        except yaml.YAMLError as exc:
            raise ConfigError(f"override {item!r}: {exc}") from None
        node = cfg
        for p in parts[:-1]:
            node = node.setdefault(p, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override {dotted!r}: {p!r} is not a mapping")
        node[parts[-1]] = value
    validate_config(cfg)
    return cfg


def _is_int(value: Any, minimum: int) -> bool:
    """An int of at least ``minimum``; YAML's ``true`` is a bool, not an integer."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= minimum


def _is_number(value: Any) -> bool:
    """An int or float; YAML's ``true`` is a bool, not a number."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_numbers(section: dict, keys: tuple[str, ...], where: str) -> None:
    """Each of ``keys`` that ``section`` sets must be a number."""
    for key in keys:
        if key in section and not _is_number(section[key]):
            raise ConfigError(f"{where}.{key}: must be a number")


def _require(section: dict, key: str, where: str) -> Any:
    if key not in section:
        raise ConfigError(f"{where}.{key}: required key missing")
    return section[key]


def _check_keys(cfg: dict) -> None:
    unknown = set(cfg) - CONFIG_KEYS.keys()
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    for name, allowed in CONFIG_KEYS.items():
        if name not in cfg:
            continue
        section = cfg[name]
        if not isinstance(section, dict):
            raise ConfigError(f"{name}: must be a mapping")
        bad = set(section) - allowed.keys()
        if bad:
            raise ConfigError(f"{name}.{sorted(bad)[0]}: unknown key")


def validate_config(cfg: dict) -> None:
    """Structural validation with key-path error messages."""
    _check_keys(cfg)
    for required in ("model", "graph", "run"):
        if required not in cfg:
            raise ConfigError(f"{required}: required section missing")

    model = cfg["model"]
    dim = _require(model, "L", "model")
    if not _is_int(dim, 1):
        raise ConfigError("model.L: must be a positive integer")
    theta = _require(model, "theta", "model")
    if (
        not isinstance(theta, list)
        or len(theta) != dim
        or not all(_is_number(v) for v in theta)
    ):
        raise ConfigError(f"model.theta: must be a list of {dim} numbers")
    if sum(v * v for v in theta) == 0:
        raise ConfigError("model.theta: must be nonzero (metrics are normalized by ||theta||^2)")
    agents = _require(model, "agents", "model")
    if not isinstance(agents, list) or not agents:
        raise ConfigError("model.agents: must be a nonempty list")
    for idx, agent in enumerate(agents):
        if not isinstance(agent, dict) or set(agent) - {"H", "C"}:
            raise ConfigError(f"model.agents[{idx}]: must have exactly the keys H and C")
        for key in ("H", "C"):
            if key not in agent or not isinstance(agent[key], list):
                raise ConfigError(f"model.agents[{idx}].{key}: must be a matrix (list of rows)")
    noise = model.get("noise", "gaussian")
    if noise not in ("gaussian", "zero"):
        raise ConfigError("model.noise: must be 'gaussian' or 'zero'")

    graph = cfg["graph"]
    kind = _require(graph, "kind", "graph")
    if kind not in _GRAPH_KINDS:
        raise ConfigError(f"graph.kind: must be one of {sorted(_GRAPH_KINDS)}")
    n = _require(graph, "n", "graph")
    if not _is_int(n, 1):
        raise ConfigError("graph.n: must be a positive integer")
    if "seed" in graph and not _is_int(graph["seed"], 0):
        raise ConfigError("graph.seed: must be a non-negative integer")
    if kind in ("static", "iid_failure"):
        if ("backbone" in graph) == ("backbone_file" in graph):
            raise ConfigError(f"graph: kind {kind} needs exactly one of backbone, backbone_file")
    p = graph.get("p_fail")
    if kind == "iid_failure" and p is None:
        raise ConfigError("graph.p_fail: required for iid_failure")
    if p is not None and not (_is_number(p) and 0.0 <= p <= 1.0):
        raise ConfigError("graph.p_fail: must be a number in [0, 1]")
    _check_numbers(graph, ("radius", "target_degree"), "graph")
    if kind == "geometric":
        if ("radius" in graph) == ("target_degree" in graph):
            raise ConfigError("graph: geometric needs exactly one of radius, target_degree")
    if kind == "deterministic" and "frames_file" not in graph:
        raise ConfigError("graph.frames_file: required for deterministic sequences")
    if "frames_count" in graph and not _is_int(graph["frames_count"], 1):
        raise ConfigError("graph.frames_count: must be a positive integer")
    if "cycle" in graph and not isinstance(graph["cycle"], bool):
        raise ConfigError("graph.cycle: must be true or false")

    chain = cfg.get("chain", {})
    rule = chain.get("rule", "out_degree_reciprocal")
    if rule not in ("out_degree_reciprocal", "lazy"):
        raise ConfigError("chain.rule: must be 'out_degree_reciprocal' or 'lazy'")
    _check_numbers(chain, ("delta_self",), "chain")

    token = cfg.get("token", {})
    form = token.get("alpha_form", "linear")
    if form not in ("linear", "power"):
        raise ConfigError("token.alpha_form: must be 'linear' or 'power'")
    params = token.get("alpha_params") or {}
    if not isinstance(params, dict):
        raise ConfigError("token.alpha_params: must be a mapping of c, q")
    _check_numbers(params, ("c", "q"), "token.alpha_params")

    run = cfg["run"]
    for key in ("horizon", "trials"):
        value = _require(run, key, "run")
        if not _is_int(value, 1):
            raise ConfigError(f"run.{key}: must be a positive integer")
    if run.get("seed") is not None and not _is_int(run["seed"], 0):
        raise ConfigError("run.seed: must be a non-negative integer")
    algorithms = run.get("algorithms", ["token"])
    if not isinstance(algorithms, list) or not algorithms:
        raise ConfigError("run.algorithms: must be a nonempty list")
    for alg in algorithms:
        if alg not in ("token", "ci", "central"):
            raise ConfigError(f"run.algorithms: unknown algorithm {alg!r}")
    if "ci" in algorithms and "ci" not in cfg:
        raise ConfigError("ci: section required when running the ci algorithm")

    ci = cfg.get("ci") or {}
    _check_numbers(ci, ("a", "b", "tau1", "tau2"), "ci")
    if ci.get("gain_mode", "identity") != "identity":
        raise ConfigError("ci.gain_mode: must be 'identity'")
    if "grid" in ci:
        grid = ci["grid"]
        if not isinstance(grid, dict) or set(grid) - {"a", "b", "tau1", "tau2"}:
            raise ConfigError("ci.grid: must map a, b, tau1, tau2 to value lists")
        for key, values in grid.items():
            if not isinstance(values, list) or not values or not all(map(_is_number, values)):
                raise ConfigError(f"ci.grid.{key}: must be a nonempty list of numbers")


def default_seed(cfg: dict) -> tuple[int, bool]:
    """The run seed, and whether it was defaulted (caller should warn)."""
    seed = cfg["run"].get("seed")
    return (0, True) if seed is None else (seed, False)


def build_model(cfg: dict) -> GlobalModel:
    model = cfg["model"]
    agents = [
        AgentModel(id=i, H=np.asarray(a["H"], dtype=float), C=np.asarray(a["C"], dtype=float))
        for i, a in enumerate(model["agents"])
    ]
    try:
        return GlobalModel(
            agents=agents,
            theta=np.asarray(model["theta"], dtype=float),
            noise=model.get("noise", "gaussian"),
        )
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from None


def build_graph(cfg: dict, base_dir: Path, seed: int) -> GraphSpec:
    graph = cfg["graph"]
    kind = graph["kind"]
    n = graph["n"]
    try:
        if kind in ("static", "iid_failure"):
            if "backbone" in graph:
                backbone = as_adjacency(np.asarray(graph["backbone"]))
            else:
                backbone = read_adjacency(base_dir / graph["backbone_file"])
            if backbone.shape[0] != n:
                raise ConfigError(
                    f"graph.n: {n} does not match backbone size {backbone.shape[0]}"
                )
            if kind == "static":
                return StaticGraph(backbone)
            return IidFailureGraph(backbone, p_fail=float(graph["p_fail"]))
        if kind == "geometric":
            rng = derived_stream(graph.get("seed", seed), 3)
            if "radius" in graph:
                backbone = generate_geometric_backbone(n, float(graph["radius"]), rng)
            else:
                backbone, _ = generate_backbone_with_degree(
                    n, float(graph["target_degree"]), rng
                )
            if "p_fail" in graph:
                return IidFailureGraph(backbone, p_fail=float(graph["p_fail"]))
            return StaticGraph(backbone)
        frames = read_frames_csv(
            base_dir / graph["frames_file"], n=n, count=graph.get("frames_count")
        )
        return DeterministicSequence(frames, cycle=graph.get("cycle", False))
    except ConfigError:
        raise
    except (ValueError, OSError) as exc:
        raise ConfigError(f"graph: {exc}") from None


def build_rule(cfg: dict, n: int) -> TransitionRule:
    chain = cfg.get("chain", {})
    kind = chain.get("rule", "out_degree_reciprocal")
    if kind == "out_degree_reciprocal":
        return OutDegreeReciprocal()
    delta_self = chain.get("delta_self", 1.0 / n)
    try:
        return Lazy(delta_self=float(delta_self))
    except ValueError as exc:
        raise ConfigError(f"chain.delta_self: {exc}") from None


def build_schedule(cfg: dict) -> AlphaSchedule:
    token = cfg.get("token", {})
    form = token.get("alpha_form", "linear")
    params = token.get("alpha_params", {}) or {}
    try:
        if form == "linear":
            return AlphaSchedule.linear()
        return AlphaSchedule.power(float(params.get("c", 1.0)), float(params.get("q", 1.0)))
    except ValueError as exc:
        raise ConfigError(f"token.alpha_params: {exc}") from None


def build_ci(cfg: dict) -> tuple[CiConfig | None, dict | None]:
    ci = cfg.get("ci")
    if ci is None:
        return None, None
    grid = ci.get("grid")
    fixed = None
    if all(k in ci for k in ("a", "b", "tau1", "tau2")):
        try:
            fixed = CiConfig(
                a=float(ci["a"]),
                b=float(ci["b"]),
                tau1=float(ci["tau1"]),
                tau2=float(ci["tau2"]),
            )
        except ValueError as exc:
            raise ConfigError(f"ci: {exc}") from None
    if fixed is None and grid is None:
        raise ConfigError("ci: need either all of a, b, tau1, tau2 or a grid")
    return fixed, grid


def build_experiment(cfg: dict, base_dir: str | Path = ".") -> ExperimentConfig:
    """Construct the full experiment description from a validated config dict."""
    base_dir = Path(base_dir)
    seed, _ = default_seed(cfg)
    model = build_model(cfg)
    graph = build_graph(cfg, base_dir, seed)
    if graph.n != model.n_agents:
        raise ConfigError(
            f"graph.n: {graph.n} nodes but model has {model.n_agents} agents"
        )
    rule = build_rule(cfg, graph.n)
    schedule = build_schedule(cfg)
    ci_fixed, ci_grid = build_ci(cfg)
    run = cfg["run"]
    token = cfg.get("token", {})
    start = token.get("start_node", 0)
    if not _is_int(start, 0) or start >= graph.n:
        raise ConfigError(f"token.start_node: must be an integer in [0, {graph.n})")
    try:
        return ExperimentConfig(
            model=model,
            graph=graph,
            rule=rule,
            schedule=schedule,
            algorithms=tuple(run.get("algorithms", ["token"])),
            horizon=run["horizon"],
            trials=run["trials"],
            seed=seed,
            start_node=start,
            ci=ci_fixed,
            ci_grid=ci_grid,
            echo=copy.deepcopy(cfg),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
