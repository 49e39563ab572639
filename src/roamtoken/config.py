"""Config file schema, validation, and construction of experiment objects.

One YAML file describes a whole run, with one section per subsystem:
``model``, ``graph``, ``chain``, ``token``, ``ci``, ``run``.  ``CONFIG_KEYS``
is the one table of every key: the kind of value it takes, its help line and
its default.  Unknown keys, and keys that the chosen variant never reads, are
rejected.  Command-line overrides use dotted paths (``run.trials=50``) and win
over file values.
"""

from __future__ import annotations

import copy
import itertools
import sys
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np
import yaml

from ._streams import derived_stream
from .baseline import CiConfig
from .chain import Lazy, OutDegreeReciprocal, TransitionRule
from .errors import ConfigError, GenerationFailed, SingularModel
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
from .harness import ALGORITHMS, ExperimentConfig
from .observation import AgentModel, GlobalModel
from .token import AlphaSchedule


class Kind(NamedTuple):
    """The test a key's value must pass, and what a value that fails it "must be"."""

    ok: Callable[[Any], bool]
    must: str


REQUIRED = object()  # the default of a key that every config must set


class Key(NamedTuple):
    """One config key.  ``fields`` holds the keys of a nested mapping, or of each mapping in
    a list; ``only`` names a sibling key and the values of it under which this key is read."""

    kind: Kind
    help: str = ""
    default: Any = None
    fields: dict[str, Key] | None = None
    only: tuple[str, tuple[str, ...]] | None = None


def _is_number(value: Any) -> bool:
    """A finite int or float; YAML's ``true`` is a bool, not a number."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    return number and abs(value) <= sys.float_info.max


def _integer(minimum: int, must: str) -> Kind:
    """An int of at least ``minimum``; YAML's ``true`` is a bool, not an integer."""
    return Kind(lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= minimum, must)


def _choice(choices: tuple[str, ...], help: str, required: bool = False) -> Key:
    """A key that takes one of ``choices``; unless it is required, the first is its default."""
    kind = Kind(lambda v: v in choices, " or ".join(map(repr, choices)))
    return Key(kind, help, REQUIRED if required else choices[0])


def _list_of(item: Callable[[Any], bool], must: str) -> Kind:
    """A nonempty list of values that each pass ``item``."""
    return Kind(lambda v: isinstance(v, list) and v != [] and all(map(item, v)), must)


def _matrix(entry: Callable[[Any], bool], must: str) -> Kind:
    """A nonempty list of nonempty, equal-length rows of values that each pass ``entry``."""
    rows = _list_of(_list_of(entry, must).ok, must).ok
    return Kind(lambda v: rows(v) and len({len(row) for row in v}) == 1, must)


_NUMBER = Kind(_is_number, "a number")
_NUMBERS = _list_of(_is_number, "a nonempty list of numbers")
_MATRIX = _matrix(_is_number, "a matrix (list of rows of numbers)")
_MAPPING = Kind(lambda v: isinstance(v, dict), "a mapping")
_POSITIVE = _integer(1, "a positive integer")
_SEED = _integer(0, "a non-negative integer")
_PATH = Kind(lambda v: isinstance(v, str) and v != "", "a file path")
_GAINS = ("a", "b", "tau1", "tau2")
# the graph kinds that read a key: a given backbone, a geometric one, a frame sequence
_GIVEN = ("kind", ("static", "iid_failure"))
_GEO = ("kind", ("geometric",))
_FRAMES = ("kind", ("deterministic",))

# Every config key with its kind, help line, default and nested keys.  The CLI's --help
# epilog is rendered from the help lines; builders read defaults through `_setting`.
CONFIG_KEYS: dict[str, Key] = {
    "model": Key(_MAPPING, default=REQUIRED, fields={
        "L": Key(_POSITIVE, "parameter dimension", REQUIRED),
        "theta": Key(_NUMBERS, "true parameter (list of L numbers)", REQUIRED),
        "agents": Key(_list_of(_MAPPING.ok, "a nonempty list of mappings"),
                      "per-agent {H: observation matrix (rows x L), C: SPD noise covariance}",
                      REQUIRED, dict.fromkeys(("H", "C"), Key(_MATRIX, default=REQUIRED))),
        "noise": _choice(("gaussian", "zero"), "gaussian (default) or zero"),
    }),
    "graph": Key(_MAPPING, default=REQUIRED, fields={
        "kind": _choice(("static", "iid_failure", "deterministic", "geometric"),
                        "static | iid_failure | deterministic | geometric", required=True),
        "n": Key(_POSITIVE, "node count", REQUIRED),
        "backbone": Key(_matrix(lambda v: v in (0, 1), "a 0/1 matrix (list of rows)"),
                        "inline 0/1 adjacency (static, iid_failure)", only=_GIVEN),
        "backbone_file": Key(_PATH, "adjacency file, 0/1 matrix rows (alternative)", only=_GIVEN),
        "p_fail": Key(Kind(lambda v: _is_number(v) and 0 <= v <= 1, "a number in [0, 1]"),
                      "per-edge failure probability (iid_failure, geometric)",
                      only=("kind", ("iid_failure", "geometric"))),
        "radius": Key(_NUMBER, "geometric connection radius", only=_GEO),
        "target_degree": Key(_NUMBER, "geometric target relative degree (alternative)", only=_GEO),
        "frames_file": Key(_PATH, "edge-list CSV t,from,to (deterministic)", only=_FRAMES),
        "frames_count": Key(_POSITIVE, "frame count override (deterministic)", only=_FRAMES),
        "cycle": Key(Kind(lambda v: isinstance(v, bool), "true or false"),
                     "repeat the frame sequence (deterministic)", False, only=_FRAMES),
        "seed": Key(_SEED, "generation stream for geometric (defaults to run.seed)", only=_GEO),
    }),
    "chain": Key(_MAPPING, fields={
        "rule": _choice(
            ("out_degree_reciprocal", "lazy"), "out_degree_reciprocal (default) | lazy"
        ),
        "delta_self": Key(_NUMBER, "lazy self-weight (default 1/n)", only=("rule", ("lazy",))),
    }),
    "token": Key(_MAPPING, fields={
        "alpha_form": _choice(("linear", "power"), "linear (default) | power"),
        "alpha_params": Key(_MAPPING, "{c, q} for the power schedule (needs q > 1/2)",
                            fields={"c": Key(_NUMBER, default=1.0), "q": Key(_NUMBER, default=1.0)},
                            only=("alpha_form", ("power",))),
        "start_node": Key(_integer(0, "an integer in [0, graph.n)"),
                          "initial token holder (default 0)", 0),
    }),
    "ci": Key(_MAPPING, fields={
        "grid": Key(_MAPPING, "{a, b, tau1, tau2: lists}: alpha=a/(t+1)^tau1, beta=b/(t+1)^tau2",
                    REQUIRED, dict.fromkeys(_GAINS, Key(_NUMBERS, default=REQUIRED))),
    }),
    "run": Key(_MAPPING, default=REQUIRED, fields={
        "horizon": Key(_POSITIVE, "ticks per trial", REQUIRED),
        "trials": Key(_POSITIVE, "Monte Carlo trials", REQUIRED),
        # an empty `seed:` line loads as null, which counts as unset
        "seed": Key(Kind(lambda v: v is None or _SEED.ok(v), _SEED.must),
                    "non-negative master seed (warned + defaulted to 0 if absent)", 0),
        "algorithms": Key(_list_of(lambda v: v in ALGORITHMS, f"a nonempty subset of {ALGORITHMS}"),
                          "subset of [token, ci, central]", ("token",)),
    }),
}
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


def _walk(node: dict, fields: dict[str, Key], prefix: str) -> None:
    """Check one mapping against its table entries: missing keys, then each key's kind in
    turn (nested mappings included), then the keys that its variant never reads."""
    for name, key in fields.items():
        if key.default is REQUIRED and name not in node:
            raise ConfigError(f"{prefix}{name}: required key missing")
    for name, value in node.items():
        key = fields.get(name)
        if key is None:
            raise ConfigError(f"{prefix}{name}: unknown key")
        if not key.kind.ok(value):
            raise ConfigError(f"{prefix}{name}: must be {key.kind.must}")
        if key.fields is not None and isinstance(value, list):
            for i, item in enumerate(value):
                _walk(item, key.fields, f"{prefix}{name}[{i}].")
        elif key.fields is not None:
            _walk(value, key.fields, f"{prefix}{name}.")
    for name in node:
        if fields[name].only is not None:
            switch, readers = fields[name].only
            chosen = node.get(switch, fields[switch].default)
            if chosen not in readers:
                raise ConfigError(f"{prefix}{name}: not read when {prefix}{switch} is {chosen}")


def validate_config(cfg: dict) -> None:
    """One walk over ``CONFIG_KEYS``, then the rules that join keys; key-path messages."""
    _walk(cfg, CONFIG_KEYS, "")
    model = cfg["model"]
    if len(model["theta"]) != model["L"]:
        raise ConfigError(f"model.theta: must be a list of {model['L']} numbers")
    if sum(v * v for v in model["theta"]) == 0:
        raise ConfigError("model.theta: must be nonzero (metrics are normalized by ||theta||^2)")

    graph = cfg["graph"]
    kind = graph["kind"]
    if kind in ("static", "iid_failure") and ("backbone" in graph) == ("backbone_file" in graph):
        raise ConfigError(f"graph: kind {kind} needs exactly one of backbone, backbone_file")
    if kind == "geometric" and ("radius" in graph) == ("target_degree" in graph):
        raise ConfigError("graph: geometric needs exactly one of radius, target_degree")
    if kind == "iid_failure" and "p_fail" not in graph:
        raise ConfigError("graph.p_fail: required for iid_failure")
    if kind == "deterministic" and "frames_file" not in graph:
        raise ConfigError("graph.frames_file: required for deterministic sequences")
    agents = len(model["agents"])
    if agents != graph["n"]:
        raise ConfigError(f"graph.n: {graph['n']} nodes but model has {agents} agents")
    if _setting(cfg, "token.start_node") >= graph["n"]:
        raise ConfigError(f"token.start_node: must be an integer in [0, {graph['n']})")
    if "ci" in _setting(cfg, "run.algorithms") and "ci" not in cfg:
        raise ConfigError("ci: section required when running the ci algorithm")


def _setting(cfg: dict, dotted: str) -> Any:
    """The value ``cfg`` sets at a dotted key path, else the table's default for the key; a
    default is never written into ``cfg``, which ``meta.yaml`` echoes as given."""
    *sections, name = dotted.split(".")
    node, fields = cfg, CONFIG_KEYS
    for section in sections:
        node, fields = node.get(section, {}), fields[section].fields
    return fields[name].default if node.get(name) is None else node[name]


def default_seed(cfg: dict) -> tuple[int, bool]:
    """The run seed, and whether it was defaulted (caller should warn)."""
    return _setting(cfg, "run.seed"), cfg["run"].get("seed") is None


def build_model(cfg: dict) -> GlobalModel:
    model = cfg["model"]
    try:
        agents = [
            AgentModel(id=i, H=np.asarray(a["H"], dtype=float), C=np.asarray(a["C"], dtype=float))
            for i, a in enumerate(model["agents"])
        ]
        return GlobalModel(
            agents=agents,
            theta=np.asarray(model["theta"], dtype=float),
            noise=_setting(cfg, "model.noise"),
        )
    except (ValueError, SingularModel) as exc:
        raise ConfigError(f"model: {exc}") from None


def build_graph(cfg: dict, base_dir: Path, seed: int) -> GraphSpec:
    graph = cfg["graph"]
    kind = graph["kind"]
    n = graph["n"]
    try:
        if kind == "deterministic":
            frames = read_frames_csv(
                base_dir / graph["frames_file"], n=n, count=graph.get("frames_count")
            )
            return DeterministicSequence(frames, cycle=_setting(cfg, "graph.cycle"))
        if kind == "geometric":
            rng = derived_stream(graph.get("seed", seed), 3)
            if "radius" in graph:
                backbone = generate_geometric_backbone(n, float(graph["radius"]), rng)
            else:
                backbone, _ = generate_backbone_with_degree(
                    n, float(graph["target_degree"]), rng
                )
        elif "backbone" in graph:
            backbone = as_adjacency(np.asarray(graph["backbone"]))
        else:
            backbone = read_adjacency(base_dir / graph["backbone_file"])
        if backbone.shape[0] != n:
            raise ConfigError(f"graph.n: {n} does not match backbone size {backbone.shape[0]}")
        # only iid_failure and geometric graphs read p_fail, and iid_failure requires it
        if "p_fail" in graph:
            return IidFailureGraph(backbone, p_fail=float(graph["p_fail"]))
        return StaticGraph(backbone)
    except (ValueError, OSError, GenerationFailed) as exc:
        raise ConfigError(f"graph: {exc}") from None


def build_rule(cfg: dict, n: int) -> TransitionRule:
    if _setting(cfg, "chain.rule") != "lazy":
        return OutDegreeReciprocal()
    delta_self = _setting(cfg, "chain.delta_self")
    try:
        return Lazy(delta_self=1.0 / n if delta_self is None else float(delta_self))
    except ValueError as exc:
        raise ConfigError(f"chain.delta_self: {exc}") from None


def build_schedule(cfg: dict) -> AlphaSchedule:
    if _setting(cfg, "token.alpha_form") != "power":
        return AlphaSchedule.linear()
    params = [float(_setting(cfg, f"token.alpha_params.{name}")) for name in ("c", "q")]
    try:
        return AlphaSchedule.power(*params)
    except ValueError as exc:
        raise ConfigError(f"token.alpha_params: {exc}") from None


def build_ci(cfg: dict) -> dict | None:
    """The gain grid, each candidate checked before any engine runs."""
    ci = cfg.get("ci")
    if ci is None:
        return None
    grid = ci["grid"]
    for candidate in itertools.product(*(grid[name] for name in _GAINS)):
        try:
            CiConfig(**dict(zip(_GAINS, map(float, candidate))))
        except ValueError as exc:
            raise ConfigError(f"ci.grid: {exc}") from None
    return grid


def build_experiment(cfg: dict, base_dir: str | Path = ".") -> ExperimentConfig:
    """Construct the full experiment description from a validated config dict."""
    seed, _ = default_seed(cfg)
    model = build_model(cfg)
    graph = build_graph(cfg, Path(base_dir), seed)
    horizon = cfg["run"]["horizon"]
    # the walk draws a move at the horizon tick too, so a run reads horizon + 1 frames
    if isinstance(graph, DeterministicSequence) and not graph.cycle:
        if len(graph.frames) <= horizon:
            raise ConfigError(
                f"graph.frames_file: {len(graph.frames)} frames, but run.horizon {horizon} "
                f"reads {horizon + 1}; add frames or set graph.cycle: true"
            )
    ci_grid = build_ci(cfg)
    try:
        return ExperimentConfig(
            model=model,
            graph=graph,
            rule=build_rule(cfg, graph.n),
            schedule=build_schedule(cfg),
            algorithms=tuple(_setting(cfg, "run.algorithms")),
            horizon=horizon,
            trials=cfg["run"]["trials"],
            seed=seed,
            start_node=_setting(cfg, "token.start_node"),
            ci_grid=ci_grid,
            echo=copy.deepcopy(cfg),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
