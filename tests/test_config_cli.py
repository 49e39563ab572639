"""Config parsing, overrides, and CLI subcommand behavior."""

import functools
import hashlib
import operator
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
import yaml

from roamtoken import ConfigError, run_experiment
from roamtoken.cli import main
from roamtoken.config import apply_overrides, build_experiment, load_config
from roamtoken.graphs import smallest_connected_window

from references import write_frames_csv

BASE_CONFIG = textwrap.dedent(
    """
    model:
      L: 2
      theta: [1.0, -0.7]
      agents:
        - {H: [[1.0, 0.0]], C: [[1.0]]}
        - {H: [[0.0, 1.0]], C: [[1.0]]}
        - {H: [[1.0, 1.0]], C: [[1.0]]}
        - {H: [[1.0, -1.0]], C: [[1.0]]}
        - {H: [[0.5, 2.0]], C: [[1.0]]}
    graph:
      kind: static
      n: 5
      backbone:
        - [0, 1, 1, 0, 0]
        - [0, 0, 1, 1, 0]
        - [0, 0, 0, 1, 1]
        - [0, 1, 0, 0, 1]
        - [1, 0, 0, 0, 0]
    run:
      horizon: 30
      trials: 2
      seed: 7
      algorithms: [token, central]
    """
)


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(BASE_CONFIG)
    return path


def test_load_and_build(config_file):
    cfg = load_config(config_file)
    experiment = build_experiment(cfg, config_file.parent)
    assert experiment.horizon == 30
    assert experiment.model.n_agents == 5
    assert experiment.seed == 7


def test_unknown_section_and_key_rejected(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text(BASE_CONFIG + "\nextra_section: {}\n")
    with pytest.raises(ConfigError, match="extra_section"):
        load_config(bad)
    bad.write_text(BASE_CONFIG.replace("seed: 7", "seed: 7\n  typo_key: 1"))
    with pytest.raises(ConfigError, match="typo_key"):
        load_config(bad)


def test_malformed_yaml_exits_1_and_names_the_file(config_file, tmp_path, capsys):
    # whichever PyYAML loader parses, a syntax error is a config error that names its source
    broken = tmp_path / "broken.yaml"
    broken.write_text(BASE_CONFIG.replace("horizon: 30", "horizon: [30"))
    out = str(tmp_path / "out")
    assert main(["simulate", str(broken), "--out", out]) == 1
    assert str(broken) in capsys.readouterr().err
    assert main(["simulate", str(config_file), "--out", out, "--set", "run.horizon=[30"]) == 1
    assert "run.horizon=[30" in capsys.readouterr().err
    assert not Path(out).exists()


def test_overrides_win_and_are_validated(config_file):
    cfg = load_config(config_file)
    updated = apply_overrides(cfg, ["run.trials=9", "graph.kind=iid_failure", "graph.p_fail=0.5"])
    assert updated["run"]["trials"] == 9
    assert updated["graph"]["p_fail"] == 0.5
    with pytest.raises(ConfigError, match="look like"):
        apply_overrides(cfg, ["run.trials"])
    with pytest.raises(ConfigError, match="unknown key"):
        apply_overrides(cfg, ["run.bogus=1"])


def test_graph_validation_errors(tmp_path):
    missing_pfail = BASE_CONFIG.replace("kind: static", "kind: iid_failure")
    path = tmp_path / "p.yaml"
    path.write_text(missing_pfail)
    with pytest.raises(ConfigError, match="p_fail"):
        load_config(path)
    path.write_text(GEO20_CONFIG.read_text().replace("  target_degree: 0.12\n", ""))
    with pytest.raises(ConfigError, match="graph.target_degree: required for geometric"):
        load_config(path)


def test_geometric_graph_deterministic(tmp_path):
    cfg_text = textwrap.dedent(
        """
        model:
          L: 2
          theta: [1.0, -0.7]
          agents:
            - {H: [[1.0, 0.0]], C: [[1.0]]}
            - {H: [[0.0, 1.0]], C: [[1.0]]}
            - {H: [[1.0, 1.0]], C: [[1.0]]}
            - {H: [[1.0, -1.0]], C: [[1.0]]}
            - {H: [[0.5, 2.0]], C: [[1.0]]}
        graph:
          kind: geometric
          n: 5
          target_degree: 0.5
          p_fail: 0.5
        run:
          horizon: 5
          trials: 1
          seed: 3
        """
    )
    path = tmp_path / "geo.yaml"
    path.write_text(cfg_text)
    cfg = load_config(path)
    g1 = build_experiment(cfg, tmp_path).graph
    g2 = build_experiment(cfg, tmp_path).graph
    assert np.array_equal(g1.backbone, g2.backbone)


def test_ci_section_required_when_requested(tmp_path):
    text = BASE_CONFIG.replace("algorithms: [token, central]", "algorithms: [token, ci]")
    path = tmp_path / "ci.yaml"
    path.write_text(text)
    with pytest.raises(ConfigError, match="ci"):
        load_config(path)


def test_cli_simulate_smoke_and_determinism(config_file, tmp_path, capsys):
    def run_once(sub):
        out = tmp_path / sub
        code = main(["simulate", str(config_file), "--out", str(out)])
        assert code == 0
        digest = hashlib.sha256()
        for name in ("metrics.csv", "trace_trial0.csv"):
            digest.update((out / name).read_bytes())
        return digest.hexdigest()

    assert run_once("a") == run_once("b")


def test_cli_bad_key_names_the_key(config_file, tmp_path, capsys):
    code = main(
        ["simulate", str(config_file), "--out", str(tmp_path / "x"), "--set", "run.wrong=1"]
    )
    assert code == 1
    assert "run.wrong" in capsys.readouterr().err


def test_cli_missing_seed_warns(tmp_path, capsys):
    text = BASE_CONFIG.replace("  seed: 7\n", "")
    path = tmp_path / "noseed.yaml"
    path.write_text(text)
    code = main(["simulate", str(path), "--out", str(tmp_path / "out")])
    assert code == 0
    assert "run.seed not set" in capsys.readouterr().err


@pytest.fixture
def short_sequence_file(tmp_path):
    """A deterministic one-frame sequence that does not cycle, shorter than the horizon."""
    frames = tmp_path / "frames.csv"
    frames.write_text("t,from,to\n0,0,1\n0,1,0\n")
    path = tmp_path / "short.yaml"
    path.write_text(
        textwrap.dedent(
            """
            model:
              L: 2
              theta: [1.0, -0.7]
              agents:
                - {H: [[1.0, 0.0]], C: [[1.0]]}
                - {H: [[0.0, 1.0]], C: [[1.0]]}
            graph:
              kind: deterministic
              n: 2
              frames_file: frames.csv
            run:
              horizon: 30
              trials: 1
              seed: 0
            """
        )
    )
    return path


def test_cli_short_sequence_is_config_error(short_sequence_file, tmp_path, capsys):
    # a sequence that does not cycle and has fewer frames than the run reads (horizon + 1, as
    # the walk draws a move at the horizon) ran until it exhausted, then exited 2
    out = tmp_path / "out"
    assert main(["simulate", str(short_sequence_file), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "graph.frames_file: 1 frames, but run.horizon 30 reads 31" in err
    assert not out.exists()
    argv = ["simulate", str(short_sequence_file), "--out", str(out), "--set", "run.horizon=1"]
    assert main(argv + ["--set", "graph.cycle=true"]) == 0


def test_cli_runtime_failure_exit_code(tmp_path, capsys):
    # a one-point grid far beyond stability makes the baseline diverge mid-run
    text = re.sub(r"^  grid: .*$", "  grid: {a: [1.0], b: [80.0], tau1: [1.0], tau2: [0.01]}",
                  GEO20_CONFIG.read_text(), flags=re.M)
    path = tmp_path / "diverging.yaml"
    path.write_text(text)
    out = tmp_path / "out"
    argv = ["compare", str(path), "--out", str(out), "--set", "run.trials=4"]
    assert main(argv + ["--set", "run.horizon=400"]) == 2
    assert "error: consensus+innovations trajectory diverged" in capsys.readouterr().err
    assert not (out / "metrics.csv").exists()


def test_cli_compare_failure_leaves_no_files(tmp_path, capsys):
    # a compare.csv that cannot be written left metrics.csv, grid_scores.csv,
    # trace_trial0.csv and meta.yaml behind, though the run exited 2
    out = tmp_path / "out"
    (out / "compare.csv").mkdir(parents=True)
    argv = ["compare", str(GEO20_CONFIG), "--out", str(out)]
    assert main(argv + ["--set", "run.horizon=20", "--set", "run.trials=2"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: IsADirectoryError:")
    assert captured.out == ""
    assert [p.name for p in out.iterdir()] == ["compare.csv"]
    assert not any((out / "compare.csv").iterdir())


_BAD_SEQUENCE_KEYS = [
    ("graph.cycle='false'", "graph.cycle: must be true or false"),
    ("graph.cycle=3", "graph.cycle: must be true or false"),
    ("graph.frames_count=2.5", "graph.frames_count: must be a positive integer"),
    ("graph.frames_count=true", "graph.frames_count: must be a positive integer"),
    ("graph.frames_file=7", "graph.frames_file: must be a file path"),
]


@pytest.mark.parametrize(
    "item, message", _BAD_SEQUENCE_KEYS, ids=[item for item, _ in _BAD_SEQUENCE_KEYS]
)
def test_cli_sequence_keys_are_type_checked(short_sequence_file, tmp_path, capsys, item, message):
    # bool('false') is true, so the string cycled; 3 was echoed into meta.yaml; 2.5 escaped
    # as a TypeError with exit code 2; true counted as one frame; 7 escaped as Path / int
    out = tmp_path / "out"
    assert main(["simulate", str(short_sequence_file), "--out", str(out), "--set", item]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "frames_text, message",
    [
        ("src,dst\n0,1\n", "frames.csv: header lacks column(s) t, from, to"),
        ("t,from\n0,1\n", "frames.csv: header lacks column(s) to"),
        ("t,from,to\n0,0,1\n0,1\n", "frames.csv line 3: need integer t, from and to"),
        ("t,from,to\n0,x,1\n", "frames.csv line 2: need integer t, from and to"),
    ],
    ids=["no-columns", "no-to-column", "short-row", "non-integer"],
)
def test_cli_frames_csv_malformed_is_config_error(tmp_path, capsys, frames_text, message):
    # a missing column or a short row used to escape as KeyError/TypeError with exit code 2
    (tmp_path / "frames.csv").write_text(frames_text)
    path = tmp_path / "frames.yaml"
    path.write_text(
        textwrap.dedent(
            """
            model:
              L: 2
              theta: [1.0, -0.7]
              agents:
                - {H: [[1.0, 0.0]], C: [[1.0]]}
                - {H: [[0.0, 1.0]], C: [[1.0]]}
            graph:
              kind: deterministic
              n: 2
              frames_file: frames.csv
              cycle: true
            run:
              horizon: 5
              trials: 1
              seed: 0
            """
        )
    )
    code = main(["simulate", str(path), "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert "graph:" in err and message in err


@pytest.mark.parametrize("bad_row", ["0,-1,0", "-1,0,1", "0,0,3", "1,2,2"])
def test_cli_frames_out_of_range_rejected(tmp_path, capsys, bad_row):
    # negative ids and ticks used to wrap onto node n-1 and the last frame; a self-edge
    # was reported by the adjacency check, without the file and line
    frames = tmp_path / "frames.csv"
    frames.write_text(f"t,from,to\n0,0,1\n{bad_row}\n")
    path = tmp_path / "frames.yaml"
    path.write_text(
        textwrap.dedent(
            """
            model:
              L: 2
              theta: [1.0, -0.7]
              agents:
                - {H: [[1.0, 0.0]], C: [[1.0]]}
                - {H: [[0.0, 1.0]], C: [[1.0]]}
                - {H: [[1.0, 1.0]], C: [[1.0]]}
            graph:
              kind: deterministic
              n: 3
              frames_file: frames.csv
              cycle: true
            run:
              horizon: 5
              trials: 1
              seed: 0
            """
        )
    )
    code = main(["simulate", str(path), "--out", str(tmp_path / "out")])
    assert code == 1
    assert "frames.csv line 3" in capsys.readouterr().err


def test_cli_zero_theta_rejected_at_config_time(tmp_path, capsys):
    # every metric divides by ||theta||^2, so a zero theta used to fail after the run
    path = tmp_path / "zero.yaml"
    path.write_text(BASE_CONFIG.replace("theta: [1.0, -0.7]", "theta: [0.0, 0]"))
    code = main(["simulate", str(path), "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert "model.theta: must be nonzero" in err
    assert not (tmp_path / "out").exists()


_BAD_INTEGERS = [
    (["--set", "model.L=true"], "model.L: must be a positive integer"),
    (["--set", "graph.n=true"], "graph.n: must be a positive integer"),
    (["--set", "run.horizon=true"], "run.horizon: must be a positive integer"),
    (["--set", "run.trials=true"], "run.trials: must be a positive integer"),
    (["--set", "run.seed=true"], "run.seed: must be a non-negative integer"),
    (["--set", "run.seed=-1"], "run.seed: must be a non-negative integer"),
    (["--seed", "-1"], "run.seed: must be a non-negative integer"),
    (["--set", "graph.seed=-1"], "graph.seed: must be a non-negative integer"),
    (["--set", "token.start_node=true"], "token.start_node: must be an integer"),
]


@pytest.mark.parametrize(
    "args, message", _BAD_INTEGERS, ids=[" ".join(args) for args, _ in _BAD_INTEGERS]
)
def test_cli_bool_and_negative_integers_rejected(config_file, tmp_path, capsys, args, message):
    # YAML's true is an int to isinstance, and a negative seed used to fail in the engine
    out = tmp_path / "out"
    argv = ["simulate", str(config_file), "--out", str(out)] + args
    assert main(argv) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["0", "1.5", "nan"])
def test_cli_target_degree_out_of_range_rejected_before_drawing(
    tmp_path, capsys, monkeypatch, value
):
    # these passed load_config and failed in build_experiment without the key path
    def no_draws(*_):
        raise AssertionError("drew a graph")

    monkeypatch.setattr("roamtoken.config.derived_stream", no_draws)
    out = tmp_path / "out"
    argv = ["simulate", str(GEO20_CONFIG), "--out", str(out)]
    assert main(argv + ["--set", f"graph.target_degree={value}"]) == 1
    message = "config error: graph.target_degree: must be a number in (0, 1]\n"
    assert capsys.readouterr().err == message
    assert not out.exists()


def test_cli_one_node_geometric_graph_rejected_before_drawing(tmp_path, capsys, monkeypatch):
    # this passed load_config and failed in build_experiment without the key path
    def no_draws(*_):
        raise AssertionError("drew a graph")

    monkeypatch.setattr("roamtoken.config.derived_stream", no_draws)
    path = tmp_path / "geo1.yaml"
    path.write_text(
        textwrap.dedent(
            """
            model:
              L: 1
              theta: [1.0]
              agents:
                - {H: [[1.0]], C: [[1.0]]}
            graph:
              kind: geometric
              n: 1
              target_degree: 0.5
            run:
              horizon: 5
              trials: 1
              seed: 0
            """
        )
    )
    out = tmp_path / "out"
    assert main(["simulate", str(path), "--out", str(out)]) == 1
    message = "config error: graph.n: a geometric graph needs at least two nodes\n"
    assert capsys.readouterr().err == message
    assert not out.exists()


_DROP = object()
# Inputs that escaped the type checks, as edits of the fixture config: each maps a key path
# (a tuple of keys and list indices) to its new value, or to _DROP to delete the key.
_ESCAPED_TYPES = {
    "graph.kind": ({("graph", "kind"): ["static"]}, "graph.kind: must be"),
    "graph.backbone_file": (
        {("graph", "backbone"): _DROP, ("graph", "backbone_file"): 5},
        "graph.backbone_file: must be a file path",
    ),
    "model.agents[0].H": (
        {("model", "agents", 0, "H"): [[1, "x"]]}, "model.agents[0].H: must be a matrix"
    ),
    "model.agents[0].C": (
        {("model", "agents", 0, "C"): [[True]]}, "model.agents[0].C: must be a matrix"
    ),
    "token.alpha_params.zz": (
        {("token",): {"alpha_params": {"c": 1, "zz": 3}}},
        "token.alpha_params.zz: unknown key",
    ),
    "mixed-type-sections": ({(1,): {}, ("extra",): {}}, "1: unknown key"),
    "mixed-type-run-keys": ({("run", "zz"): 1, ("run", 2): 1}, "run.zz: unknown key"),
}


@pytest.mark.parametrize("name", list(_ESCAPED_TYPES))
def test_cli_inputs_that_escaped_the_type_checks_rejected(tmp_path, capsys, name):
    # an unhashable kind, Path / int and a string in H escaped as TypeError or ValueError with
    # exit code 2, as did sorting unknown keys of mixed types; [[true]] ran as C = 1.0 and an
    # unknown alpha_params key was ignored
    edits, message = _ESCAPED_TYPES[name]
    cfg = yaml.safe_load(BASE_CONFIG)
    for (*parents, key), value in edits.items():
        node = functools.reduce(operator.getitem, parents, cfg)
        if value is _DROP:
            del node[key]
        else:
            node[key] = value
    path = tmp_path / "edited.yaml"
    path.write_text(yaml.safe_dump(cfg, sort_keys=False))
    out = tmp_path / "out"
    assert main(["simulate", str(path), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""
    assert not out.exists()


ROOT = Path(__file__).resolve().parents[1]
GEO20_CONFIG = ROOT / "configs" / "geo20_compare.yaml"
REF5_STATIC_CONFIG = ROOT / "configs" / "ref5_static.yaml"

# A key that the config's variant never reads: the fixture config, its overrides and the message.
_UNREAD_KEYS = [
    ("config_file", ["graph.p_fail=0.25"], "graph.p_fail: not read when graph.kind is static"),
    ("config_file", ["graph.target_degree=0.3"], "graph.target_degree: not read when graph.kind"),
    ("config_file", ["graph.seed=3"], "graph.seed: not read when graph.kind is static"),
    ("config_file", ["graph.frames_file=f.csv"], "graph.frames_file: not read when graph.kind"),
    ("config_file", ["graph.frames_count=2"], "graph.frames_count: not read when graph.kind"),
    ("config_file", ["graph.cycle=true"], "graph.cycle: not read when graph.kind is static"),
    (
        "config_file",
        ["chain.delta_self=0.3"],
        "chain.delta_self: not read when chain.rule is out_degree_reciprocal",
    ),
    (
        "short_sequence_file",
        ["graph.cycle=true", "graph.p_fail=0.5"],
        "graph.p_fail: not read when graph.kind is deterministic",
    ),
    (
        "short_sequence_file",
        ["graph.cycle=true", "graph.backbone=[[0, 1], [1, 0]]"],
        "graph.backbone: not read when graph.kind is deterministic",
    ),
    ("geo20", ["graph.backbone_file=b.txt"], "graph.backbone_file: not read when graph.kind"),
    ("geo20", ["graph.cycle=false"], "graph.cycle: not read when graph.kind is geometric"),
]


@pytest.mark.parametrize(
    "fixture, sets, message",
    _UNREAD_KEYS,
    ids=[f"{fixture}-{sets[-1]}" for fixture, sets, _ in _UNREAD_KEYS],
)
def test_cli_keys_the_variant_never_reads_rejected(
    request, tmp_path, capsys, fixture, sets, message
):
    # each ran as if the key were absent: --set graph.p_fail=0.25 on the static reference
    # config wrote the same metrics.csv as the run without it
    config = GEO20_CONFIG if fixture == "geo20" else request.getfixturevalue(fixture)
    out = tmp_path / "out"
    argv = ["simulate", str(config), "--out", str(out)]
    for item in ["run.horizon=2", "run.trials=2", *sets]:
        argv += ["--set", item]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "item, message",
    [
        ("ci.grid.tau1=[2.0]", "ci.grid: (tau1, tau2) = (2.0, 0.25) outside 0 < tau2 < tau1"),
        ("ci.grid={a: [1.0]}", "ci.grid.b: required key missing"),
    ],
    ids=["candidate-out-of-range", "partial-grid"],
)
def test_cli_grid_candidates_checked_at_config_time(tmp_path, capsys, item, message):
    # a bad candidate passed validation, ran the token engine, then failed in grid_search
    # with exit code 2
    out = tmp_path / "out"
    argv = ["compare", str(GEO20_CONFIG), "--out", str(out), "--set", item]
    assert main(argv + ["--set", "run.horizon=2", "--set", "run.trials=2"]) == 1
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("section", ["model", "graph", "chain", "token", "run", "ci"])
def test_cli_empty_section_is_config_error(tmp_path, capsys, section):
    # a section with nothing under it loads as None; it crashed with exit 2 or ci: passed silently
    text = re.sub(rf"^{section}:\n(?:  .*\n)*", "", REF5_STATIC_CONFIG.read_text(), flags=re.M)
    path = tmp_path / "empty.yaml"
    path.write_text(f"{text}{section}:\n")
    out = tmp_path / "out"
    assert main(["simulate", str(path), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert f"{section}: must be a mapping" in captured.err
    assert captured.out == ""
    assert not out.exists()

@pytest.mark.parametrize("key", ["a", "b", "tau1", "tau2"])
def test_cli_fixed_gains_next_to_a_grid_rejected(tmp_path, capsys, key):
    # fixed gains are a one-point grid; a gain beside the grid was never read, though
    # meta.yaml echoed it
    out = tmp_path / "out"
    argv = ["compare", str(GEO20_CONFIG), "--out", str(out), "--set", f"ci.{key}=0.2"]
    assert main(argv + ["--set", "run.horizon=2", "--set", "run.trials=2"]) == 1
    captured = capsys.readouterr()
    assert f"config error: ci.{key}: unknown key" in captured.err
    assert captured.out == ""
    assert not out.exists()


# Each float-valued key set to YAML's true, with the overrides that make the key count.
_BOOL_NUMBERS = {
    "model.theta": ["model.theta=[true, 2.0, 3.0, 4.0, 5.0]"],
    "graph.p_fail": ["graph.p_fail=true"],
    "graph.target_degree": ["graph.target_degree=true"],
    "chain.delta_self": ["chain.rule=lazy", "chain.delta_self=true"],
    "token.alpha_params.c": ["token.alpha_params.c=true"],
    "token.alpha_params.q": ["token.alpha_params.q=true"],
    **{f"ci.grid.{key}": [f"ci.grid.{key}=[true]"] for key in ("a", "b", "tau1", "tau2")},
}


@pytest.mark.parametrize("key", list(_BOOL_NUMBERS))
def test_cli_bool_in_number_keys_rejected(tmp_path, capsys, key):
    # isinstance(True, (int, float)) holds and float(True) is 1.0, so these used to run
    out = tmp_path / "out"
    sets = ["run.horizon=2", "run.trials=2", *_BOOL_NUMBERS[key]]
    argv = ["simulate", str(GEO20_CONFIG), "--out", str(out)]
    for item in sets:
        argv += ["--set", item]
    assert main(argv) == 1
    assert f"{key}: must be a" in capsys.readouterr().err
    assert not out.exists()


def test_cli_verify_pass_and_fail(tmp_path, capsys):
    passing = tmp_path / "ok.yaml"
    passing.write_text(
        BASE_CONFIG.replace("kind: static", "kind: iid_failure\n  p_fail: 0.4").replace(
            "trials: 2", "trials: 400"
        )
    )
    code = main(["verify", str(passing), "--out", str(tmp_path / "v")])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out and "FAIL" not in out

    # a backbone that is not strongly connected makes the mean chain reducible
    broken = tmp_path / "fail.yaml"
    broken_text = BASE_CONFIG.replace(
        """backbone:
    - [0, 1, 1, 0, 0]
    - [0, 0, 1, 1, 0]
    - [0, 0, 0, 1, 1]
    - [0, 1, 0, 0, 1]
    - [1, 0, 0, 0, 0]""",
        """backbone:
    - [0, 1, 0, 0, 0]
    - [0, 0, 1, 0, 0]
    - [0, 0, 0, 1, 0]
    - [0, 0, 0, 0, 1]
    - [0, 0, 0, 0, 0]""",
    )
    broken.write_text(broken_text)
    code = main(["verify", str(broken), "--out", str(tmp_path / "v2")])
    out = capsys.readouterr().out
    assert code == 3
    assert "FAIL" in out


def _verify_frames(tmp_path, capsys, frames, cycle=True, horizon=30) -> tuple[int, str]:
    """Exit code and stdout of ``verify`` on the sequence ``frames`` under a 3-agent model."""
    write_frames_csv(tmp_path / "frames.csv", frames)
    path = tmp_path / "seq.yaml"
    path.write_text(
        textwrap.dedent(
            f"""
            model:
              L: 2
              theta: [1.0, -0.7]
              agents:
                - {{H: [[1.0, 0.0]], C: [[1.0]]}}
                - {{H: [[0.0, 1.0]], C: [[1.0]]}}
                - {{H: [[1.0, 1.0]], C: [[1.0]]}}
            graph:
              kind: deterministic
              n: 3
              frames_file: frames.csv
              frames_count: {len(frames)}
              cycle: {str(cycle).lower()}
            run:
              horizon: {horizon}
              trials: 2
              seed: 5
            """
        )
    )
    code = main(["verify", str(path), "--out", str(tmp_path / "v")])
    return code, capsys.readouterr().out


def _cycle_halves() -> list[np.ndarray]:
    """Two frames, neither strongly connected alone, whose union is the cycle 0->1->2->0."""
    frames = [np.zeros((3, 3), dtype=bool) for _ in range(2)]
    frames[0][0, 1] = frames[0][1, 2] = frames[1][2, 0] = True
    return frames


def test_cli_verify_on_a_window_connected_sequence(tmp_path, capsys):
    frames = _cycle_halves()
    assert smallest_connected_window(frames, cycle=True) == 2
    code, out = _verify_frames(tmp_path, capsys, frames)
    assert code == 0
    assert "PASS window connectivity: b=2 frames=2 cycle=true" in out.splitlines()
    assert [line for line in out.splitlines() if line.startswith("SKIP")] == [
        "SKIP tail bounds: need a static or i.i.d. failure process",
    ]
    assert "transition support" not in out


def test_cli_verify_reads_the_frames_a_non_cycling_run_uses(tmp_path, capsys):
    # all four frames would need b=4, for the empty tail; a 1-tick run reads only the first two
    frames = _cycle_halves() + [np.zeros((3, 3), dtype=bool)] * 2
    code, out = _verify_frames(tmp_path, capsys, frames, cycle=False, horizon=1)
    assert code == 0
    assert "PASS window connectivity: b=2 frames=2 cycle=false" in out.splitlines()


def test_cli_verify_fails_a_sequence_whose_frames_never_connect(tmp_path, capsys):
    frames = _cycle_halves()
    frames[1][2, 0] = False  # frame 1 is left empty
    code, out = _verify_frames(tmp_path, capsys, frames)
    assert code == 3
    assert out.splitlines()[0] == (
        "FAIL window connectivity: the union of all 2 frames is not strongly connected"
    )


def test_cli_verify_high_degree_delta_is_exact(tmp_path, capsys):
    # 21 out-edges per node once sent the averaged chain to a Monte Carlo estimate, whose
    # sampled minimum put delta below its exact value 1/21 * (1 - 2**-21) = 0.0476190...
    import yaml

    n = 22
    cfg = {
        "model": {
            "L": 2,
            "theta": [1.0, -0.7],
            "agents": [{"H": [[1.0, 0.0] if i % 2 else [0.0, 1.0]], "C": [[1.0]]} for i in range(n)],
        },
        "graph": {
            "kind": "iid_failure",
            "n": n,
            "backbone": (1 - np.eye(n, dtype=int)).tolist(),
            "p_fail": 0.5,
        },
        "run": {"horizon": 30, "trials": 2, "seed": 3, "algorithms": ["token"]},
    }
    path = tmp_path / "k22.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert main(["verify", str(path), "--out", str(tmp_path / "v")]) == 0
    assert "PASS tail bounds: delta=0.047619 " in capsys.readouterr().out


def test_cli_compare(config_file, tmp_path, capsys):
    text = BASE_CONFIG.replace("kind: static", "kind: iid_failure\n  p_fail: 0.4")
    text += textwrap.dedent(
        """
        ci:
          grid: {a: [0.5, 1.0], b: [0.2], tau1: [1.0], tau2: [0.5]}
        """
    )
    path = tmp_path / "cmp.yaml"
    path.write_text(text)
    out = tmp_path / "cmp_out"
    assert main(["compare", str(path), "--out", str(out)]) == 0
    assert (out / "compare.csv").exists()
    header = (out / "compare.csv").read_text().splitlines()[0]
    assert "rmse_token" in header and "rmse_ci_network" in header

    import csv as csv_mod

    def long_rows(out):
        with open(out / "metrics.csv", newline="") as fh:
            rows = csv_mod.DictReader(fh)
            return {(row["metric"], int(row["t"])): row["value"] for row in rows}

    def score_rows(out):
        with open(out / "grid_scores.csv", newline="") as fh:
            return list(csv_mod.DictReader(fh))

    # the side-by-side file restates the harness series exactly
    metrics = long_rows(out)
    with open(out / "compare.csv", newline="") as fh:
        for row in csv_mod.DictReader(fh):
            t = int(row["t"])
            for name in ("rmse_token", "rmse_ci_network"):
                assert row[name] == metrics[(name, t)]

    # grid_scores.csv holds every candidate's score in grid order, and the winner's score
    # is the horizon row of its metric
    experiment = build_experiment(load_config(path), tmp_path)
    experiment.algorithms = ("ci",)
    result = run_experiment(experiment)
    rows = score_rows(out)
    keys = ("a", "b", "tau1", "tau2")
    assert [tuple(float(row[k]) for k in keys) for row in rows] == [
        tuple(getattr(c, k) for k in keys) for c, _ in result.grid.scores
    ]
    assert [float(row["rmse_at_horizon"]) for row in rows] == [s for _, s in result.grid.scores]
    best = next(k for k, (c, _) in enumerate(result.grid.scores) if c is result.grid.best)
    assert rows[best]["rmse_at_horizon"] == metrics[("rmse_ci_network", 30)]

    # a one-point grid runs once and writes one row
    one = tmp_path / "one_out"
    grid = "ci.grid={a: [1.0], b: [0.2], tau1: [1.0], tau2: [0.5]}"
    assert main(["compare", str(path), "--out", str(one), "--set", grid]) == 0
    rows = score_rows(one)
    assert [[row[k] for k in keys] for row in rows] == [["1.0", "0.2", "1.0", "0.5"]]
    assert rows[0]["rmse_at_horizon"] == long_rows(one)[("rmse_ci_network", 30)]


def test_cli_ci_without_a_grid_is_a_config_error(tmp_path, capsys):
    # fixed gains are given as a one-point grid
    fixed = tmp_path / "fixed.yaml"
    fixed.write_text(re.sub(r"^  grid: .*$", "  a: 1.0\n  b: 0.2\n  tau1: 1.0\n  tau2: 0.5",
                            GEO20_CONFIG.read_text(), flags=re.M))
    out = tmp_path / "out"
    assert main(["compare", str(fixed), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "config error: ci.grid: required key missing" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_cli_gridsearch_is_an_unknown_subcommand(tmp_path, capsys):
    # compare writes the grid's scores; the separate search and its curve file are gone
    out = tmp_path / "out"
    assert main(["gridsearch", str(GEO20_CONFIG), "--out", str(out)]) == 1
    assert "invalid choice: 'gridsearch'" in capsys.readouterr().err
    assert not out.exists()


def test_cli_gen_graph_is_an_unknown_subcommand(capsys):
    # a config builds its geometric backbone from graph.target_degree; the separate writer is gone
    assert main(["gen-graph", "-n", "6"]) == 1
    assert "invalid choice: 'gen-graph'" in capsys.readouterr().err


def test_cli_graph_radius_is_an_unknown_key(tmp_path, capsys):
    # graph.target_degree is the one way to size a geometric backbone
    path = tmp_path / "geo20.yaml"
    path.write_text(GEO20_CONFIG.read_text().replace("target_degree: 0.12", "radius: 0.5"))
    out = tmp_path / "out"
    assert main(["simulate", str(path), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "config error: graph.radius: unknown key\n"
    assert captured.out == ""
    assert not out.exists()


def test_cli_alpha_form_is_an_unknown_key(tmp_path, capsys):
    # token.alpha_params gives the one schedule c * (t + 1)**q; the form switch is gone
    path = tmp_path / "ref5.yaml"
    text = REF5_STATIC_CONFIG.read_text().replace("token:\n", "token:\n  alpha_form: linear\n")
    path.write_text(text)
    out = tmp_path / "out"
    assert main(["simulate", str(path), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "config error: token.alpha_form: unknown key\n"
    assert captured.out == ""
    assert not out.exists()


SHIPPED_CONFIGS = sorted(p.stem for p in (ROOT / "configs").glob("*.yaml"))


@pytest.mark.parametrize("name", ["fixture", *SHIPPED_CONFIGS])
def test_meta_config_echo_round_trips(config_file, tmp_path, name):
    # the config echoed in meta.yaml reproduces every file of the run, byte for byte; a
    # shipped config runs at a cut size, through compare where it runs the baseline
    import yaml

    config = config_file if name == "fixture" else ROOT / "configs" / f"{name}.yaml"
    algorithms = yaml.safe_load(config.read_text())["run"]["algorithms"]
    command = "compare" if "ci" in algorithms else "simulate"
    first = tmp_path / "first"
    cut = ["--set", "run.horizon=60", "--set", "run.trials=8"]
    assert main([command, str(config), *cut, "--out", str(first)]) == 0
    meta = yaml.safe_load((first / "meta.yaml").read_text())
    echoed = tmp_path / "echoed.yaml"
    echoed.write_text(yaml.safe_dump(meta["config"]))
    second = tmp_path / "second"
    assert main([command, str(echoed), "--out", str(second)]) == 0
    files = sorted(p.name for p in first.iterdir())
    assert {"metrics.csv", "trace_trial0.csv", "meta.yaml"} <= set(files)
    assert files == sorted(p.name for p in second.iterdir())
    assert ("compare.csv" in files) == ("grid_scores.csv" in files) == (command == "compare")
    for f in files:
        assert (first / f).read_bytes() == (second / f).read_bytes(), f


def test_cli_help_documents_config_keys(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    for key in ("model.theta", "graph.p_fail", "chain.rule", "token.alpha_params", "ci.grid", "run.seed"):
        assert key in out


def test_cli_import_loads_no_scipy():
    # scipy.linalg cost every CLI run about 0.28 s and 22 MB before numpy took its solves over;
    # the engine forks its workers itself, where multiprocessing would cost about 15 ms
    code = (
        "import roamtoken.cli, sys; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'multiprocessing') "
        "or (m + '.').startswith('concurrent.futures.')))"
    )
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"
