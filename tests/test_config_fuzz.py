"""Property test of the config table: drawn configs either run or fail with a key path.

Each example takes one of four valid configs (a static, an i.i.d. failure, a geometric and a
deterministic graph) and changes one or two keys: it sets a key of ``CONFIG_KEYS`` to a
drawn value, deletes a key, or adds an unknown one.  Drawn values mix every kind the table
holds (integers, numbers, lists, matrices, booleans, the enums' words, paths, mappings) with
values of the wrong kind, non-finite numbers and null.  Sizes are drawn small, because the
cost of a run grows with its graph and model.

The CLI runs each config at ``run.horizon=2`` with three trials.  An accepted config exits 0;
a rejected one exits 1 and names a key path of the drawn config or of the table.  A single
key set to a value its kind rejects must be named with that kind's message.
"""

import contextlib
import copy
import io
import re
import tempfile
from pathlib import Path

import yaml
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from roamtoken.cli import main
from roamtoken.config import CONFIG_KEYS
from roamtoken.harness import ALGORITHMS

ROOT = Path(__file__).resolve().parents[1]
FRAMES = "t,from,to\n0,0,1\n1,1,2\n2,2,0\n"
BACKBONE = "0 1 1 0 0\n0 0 1 1 0\n0 0 0 1 1\n0 1 0 0 1\n1 0 0 0 0\n"


def _shipped(name: str) -> dict:
    return yaml.safe_load((ROOT / "configs" / name).read_text())


_SEQUENCE = {
    "model": {
        "L": 2,
        "theta": [1.0, -0.7],
        "agents": [
            {"H": [[1.0, 0.0]], "C": [[1.0]]},
            {"H": [[0.0, 1.0]], "C": [[2.0]]},
            {"H": [[1.0, 1.0]], "C": [[0.5]]},
        ],
        "noise": "gaussian",
    },
    "graph": {"kind": "deterministic", "n": 3, "frames_file": "frames.csv", "cycle": True},
    "chain": {"rule": "lazy", "delta_self": 0.3},
    "token": {"alpha_params": {"c": 1.0, "q": 0.75}, "start_node": 1},
    "run": {"horizon": 5, "trials": 3, "seed": 4, "algorithms": ["token", "central"]},
}
BASES = [
    _shipped("ref5_static.yaml"),
    _shipped("ref5_iid_verify.yaml"),
    _shipped("geo20_compare.yaml"),
    _SEQUENCE,
]


def _table_paths(fields: dict, prefix: str = "") -> dict:
    """Every key of the table by dotted path; a list of mappings adds no index."""
    paths = {}
    for name, key in fields.items():
        paths[prefix + name] = key
        if key.fields is not None:
            paths.update(_table_paths(key.fields, f"{prefix}{name}."))
    return paths


TABLE = _table_paths(CONFIG_KEYS)
# the words the enums take, and file names that exist, or do not, next to the config
WORDS = sorted(
    {w for key in TABLE.values() for w in re.findall(r"'(\w+)'", key.kind.must)}
    | set(ALGORITHMS)
    | {"frames.csv", "backbone.txt", "missing.txt", ""}
)

numbers = st.one_of(
    st.integers(-2, 8),
    st.floats(-3, 3),
    st.sampled_from([0.0, 0.5, 1.0, float("nan"), float("inf"), 10**400]),
)
scalars = st.one_of(st.none(), st.booleans(), numbers, st.sampled_from(WORDS))
matrices = st.integers(1, 3).flatmap(
    lambda cols: st.lists(
        st.lists(st.one_of(numbers, st.sampled_from([0, 1])), min_size=cols, max_size=cols),
        min_size=1,
        max_size=3,
    )
)
mappings = st.dictionaries(
    st.sampled_from(sorted({p.split(".")[-1] for p in TABLE if p.count(".") == 2} | {"zz"})),
    st.one_of(numbers, st.lists(numbers, min_size=1, max_size=2)),
    max_size=4,
)
values = st.one_of(
    scalars, st.lists(st.one_of(numbers, st.sampled_from(WORDS)), max_size=4), matrices, mappings
)


def _paths(node, prefix: tuple = (), dotted: str = "") -> dict[tuple, str]:
    """Every key path of a config, as a tuple of keys and list indices, with the dotted form
    that error messages use; lists of mappings (the agents) are walked into."""
    if isinstance(node, dict):
        names = [(name, f"{dotted}.{name}" if dotted else str(name)) for name in node]
    else:
        names = [(i, f"{dotted}[{i}]") for i in range(len(node))]
    out = {}
    for name, at in names:
        out[prefix + (name,)] = at
        value = node[name]
        if isinstance(value, dict) or value and isinstance(value, list) and all(
            isinstance(item, dict) for item in value
        ):
            out.update(_paths(value, prefix + (name,), at))
    return out


def _get(cfg, path):
    """The value at a key path, or None where the path leads nowhere."""
    for part in path:
        try:
            cfg = cfg[part]
        except (IndexError, KeyError, TypeError):
            return None
    return cfg


def _key_path(dotted: str, agent: int = 0) -> list:
    """A table key's path in a config; the agents' keys take an agent index."""
    path = dotted.split(".")
    if path[:2] == ["model", "agents"] and len(path) == 3:
        path.insert(2, agent)
    return path


# the values that the base configs give each table key, drawn twice as often as arbitrary ones
EXAMPLES = {
    dotted: [value for base in BASES if (value := _get(base, _key_path(dotted))) is not None]
    for dotted in TABLE
}


@st.composite
def drawn_configs(draw) -> tuple[dict, list[tuple[str, tuple]]]:
    """A base config with one or two changes, and the list of (change, key path)."""
    cfg = copy.deepcopy(draw(st.sampled_from(BASES)))
    changes = []
    for _ in range(draw(st.integers(1, 2))):
        op = draw(st.sampled_from(["set", "set", "set", "set", "drop", "add"]))
        if op == "set":
            # a key of the table whose mapping the config has
            keys = [d for d in sorted(TABLE) if isinstance(_get(cfg, _key_path(d)[:-1]), dict)]
            dotted = draw(st.sampled_from(keys))
            path = _key_path(dotted, draw(st.integers(0, 1)))
            examples = st.sampled_from(EXAMPLES[dotted] or [None])
            value = draw(st.one_of(examples, examples, values))
            parent = _get(cfg, path[:-1])
            if not isinstance(parent, dict):
                continue  # the drawn agent is not there
            parent[path[-1]] = copy.deepcopy(value)
            changes.append(("set", tuple(path)))
        elif op == "drop" and cfg:
            path = draw(st.sampled_from(sorted(_paths(cfg), key=repr)))
            del _get(cfg, path[:-1])[path[-1]]
            changes.append(("drop", path))
        elif op == "add":
            found = [p for p in _paths(cfg) if isinstance(_get(cfg, p), dict)]
            path = draw(st.sampled_from([(), *sorted(found, key=repr)]))
            _get(cfg, path)[draw(st.sampled_from(["zz", 7]))] = draw(scalars)
            changes.append(("add", path))
    return cfg, changes


@settings(
    max_examples=150,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(drawn_configs())
def test_drawn_configs_run_or_name_a_key_path(drawn):
    cfg, changes = drawn
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "frames.csv").write_text(FRAMES)
        (tmp / "backbone.txt").write_text(BACKBONE)
        text = yaml.safe_dump(cfg, sort_keys=False)
        (tmp / "drawn.yaml").write_text(text)
        loaded = yaml.safe_load(text)
        out, err = io.StringIO(), io.StringIO()
        argv = ["simulate", str(tmp / "drawn.yaml"), "--out", str(tmp / "out")]
        argv += ["--set", "run.horizon=2", "--set", "run.trials=3"]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    err = err.getvalue()
    event(f"exit code {code}")
    assert code in (0, 1), (code, err, text)
    if code == 0:
        return
    named = re.search(r"^config error: (\S+?): ", err, re.M)  # after any missing-seed warning
    assert named, err
    path = named.group(1)
    paths = _paths(loaded)
    assert path in paths.values() or re.sub(r"\[\d+\]", "", path) in TABLE, (err, text)
    if len(changes) == 1 and changes[0][0] == "set":
        set_path = changes[0][1]
        key = TABLE[".".join(p for p in set_path if not isinstance(p, int))]
        if not key.kind.ok(_get(loaded, set_path)):
            assert f"{paths[set_path]}: must be {key.kind.must}" in err, (err, text)
