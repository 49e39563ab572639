"""The benchmark's workloads and the check that decides whether a run's output is correct."""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    """One CLI call on a shipped config, at the size the benchmark runs it."""

    name: str
    command: str
    config: str
    overrides: tuple[str, ...]
    # Trials and horizon of the workload's main engine call.
    trials: int
    horizon: int
    # Series expected in metrics.csv, and every file the call writes.
    metrics: tuple[str, ...]
    files: tuple[str, ...]

    @property
    def trial_ticks(self) -> int:
        return self.trials * (self.horizon + 1)

    def cli_args(self, seed: int, out_dir: str) -> list[str]:
        args = [self.command, self.config]
        for override in self.overrides:
            args += ["--set", override]
        return args + ["--seed", str(seed), "--out", out_dir]


TOKEN_SERIES = ("optimality_ratio_token", "rmse_token", "rmse_token_last_seen")

WORKLOADS = {
    w.name: w
    for w in (
        # The horizon is cut from 20,000 so one run takes seconds; R=500 and the
        # recorded R x (T+1) series keep it the token engine's workload.
        Workload(
            "simulate-ref5", "simulate", "configs/ref5_static.yaml", ("run.horizon=2000",),
            trials=500, horizon=2000,
            metrics=TOKEN_SERIES + ("optimality_ratio_central", "rmse_central"),
            files=("metrics.csv", "trace_trial0.csv", "meta.yaml"),
        ),
        # R, n, p_fail, the 18-candidate grid and both algorithms stay as shipped;
        # only the horizon is cut from 10,000.
        Workload(
            "compare-geo20", "compare", "configs/geo20_compare.yaml", ("run.horizon=200",),
            trials=100, horizon=200,
            metrics=TOKEN_SERIES + ("rmse_ci_network",),
            files=("metrics.csv", "trace_trial0.csv", "meta.yaml", "compare.csv"),
        ),
    )
}

REFERENCE_FILE = Path(__file__).with_name("references.json")
# Summation order may change in an optimization; the results may not.
REFERENCE_RTOL = 1e-8
REFERENCE_ATOL = 1e-12
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _report_lines(stdout: str) -> list[str]:
    """Stdout without the ``wrote <path>`` lines, which name the output directory."""
    return [line for line in stdout.splitlines() if not line.startswith("wrote ")]


def digests(w: Workload, out_dir: Path, stdout: str) -> dict[str, str]:
    """SHA-256 of every output file and of stdout, for byte-for-byte comparisons."""
    result = {"stdout": hashlib.sha256("\n".join(_report_lines(stdout)).encode()).hexdigest()}
    for name in w.files:
        path = out_dir / name
        result[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else "missing"
    return result


def _read_rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _all_finite(cells: list[str]) -> bool:
    try:
        return all(math.isfinite(float(c)) for c in cells)
    except ValueError:
        return False


def check_output(w: Workload, rc: int, out_dir: Path, stdout: str) -> list[str]:
    """Problems with one run's exit code, files and stdout; empty when the run is correct."""
    problems = [] if rc == 0 else [f"exit code {rc}"]
    for name in w.files:
        if not (out_dir / name).is_file():
            problems.append(f"missing {name}")
    if problems:
        return problems
    size = w.horizon + 1
    rows = _read_rows(out_dir / "metrics.csv")[1:]
    if len(rows) != len(w.metrics) * size:
        problems.append(f"metrics.csv has {len(rows)} rows, expected {len(w.metrics) * size}")
    if sorted({r[1] for r in rows}) != sorted(w.metrics):
        problems.append(f"metrics.csv series {sorted({r[1] for r in rows})}")
    if not all(_all_finite(r[2:4]) for r in rows):
        problems.append("metrics.csv has a non-finite value")
    for name in ("trace_trial0.csv", "compare.csv"):
        if name in w.files:
            rows = _read_rows(out_dir / name)[1:]
            if len(rows) != size or not all(_all_finite(r[1:]) for r in rows):
                problems.append(f"{name}: {len(rows)} rows or a non-finite value")
    return problems


def reference_record(w: Workload, out_dir: Path, stdout: str) -> dict:
    """Final-tick value of every series, and the report lines (the CI winner)."""
    final = {
        row[1]: float(row[2])
        for row in _read_rows(out_dir / "metrics.csv")[1:]
        if int(row[0]) == w.horizon
    }
    return {"final": final, "lines": _report_lines(stdout)}


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REFERENCE_ATOL + REFERENCE_RTOL * max(abs(a), abs(b))


def _line_matches(expected: str, got: str) -> bool:
    if _NUMBER.sub("#", expected) != _NUMBER.sub("#", got):
        return False
    return all(
        _close(float(a), float(b))
        for a, b in zip(_NUMBER.findall(expected), _NUMBER.findall(got))
    )


def compare_reference(expected: dict, got: dict) -> list[str]:
    """Differences between a run and its stored reference beyond float-reordering tolerance."""
    problems = []
    if sorted(expected["final"]) != sorted(got["final"]):
        problems.append(f"final-tick series {sorted(got['final'])}")
    for name, value in expected["final"].items():
        if name in got["final"] and not _close(value, got["final"][name]):
            problems.append(f"{name} at the horizon: {got['final'][name]!r}, reference {value!r}")
    if len(expected["lines"]) != len(got["lines"]):
        problems.append(f"{len(got['lines'])} report lines, reference has {len(expected['lines'])}")
    for e, g in zip(expected["lines"], got["lines"]):
        if not _line_matches(e, g):
            problems.append(f"report line {g!r}, reference {e!r}")
    return problems


def load_references() -> dict:
    """``{workload: {seed: record}}`` pinned by make_references.py."""
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)
