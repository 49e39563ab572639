"""Tests of the benchmark itself: declared names, transparent tracing, failure counting."""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import re
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
import run  # noqa: E402
from workloads import (  # noqa: E402
    TOKEN_SERIES,
    WORKLOADS,
    Workload,
    check_output,
    compare_reference,
    reference_record,
)

ROOT = Path(__file__).resolve().parents[1]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
TINY = Workload(
    "tiny-ref5", "simulate", "configs/ref5_static.yaml", ("run.trials=4", "run.horizon=50"),
    trials=4, horizon=50,
    metrics=TOKEN_SERIES + ("optimality_ratio_central", "rmse_central"),
    files=("metrics.csv", "trace_trial0.csv", "meta.yaml"),
)


def _captured(fn, argv: list[str]) -> tuple[object, str]:
    """``fn(argv)`` and its stdout without the ``wrote <path>`` lines."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        result = fn(argv)
    return result, "\n".join(l for l in buf.getvalue().splitlines() if not l.startswith("wrote "))


def _argv(out_dir: Path) -> list[str]:
    """The tiny run's CLI arguments, with the config named by absolute path."""
    argv = TINY.cli_args(3, str(out_dir))
    argv[1] = str(ROOT / TINY.config)
    return argv


def _outputs(out_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def test_every_emitted_name_is_declared():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    emitted = {**run.END_TO_END, **run.PER_LAYER}
    assert emitted == declared
    assert {w["name"] for w in bench["workloads"]} == set(WORKLOADS)
    for name in [*declared, *WORKLOADS]:
        assert NAME.fullmatch(name), name


def test_wrappers_are_byte_transparent_and_restored(tmp_path):
    originals = {
        (w.module, w.attr): getattr(importlib.import_module(w.module), w.attr)
        for w in layers.WRAPS + layers.ALLOC_WRAPS
    }

    import roamtoken.cli

    rc, stdout = _captured(roamtoken.cli.main, _argv(tmp_path / "plain"))
    assert rc == 0
    expected = _outputs(tmp_path / "plain")

    results = {}
    for mode, fn in (("spans", layers.run_spans), ("alloc", layers.run_alloc)):
        results[mode], traced_stdout = _captured(fn, _argv(tmp_path / mode))
        assert results[mode]["rc"] == 0 and results[mode]["restored"]
        assert _outputs(tmp_path / mode) == expected
        assert traced_stdout == stdout
    for (module, attr), original in originals.items():
        assert getattr(importlib.import_module(module), attr) is original

    spans, alloc = results["spans"], results["alloc"]
    by_path = {entry["path"]: entry for entry in spans["paths"]}
    token = by_path["cli.main/harness.run_experiment/engine.run_token_trials"]
    assert token["calls"] == 1 and token["trial_ticks"] == 4 * 51
    assert by_path[
        "cli.main/harness.run_experiment/engine.run_token_trials/chain.bulk_step"
    ]["walkers"] == 4 * 51
    assert all(0 <= entry["self_s"] <= entry["total_s"] for entry in spans["paths"])
    assert alloc["peak_bytes"]["engine.run_token_trials"] > 0


def test_forced_failure_raises_failed_frac(tmp_path):
    tally = run.Tally()
    runner = run.Runner(tmp_path, time.perf_counter() + 60)
    run.Checker(TINY, 3, tally, None)("good", *runner.cli(TINY, 3, "good"))
    assert tally.failures == []

    missing = Workload(
        "missing", "simulate", "configs/no_such_config.yaml", (), 4, 50,
        metrics=TINY.metrics, files=TINY.files,
    )
    child, out_dir = runner.cli(missing, 3, "missing")
    assert child.rc == 1
    run.Checker(missing, 3, tally, None)("missing", child, out_dir)
    assert (tally.attempted, len(tally.failures)) == (2, 1)


def test_output_check_catches_corruption(tmp_path):
    runner = run.Runner(tmp_path, time.perf_counter() + 60)
    child, out_dir = runner.cli(TINY, 3, "run")
    assert check_output(TINY, child.rc, out_dir, child.stdout) == []
    reference = reference_record(TINY, out_dir, child.stdout)
    assert compare_reference(reference, reference_record(TINY, out_dir, child.stdout)) == []

    shifted = {**reference, "final": {k: v * (1 + 1e-6) for k, v in reference["final"].items()}}
    assert compare_reference(shifted, reference) != []
    assert compare_reference({"final": reference["final"], "lines": ["PASS x"]}, reference) != []

    metrics = out_dir / "metrics.csv"
    lines = metrics.read_text().splitlines(keepends=True)
    metrics.write_text("".join(lines[:-1]))
    assert any("rows" in p for p in check_output(TINY, 0, out_dir, child.stdout))
    cells = lines[-1].split(",")
    cells[2] = "nan"
    metrics.write_text("".join(lines[:-1]) + ",".join(cells))
    assert any("non-finite" in p for p in check_output(TINY, 0, out_dir, child.stdout))
    (out_dir / "meta.yaml").unlink()
    assert check_output(TINY, 0, out_dir, child.stdout) == ["missing meta.yaml"]


def test_checkout_without_the_package_is_refused(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    with pytest.raises(run.Failed, match="src/roamtoken/cli.py"):
        run.check_checkout()
