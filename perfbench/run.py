"""Benchmark of the roamtoken CLI workloads.

End-to-end pass (``--trace 0``): a single driver runs each workload as a
fresh ``python -m roamtoken.cli`` child, one at a time (closed loop, one
client), and reads the child's wall time and peak RSS through ``os.wait4``.
Set-up time is measured in fresh processes that import the CLI, load the
config and build the experiment.

Traced pass (``--trace 1``): the same CLI call runs in-process in a child
that wraps the package's module-level entry points (see ``layers.py``), once
timing spans and once with ``tracemalloc``; its outputs must be
byte-identical to the untraced run's.

Usage, from the repository root::

    python3 perfbench/run.py --workload simulate-ref5 --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Everything a run writes goes under
``.perfbench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from workloads import (
    REFERENCE_FILE,
    WORKLOADS,
    Workload,
    check_output,
    compare_reference,
    digests,
    load_references,
    reference_record,
)

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".perfbench_out"
LAYERS_SCRIPT = Path(__file__).with_name("layers.py")
SETUP_REPS = 5
MIN_REPS = 5
# Every run ends well inside the 180 s a benchmark run may take.
RUN_BUDGET_S = 170.0

END_TO_END = {"wall_s": "s", "trial_ticks_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

SELF_TIMED = (
    "cli.main",
    "config.load_config",
    "config.build_experiment",
    "graphs.generate_backbone_with_degree",
    "engine.run_token_trials",
    "engine.run_ci_trials",
    "chain.bulk_step",
    "observation.central_solve",
    "baseline.grid_search",
    "token.run_episode",
    "token.write_trace_csv",
    "harness.run_experiment",
    "harness.aggregate",
    "harness.write_metrics_csv",
    "harness.write_compare_csv",
)
CALLED = (
    "engine.run_ci_trials",
    "chain.bulk_step",
    "observation.central_solve",
    "token.run_episode",
)
WRITERS = ("harness.write_metrics_csv", "harness.write_compare_csv", "token.write_trace_csv")
ENGINES = ("engine.run_token_trials", "engine.run_ci_trials")
ALLOCATING = ENGINES + ("token.run_episode",)

PER_LAYER = {
    "cli.import_s": "s",
    **{f"{layer}.self_s": "s" for layer in SELF_TIMED},
    **{f"{layer}.calls": "count" for layer in CALLED},
    **{f"{layer}.bytes": "B" for layer in WRITERS},
    **{f"{layer}.ns_per_trial_tick": "ns" for layer in ENGINES},
    **{f"{layer}.peak_alloc_mb": "MB" for layer in ALLOCATING},
    "engine.run_token_trials.trial_ticks": "count",
    "engine.ci_useful_frac": "fraction",
    "baseline.grid_search.candidates": "count",
    "baseline.grid_search.diverged": "count",
    "chain.bulk_step.ns_per_walker": "ns",
    "token.run_episode.us_per_tick": "us",
    "process.cpu_s": "s",
    "process.cpu_util": "fraction",
    "trace.overhead_frac": "fraction",
}

SETUP_CODE = """\
import sys
from pathlib import Path
import roamtoken.cli
from roamtoken.config import apply_overrides, build_experiment, load_config
path, seed, *overrides = sys.argv[1:]
cfg = apply_overrides(load_config(path), overrides + ["run.seed=" + seed])
build_experiment(cfg, Path(path).parent)
print(roamtoken.cli.__file__)
"""

ENV_CODE = """\
import json, os, platform, sys
import numpy, scipy, yaml
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "scipy": scipy.__version__,
    "pyyaml": yaml.__version__,
    "blas": f"{blas.get('name')} {blas.get('version')}",
    "blas_threads": {
        k: v for k, v in os.environ.items() if k.endswith(("_NUM_THREADS", "_MAX_THREADS"))
    },
}))
"""


class Failed(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


@dataclass
class Child:
    rc: int
    wall_s: float
    rss_mb: float
    cpu_s: float
    stdout: str
    stderr: str


@dataclass
class Tally:
    """Runs attempted and the problems of those that failed."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{label}: " + "; ".join(problems))


class Runner:
    """Spawns the children of one benchmark run, inside its time budget."""

    def __init__(self, run_dir: Path, deadline: float) -> None:
        self.run_dir = run_dir
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        )

    def spawn(self, argv: list[str], tag: str) -> Child:
        """Run one child to completion and read its wall time and own rusage."""
        out_path, err_path = self.run_dir / f"{tag}.stdout", self.run_dir / f"{tag}.stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=out, stderr=err)
            watchdog = threading.Timer(max(1.0, self.deadline - t0), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(
            rc=proc.returncode,
            wall_s=wall,
            rss_mb=usage.ru_maxrss / 1024.0,
            cpu_s=usage.ru_utime + usage.ru_stime,
            stdout=out_path.read_text(),
            stderr=err_path.read_text(),
        )

    def setup(self, w: Workload, seed: int, tag: str) -> tuple[Child, list[str]]:
        child = self.spawn(
            [sys.executable, "-c", SETUP_CODE, w.config, str(seed), *w.overrides], tag
        )
        problems = [] if child.rc == 0 else [f"exit code {child.rc}: {child.stderr.strip()[-300:]}"]
        if child.rc == 0 and not child.stdout.strip().startswith(str(ROOT / "src")):
            problems.append(f"imported roamtoken from {child.stdout.strip()}")
        return child, problems

    def cli(
        self, w: Workload, seed: int, tag: str, prefix: list[str] | None = None
    ) -> tuple[Child, Path]:
        out_dir = self.run_dir / tag
        argv = (prefix or [sys.executable, "-m", "roamtoken.cli"]) + w.cli_args(seed, str(out_dir))
        return self.spawn(argv, tag), out_dir


@dataclass
class Checker:
    """Checks every CLI run of one workload and seed against the first and the reference."""

    w: Workload
    seed: int
    tally: Tally
    reference: dict | None
    first: dict[str, str] | None = None

    def __call__(self, tag: str, child: Child, out_dir: Path) -> dict[str, str]:
        problems = check_output(self.w, child.rc, out_dir, child.stdout)
        if child.rc != 0:
            problems.append(child.stderr.strip()[-300:])
        got = digests(self.w, out_dir, child.stdout)
        if not problems:
            if self.first is None:
                self.first = got
            elif got != self.first:
                changed = sorted(k for k in got if got[k] != self.first[k])
                problems.append(f"bytes differ from the first run of this seed: {changed}")
            if self.reference is not None:
                problems += compare_reference(
                    self.reference, reference_record(self.w, out_dir, child.stdout)
                )
        self.tally.record(tag, problems)
        return got


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def end_to_end(
    runner: Runner, w: Workload, seed: int, seconds: float, check: Checker
) -> tuple[dict, dict]:
    """Set-up children, then a discarded warm-up run and timed runs for ``seconds``.

    The timed runs stop when the next would end past ``seconds``, but never
    before ``MIN_REPS`` of them.
    """
    setup_walls = []
    for i in range(SETUP_REPS):
        child, problems = runner.setup(w, seed, f"setup{i}")
        check.tally.record(f"setup{i}", problems)
        setup_walls.append(child.wall_s)
    deadline = time.perf_counter() + seconds
    check("warmup", *runner.cli(w, seed, "warmup"))
    reps: list[Child] = []
    while len(reps) < MIN_REPS or (
        time.perf_counter() + statistics.median(c.wall_s for c in reps) <= deadline
    ):
        child, out_dir = runner.cli(w, seed, f"rep{len(reps)}")
        check(f"rep{len(reps)}", child, out_dir)
        reps.append(child)
        shutil.rmtree(out_dir, ignore_errors=True)
    samples = {
        "wall_s": [c.wall_s for c in reps],
        "setup_s": setup_walls,
        "peak_rss_mb": [c.rss_mb for c in reps],
        "trial_ticks_per_s": [w.trial_ticks / c.wall_s for c in reps],
    }
    wall = statistics.median(samples["wall_s"])
    metrics = {
        "wall_s": wall,
        "trial_ticks_per_s": w.trial_ticks / wall,
        "setup_s": statistics.median(setup_walls),
        "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
    }
    return metrics, samples


def _by_layer(paths: list[dict]) -> dict[str, dict[str, float]]:
    layers: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for entry in paths:
        layer = entry["path"].rsplit("/", 1)[-1]
        for key, value in entry.items():
            if key != "path":
                layers[layer][key] += value
    return layers


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num * scale / den if den else 0.0


def layer_metrics(spans: dict, alloc: dict, base: Child, traced_wall: float) -> dict[str, float]:
    """Per-layer metrics from the span and allocation passes and the untraced run."""
    layers = _by_layer(spans["paths"])
    m = {"cli.import_s": spans["import_s"]}
    m.update({f"{layer}.self_s": layers[layer]["self_s"] for layer in SELF_TIMED})
    m.update({f"{layer}.calls": layers[layer]["calls"] for layer in CALLED})
    m.update({f"{layer}.bytes": layers[layer]["bytes"] for layer in WRITERS})
    for layer in ENGINES:
        m[f"{layer}.ns_per_trial_tick"] = _ratio(
            layers[layer]["total_s"], layers[layer]["trial_ticks"], 1e9
        )
    for layer in ALLOCATING:
        m[f"{layer}.peak_alloc_mb"] = alloc["peak_bytes"].get(layer, 0) / 2**20
    useful = sum(
        e.get("trial_ticks", 0)
        for e in spans["paths"]
        if e["path"].endswith("harness.run_experiment/engine.run_ci_trials")
    )
    grid, bulk = layers["baseline.grid_search"], layers["chain.bulk_step"]
    episode = layers["token.run_episode"]
    m.update(
        {
            "engine.run_token_trials.trial_ticks": layers["engine.run_token_trials"]["trial_ticks"],
            "engine.ci_useful_frac": _ratio(useful, layers["engine.run_ci_trials"]["trial_ticks"]),
            "baseline.grid_search.candidates": grid["candidates"],
            "baseline.grid_search.diverged": grid["diverged"],
            "chain.bulk_step.ns_per_walker": _ratio(bulk["self_s"], bulk["walkers"], 1e9),
            "token.run_episode.us_per_tick": _ratio(episode["total_s"], episode["ticks"], 1e6),
            "process.cpu_s": base.cpu_s,
            "process.cpu_util": base.cpu_s / base.wall_s,
            "trace.overhead_frac": traced_wall / base.wall_s - 1.0,
        }
    )
    return m


def traced(runner: Runner, w: Workload, seed: int, check: Checker) -> tuple[dict, dict]:
    """Untraced run, span pass and allocation pass; the passes must not change a byte."""
    check("warmup", *runner.cli(w, seed, "warmup"))
    base, base_dir = runner.cli(w, seed, "untraced")
    expected = check("untraced", base, base_dir)
    results, walls = {}, {}
    for mode in ("spans", "alloc"):
        result_path = runner.run_dir / f"{mode}.json"
        prefix = [sys.executable, str(LAYERS_SCRIPT), mode, str(result_path), "--"]
        child, out_dir = runner.cli(w, seed, mode, prefix)
        got = digests(w, out_dir, child.stdout)
        problems = [] if child.rc == 0 else [f"exit code {child.rc}: {child.stderr.strip()[-300:]}"]
        if not problems:
            results[mode] = json.loads(result_path.read_text())
            walls[mode] = child.wall_s
            if results[mode]["rc"] != base.rc:
                problems.append(f"cli exit code {results[mode]['rc']}, untraced {base.rc}")
            if not results[mode]["restored"]:
                problems.append("wrappers were not restored")
            if got != expected:
                changed = sorted(k for k in got if got[k] != expected[k])
                problems.append(f"output differs from the untraced run: {changed}")
        check.tally.record(f"{mode} pass", problems)
    if len(results) < 2:
        return {}, {}
    metrics = layer_metrics(results["spans"], results["alloc"], base, walls["spans"])
    return metrics, {"paths": results["spans"]["paths"], "traced_wall_s": walls}


def environment(runner: Runner, w: Workload, seed: int) -> dict:
    """What the results depend on besides the code: machine, libraries, commit, inputs."""
    child = runner.spawn([sys.executable, "-c", ENV_CODE], "environment")
    env = json.loads(child.stdout) if child.rc == 0 else {"probe_error": child.stderr[-300:]}
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu_model,
            )
    except OSError:
        pass
    commit, dirty = "unknown", None
    if (ROOT / ".git").exists():
        def git(*args: str) -> str:
            return subprocess.run(
                ["git", "-C", str(ROOT), *args], capture_output=True, text=True, check=False
            ).stdout.strip()

        commit = git("rev-parse", "HEAD") or "unknown"
        dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    return {
        **env,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "git_commit": commit,
        "git_dirty": dirty,
        "seed": seed,
        "overrides": list(w.overrides),
    }


def check_checkout() -> dict:
    """Refuse a checkout without the package, the configs or the references."""
    missing = [
        str(p.relative_to(ROOT))
        for p in [ROOT / "src" / "roamtoken" / "cli.py", REFERENCE_FILE]
        + [ROOT / w.config for w in WORKLOADS.values()]
        if not p.is_file()
    ]
    if missing:
        raise Failed("missing " + ", ".join(missing))
    return load_references()


def run_workload(
    w: Workload, seed: int, seconds: float, trace: bool, references: dict, started: float
) -> dict:
    """One benchmark run: its metrics, its tally, and the results file it leaves."""
    run_dir = OUT / w.name / f"seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    runner = Runner(run_dir, started + RUN_BUDGET_S)
    tally = Tally()
    check = Checker(w, seed, tally, references.get(w.name, {}).get(str(seed)))
    if trace:
        metrics, detail = traced(runner, w, seed, check)
        units = PER_LAYER
    else:
        metrics, detail = end_to_end(runner, w, seed, seconds, check)
        units = END_TO_END
    result = {
        "workload": w.name,
        "trace": trace,
        "environment": environment(runner, w, seed),
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "failures": tally.failures,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
            if name in metrics
        },
        "detail": detail,
    }
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    results_file = results_dir / f"{w.name}-seed{seed}-trace{int(trace)}.json"
    results_file.write_text(json.dumps(result, indent=1))
    return result


def print_summary(result: dict) -> None:
    w = result["workload"]
    trace, attempted, failed = int(result["trace"]), result["attempted"], result["failed"]
    print(f"== {w} (trace {trace}): {attempted} runs, {failed} failed")
    for failure in result["failures"]:
        print(f"   FAILED {failure}")
    samples = result["detail"] if not result["trace"] else {}
    for name, metric in result["metrics"].items():
        line = f"   {name:<48} {metric['value']:>14.6g} {metric['unit']}"
        if name in samples:
            q1, q3 = _quartiles(samples[name])
            line += f"  (median of n={len(samples[name])}, q1 {q1:.6g}, q3 {q3:.6g})"
        print(line)
    if result["trace"] and result["metrics"]:
        ranked = sorted(
            (n for n in result["metrics"] if n.endswith(".self_s")),
            key=lambda n: -result["metrics"][n]["value"],
        )
        print("   largest self time: " + ", ".join(n[: -len(".self_s")] for n in ranked[:3]))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        references = check_checkout()
    except Failed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    if args.workload == "all":
        results = [
            run_workload(w, args.seed, args.seconds, trace, references, time.perf_counter())
            for w in WORKLOADS.values()
            for trace in (False, True)
        ]
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    else:
        w = WORKLOADS[args.workload]
        results = [run_workload(w, args.seed, args.seconds, bool(args.trace), references, started)]
        metrics = results[0]["metrics"]
    for result in results:
        print_summary(result)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted} runs)")
    expected = sum(len(PER_LAYER if r["trace"] else END_TO_END) for r in results)
    correct = failed == 0 and len(metrics) == expected
    summary = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
