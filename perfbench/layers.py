"""Traced pass: timing and allocation wrappers around roamtoken's module-level names.

The CLI, the harness and the engine look up the functions below in their
module's globals at call time, so replacing those bindings from outside the
package lets the benchmark see every layer boundary without touching
``src/``.  ``grid_search`` imports ``run_ci_trials`` from ``roamtoken.engine``
when it is called, which is why that binding is patched as well.

Run as a child process of ``run.py``::

    python3 perfbench/layers.py spans RESULT.json -- \
        simulate configs/ref5_static.yaml --seed 1 --out DIR

``spans`` times every wrapped call and aggregates per call path; ``alloc``
records ``tracemalloc`` peaks of the engine calls.  The two never share a
process, because ``tracemalloc`` slows the layers unevenly.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

perf_counter = time.perf_counter


def _trial_ticks(args: tuple, result: Any) -> dict[str, float]:
    return {"trial_ticks": result.trials * (result.horizon + 1)}


def _episode_ticks(args: tuple, result: Any) -> dict[str, float]:
    return {"ticks": result.horizon + 1}


def _walkers(args: tuple, result: Any) -> dict[str, float]:
    return {"walkers": len(result)}


def _grid(args: tuple, result: Any) -> dict[str, float]:
    scores = [score for _, score in result.scores]
    return {"candidates": len(scores), "diverged": sum(s == float("inf") for s in scores)}


def _file_bytes(position: int) -> Callable[[tuple, Any], dict[str, float]]:
    def work(args: tuple, result: Any) -> dict[str, float]:
        return {"bytes": os.path.getsize(args[position])}

    return work


@dataclass(frozen=True)
class Wrap:
    """One module-level binding to replace, the layer it reports as, and its work counter."""

    module: str
    attr: str
    layer: str
    work: Callable[[tuple, Any], dict[str, float]] | None = None
    # Layer name for the callable the wrapped function returns, if that is traced too.
    returns: str | None = None


WRAPS = (
    Wrap("roamtoken.cli", "load_config", "config.load_config"),
    Wrap("roamtoken.cli", "build_experiment", "config.build_experiment"),
    Wrap("roamtoken.config", "generate_backbone_with_degree", "graphs.generate_backbone_with_degree"),
    Wrap("roamtoken.cli", "run_experiment", "harness.run_experiment"),
    Wrap("roamtoken.harness", "run_token_trials", "engine.run_token_trials", _trial_ticks),
    Wrap("roamtoken.harness", "run_ci_trials", "engine.run_ci_trials", _trial_ticks),
    Wrap("roamtoken.engine", "run_ci_trials", "engine.run_ci_trials", _trial_ticks),
    Wrap("roamtoken.engine", "bulk_step", "chain.bulk_step", _walkers),
    Wrap(
        "roamtoken.engine", "central_solver", "observation.central_solver",
        returns="observation.central_solve",
    ),
    Wrap("roamtoken.harness", "grid_search", "baseline.grid_search", _grid),
    Wrap("roamtoken.harness", "run_episode", "token.run_episode", _episode_ticks),
    Wrap("roamtoken.harness", "write_trace_csv", "token.write_trace_csv", _file_bytes(1)),
    Wrap("roamtoken.harness", "write_metrics_csv", "harness.write_metrics_csv", _file_bytes(0)),
    Wrap("roamtoken.cli", "write_compare_csv", "harness.write_compare_csv", _file_bytes(0)),
    Wrap("roamtoken.harness", "rmse_token", "harness.aggregate"),
    Wrap("roamtoken.harness", "rmse_last_seen", "harness.aggregate"),
    Wrap("roamtoken.harness", "rmse_network_ci", "harness.aggregate"),
    Wrap("roamtoken.harness", "rmse_central", "harness.aggregate"),
    Wrap("roamtoken.harness", "optimality_ratio", "harness.aggregate"),
)

# The engine calls whose tracemalloc peak is reported.  None of them calls another.
ALLOC_WRAPS = (
    Wrap("roamtoken.harness", "run_token_trials", "engine.run_token_trials"),
    Wrap("roamtoken.harness", "run_ci_trials", "engine.run_ci_trials"),
    Wrap("roamtoken.engine", "run_ci_trials", "engine.run_ci_trials"),
    Wrap("roamtoken.harness", "run_episode", "token.run_episode"),
)


@dataclass
class PathStats:
    """Aggregate of every span that ran under one call path."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counters: dict[str, float] = field(default_factory=dict)


class _Patcher:
    """Replaces module bindings and puts the originals back."""

    def __init__(self) -> None:
        self.originals: list[tuple[Any, str, Any]] = []

    @contextmanager
    def patched(self, wraps: tuple[Wrap, ...]) -> Iterator[None]:
        try:
            for w in wraps:
                module = importlib.import_module(w.module)
                original = getattr(module, w.attr)
                self.originals.append((module, w.attr, original))
                setattr(module, w.attr, self.wrap(original, w))
            yield
        finally:
            for module, attr, original in reversed(self.originals):
                setattr(module, attr, original)

    def restored(self) -> bool:
        """True when every patched binding holds its original object again."""
        return all(getattr(m, attr) is original for m, attr, original in self.originals)

    def wrap(self, fn: Callable, w: Wrap) -> Callable:
        raise NotImplementedError


class SpanTracer(_Patcher):
    """Times each wrapped call as a span and aggregates spans per call path.

    A span's self time is its duration minus the time its child spans cover.
    Aggregating per path keeps the per-tick spans (``bulk_step``, the oracle
    solve) bounded in memory.
    """

    def __init__(self) -> None:
        super().__init__()
        self.paths: dict[tuple[str, ...], PathStats] = {}
        self._stack: list[list] = []  # [path, child seconds] per open span

    def span(self, fn: Callable, layer: str, work=None, returns: str | None = None) -> Callable:
        stack, paths = self._stack, self.paths

        def traced(*args, **kwargs):
            path = (stack[-1][0] if stack else ()) + (layer,)
            frame = [path, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                stats = paths.get(path)
                if stats is None:
                    stats = paths[path] = PathStats()
                stats.calls += 1
                stats.total_s += dt
                stats.self_s += dt - frame[1]
            if work is not None:
                for key, value in work(args, result).items():
                    stats.counters[key] = stats.counters.get(key, 0) + value
            if returns is not None:
                result = self.span(result, returns)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap(self, fn: Callable, w: Wrap) -> Callable:
        return self.span(fn, w.layer, w.work, w.returns)

    def report(self) -> list[dict]:
        return [
            {"path": "/".join(p), "calls": s.calls, "total_s": s.total_s, "self_s": s.self_s}
            | s.counters
            for p, s in sorted(self.paths.items())
        ]


class AllocTracer(_Patcher):
    """Largest tracemalloc peak above the entry level, per wrapped layer, in bytes."""

    def __init__(self) -> None:
        super().__init__()
        self.peaks: dict[str, int] = {}

    def wrap(self, fn: Callable, w: Wrap) -> Callable:
        peaks, layer = self.peaks, w.layer

        def traced(*args, **kwargs):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] - base
                peaks[layer] = max(peaks.get(layer, 0), peak)

        traced.__wrapped__ = fn
        return traced


def run_spans(argv: list[str]) -> dict:
    """Import the CLI, run ``main(argv)`` under span wrappers, and restore them."""
    t0 = perf_counter()
    import roamtoken.cli

    import_s = perf_counter() - t0
    tracer = SpanTracer()
    with tracer.patched(WRAPS):
        rc = tracer.span(roamtoken.cli.main, "cli.main")(argv)
    return {"rc": rc, "import_s": import_s, "restored": tracer.restored(), "paths": tracer.report()}


def run_alloc(argv: list[str]) -> dict:
    """Run ``main(argv)`` with tracemalloc on and the engine calls wrapped."""
    import roamtoken.cli

    tracer = AllocTracer()
    tracemalloc.start()
    try:
        with tracer.patched(ALLOC_WRAPS):
            rc = roamtoken.cli.main(argv)
    finally:
        tracemalloc.stop()
    return {"rc": rc, "restored": tracer.restored(), "peak_bytes": tracer.peaks}


def main() -> int:
    if len(sys.argv) < 4 or sys.argv[1] not in ("spans", "alloc") or sys.argv[3] != "--":
        print("usage: layers.py {spans,alloc} RESULT.json -- CLI-ARGS...", file=sys.stderr)
        return 2
    mode, result_path, argv = sys.argv[1], sys.argv[2], sys.argv[4:]
    result = run_spans(argv) if mode == "spans" else run_alloc(argv)
    with open(result_path, "w") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
