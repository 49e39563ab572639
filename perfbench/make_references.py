"""Pin the reference outputs that every benchmark run is checked against.

Runs each workload's CLI call once per seed and stores the final-tick value of
every series and the report lines (the CI winner) in
``references.json``.  Regenerate only when a change is meant to alter results::

    python3 perfbench/make_references.py --seeds 0-31
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time

from run import OUT, RUN_BUDGET_S, Runner
from workloads import REFERENCE_FILE, WORKLOADS, check_output, reference_record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-31", help="inclusive range FIRST-LAST")
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS))
    args = parser.parse_args()
    first, last = (int(s) for s in args.seeds.split("-"))
    references = json.loads(REFERENCE_FILE.read_text()) if REFERENCE_FILE.is_file() else {}
    for name in args.workload or list(WORKLOADS):
        w = WORKLOADS[name]
        run_dir = OUT / "references" / name
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir(parents=True)
        for seed in range(first, last + 1):
            runner = Runner(run_dir, time.perf_counter() + RUN_BUDGET_S)
            child, out_dir = runner.cli(w, seed, f"seed{seed}")
            problems = check_output(w, child.rc, out_dir, child.stdout)
            if problems:
                print(f"{name} seed {seed}: {problems} {child.stderr[-300:]}", file=sys.stderr)
                return 1
            references.setdefault(name, {})[str(seed)] = reference_record(w, out_dir, child.stdout)
            print(f"{name} seed {seed}: {child.wall_s:.2f} s", flush=True)
    REFERENCE_FILE.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
