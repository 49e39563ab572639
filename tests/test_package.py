"""Properties of the package's source as a whole."""

import tracemalloc
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "roamtoken"


def test_no_module_parse_tree_sets_the_cli_peak():
    # Without a bytecode cache each CLI call compiles every module, and the memory of the
    # largest parse tree stays with the process.  Under CPython 3.11.7 the traced peak of
    # compiling a 1,002-line engine.py was 3.4 MB, the next largest module's 1.3 MB; split
    # into three modules along its layers, none reads above 1.4 MB.
    peaks = {}
    tracemalloc.start()
    try:
        for path in sorted(SRC.glob("*.py")):
            source = path.read_text()
            tracemalloc.reset_peak()
            live = tracemalloc.get_traced_memory()[0]
            compile(source, str(path), "exec")
            peaks[path.name] = tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()
    assert len(peaks) > 10
    assert max(peaks.values()) <= 1_500_000, peaks
