"""Properties of the package's source as a whole."""

import ast
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


def test_every_error_type_is_raised_or_is_the_base_of_one_that_is():
    # an exception type that nothing raises is a public name with no behaviour behind it
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    errors = ast.parse((SRC / "errors.py").read_text())
    bases = {
        node.name: [base.id for base in node.bases if isinstance(base, ast.Name)]
        for node in errors.body
        if isinstance(node, ast.ClassDef)
    }
    raised = set()
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            raised.add(exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None))
    used, todo = set(), [name for name in bases if name in raised]
    while todo:
        name = todo.pop()
        if name in bases and name not in used:
            used.add(name)
            todo += bases[name]
    assert len(bases) > 5
    assert sorted(set(bases) - used) == []


def test_source_stays_under_the_line_ceiling():
    # ROADMAP item 11's ceiling: a capability that adds lines pays for them with cuts.  Lines
    # are counted as `wc -l src/roamtoken/*.py` counts them, one per newline
    lines = {path.name: path.read_bytes().count(b"\n") for path in SRC.glob("*.py")}
    assert len(lines) > 10
    assert sum(lines.values()) <= 3_205, lines
