"""The README's documented library example runs against the public API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_use_block_runs(capsys):
    section = README.read_text().split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block is not None, "README has no python block under 'Library use'"
    exec(compile(block.group(1), f"{README}:Library use", "exec"), {})
    assert float(capsys.readouterr().out) >= 0.0
