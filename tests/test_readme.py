"""The README's documented library example runs against the public API, and its shell
blocks name exactly the CLI's subcommands."""

import argparse
import re
from pathlib import Path

from roamtoken.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_use_block_runs(capsys):
    section = README.read_text().split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block is not None, "README has no python block under 'Library use'"
    exec(compile(block.group(1), f"{README}:Library use", "exec"), {})
    assert float(capsys.readouterr().out) >= 0.0


def test_readme_shell_blocks_run_every_subcommand_and_no_other():
    parser = build_parser()
    (subparsers,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.DOTALL)
    documented = {m for block in blocks for m in re.findall(r"^roamtoken ([\w-]+)", block, re.M)}
    assert documented == set(subparsers.choices)
