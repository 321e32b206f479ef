"""The README's `$ pmodel ...` examples, run in process against their shown output."""
from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from conftest import run_cli

ROOT = Path(__file__).resolve().parents[1]


def readme_examples() -> list[tuple[str, str]]:
    """(command line, expected stdout) for each `$ pmodel` line in a code block."""
    examples = []
    for block in re.findall(r"^```\n(.*?)^```$", (ROOT / "README.md").read_text(), re.M | re.S):
        for command, output in re.findall(r"^\$ pmodel (.*)\n((?:(?!\$ ).*\n)*)", block, re.M):
            examples.append((command, output))
    return examples


def test_readme_has_examples():
    assert len(readme_examples()) == 9


@pytest.mark.parametrize("command,output", readme_examples(), ids=[c for c, _ in readme_examples()])
def test_readme_example(command, output, monkeypatch):
    monkeypatch.chdir(ROOT)
    code, out, _ = run_cli(*shlex.split(command))
    assert (code, out) == (0, output)
