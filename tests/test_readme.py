"""Every Python code block and every `svoc` command in README.md runs
against the current API."""

import re
import shlex
from pathlib import Path

import pytest

from svoc.cli import run_command

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"```python\n(.*?)```", TEXT, re.S)


def _commands():
    """(argv, files) of each `svoc ...` command in the sh blocks, with `\\`
    continuations joined and the files of the `# ->` line after it."""
    out = []
    for block in re.findall(r"```sh\n(.*?)```", TEXT, re.S):
        for line in re.sub(r"\\\n\s*", "", block).splitlines():
            if line.startswith("svoc "):
                out.append((shlex.split(line)[1:], []))
            elif line.startswith("# ->"):
                out[-1][1].extend(line[len("# ->"):].replace(",", " ").split())
    return out


COMMANDS = _commands()


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(source, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(source, str(README), "exec"), {"__name__": "readme_example"})


def test_readme_has_commands():
    assert COMMANDS


@pytest.mark.parametrize("argv, files", COMMANDS, ids=[argv[0] for argv, _ in COMMANDS])
def test_readme_command_runs(argv, files, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SVOC_OUT_DIR", raising=False)
    assert run_command(argv) == 0
    for name in files:
        assert (tmp_path / name).is_file(), name
