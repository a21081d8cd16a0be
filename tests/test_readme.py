"""Every Python code block and every `svoc` command in README.md runs
against the current API."""

import re
import shlex
from collections import Counter
from pathlib import Path

import pytest

from svoc.cli import run_command

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")


def _fences():
    """(heading, language, body) of each fenced block, with the slug of the
    README heading above it."""
    out, heading = [], "top"
    for m in re.finditer(r"^#+ ([^\n]*)$|^```(\w*)\n(.*?)^```", TEXT, re.M | re.S):
        if m[1] is not None:
            heading = re.sub(r"[^a-z0-9]+", "-", m[1].lower()).strip("-")
        else:
            out.append((heading, m[2], m[3]))
    return out


def _ids(names):
    """Each name as it is, and a repeat of it as name-2, name-3, ...: adding a
    block or command renames none under another heading."""
    seen = Counter()
    out = []
    for name in names:
        seen[name] += 1
        out.append(name if seen[name] == 1 else f"{name}-{seen[name]}")
    return out


def _commands():
    """(name, argv, files) of each `svoc ...` command in the sh blocks, with
    `\\` continuations joined and the files of the `# ->` line after it; the
    name is the heading above and the subcommand."""
    out = []
    for heading, language, block in _fences():
        if language != "sh":
            continue
        for line in re.sub(r"\\\n\s*", "", block).splitlines():
            if line.startswith("svoc "):
                argv = shlex.split(line)[1:]
                out.append((f"{heading}-{argv[0]}", argv, []))
            elif line.startswith("# ->"):
                out[-1][2].extend(line[len("# ->"):].replace(",", " ").split())
    return out


BLOCKS = [(heading, body) for heading, language, body in _fences() if language == "python"]
COMMANDS = _commands()


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("source", [body for _, body in BLOCKS],
                         ids=_ids(heading for heading, _ in BLOCKS))
def test_readme_python_block_runs(source, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(source, str(README), "exec"), {"__name__": "readme_example"})


def test_readme_has_commands():
    assert COMMANDS


@pytest.mark.parametrize("argv, files", [c[1:] for c in COMMANDS],
                         ids=_ids(name for name, _, _ in COMMANDS))
def test_readme_command_runs(argv, files, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_command(argv) == 0
    for name in files:
        assert (tmp_path / name).is_file(), name
