"""The README's examples run as written.

The diagram block is written to ring2.dg, each Python block of the
Library section runs next to it, and the `linkdyn check` and `linkdyn
cycles` transcripts of the CLI section are compared with real output.
"""

import re
from pathlib import Path

import pytest

from linkdyn.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def fenced_blocks(text):
    """(info string, body) of each fenced block, in order."""
    return re.findall(r"^```(\w*)\n(.*?)^```$", text, flags=re.M | re.S)


def transcripts(block):
    """Each `$ command` line of a block with the lines it prints."""
    out = {}
    for chunk in block.strip().split("\n\n"):
        command, *lines = chunk.splitlines()
        assert command.startswith("$ "), chunk
        out[command[2:]] = "".join(line + "\n" for line in lines)
    return out


@pytest.fixture
def readme(tmp_path, monkeypatch):
    blocks = fenced_blocks(README.read_text(encoding="utf-8"))
    ring = [body for _, body in blocks if "closed into a ring" in body]
    assert len(ring) == 1
    (tmp_path / "ring2.dg").write_text(ring[0], encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    return blocks


def test_python_blocks_run(readme, capsys):
    python = [body for info, body in readme if info == "python"]
    assert len(python) == 2
    for body in python:
        exec(compile(body, str(README), "exec"), {})
    assert capsys.readouterr().out.startswith("root_order 5\n")


@pytest.mark.parametrize("command", ["check", "cycles"])
def test_cli_transcript(readme, capsys, command):
    cli = [body for _, body in readme if "$ linkdyn check ring2.dg" in body]
    assert len(cli) == 1
    want = transcripts(cli[0])[f"linkdyn {command} ring2.dg"]
    assert main([command, "ring2.dg"]) == 0
    assert capsys.readouterr().out == want
