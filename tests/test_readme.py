"""Every ``arcbricks`` command in README.md's ``sh`` blocks runs through
``cli.main``: it exits 0 without a traceback, and a line whose comment is a
bare number (``# 42``) prints exactly that number, so the documented
commands cannot drift from the CLI."""

import re
import shlex
from pathlib import Path

import pytest

from arcbricks.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands() -> list[str]:
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S)
    return [
        line
        for block in blocks
        for line in block.splitlines()
        if line.startswith("arcbricks ")
    ]


COMMANDS = readme_commands()


def test_the_readme_shows_every_cli_example():
    # seven CLI examples and two check lines
    assert len(COMMANDS) == 9


@pytest.mark.parametrize("line", COMMANDS)
def test_a_readme_command_runs(capsys, line):
    argv = shlex.split(line, comments=True)
    code = main(argv[1:])
    out, err = capsys.readouterr()
    assert code == 0, err
    assert "Traceback" not in out + err
    number = re.search(r"#\s*(\d+)\s*$", line)
    if number:
        assert out == number.group(1) + "\n"
