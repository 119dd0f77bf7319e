"""The README's sample outputs are what the command line prints."""

from __future__ import annotations

import shlex
from pathlib import Path

import pytest

from rootvol.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _samples() -> list[tuple[str, str]]:
    """Each `$ rootvol ...` line of the README with the lines printed under it."""
    samples = []
    lines = README.read_text(encoding="utf-8").splitlines()
    for i, line in enumerate(lines):
        if not line.startswith("$ rootvol "):
            continue
        out = []
        for follow in lines[i + 1 :]:
            if not follow or follow.startswith(("$ ", "```")):
                break
            out.append(follow)
        samples.append((line[len("$ rootvol ") :], "\n".join(out) + "\n"))
    return samples


def test_readme_has_volume_and_partition_samples():
    commands = [command.split()[0] for command, _ in _samples()]
    assert "volume" in commands
    assert "partition" in commands


@pytest.mark.parametrize(
    "command, expected", [pytest.param(*sample, id=sample[0]) for sample in _samples()]
)
def test_readme_sample_output(capsys, command, expected):
    assert main(shlex.split(command)) == 0
    assert capsys.readouterr().out == expected
