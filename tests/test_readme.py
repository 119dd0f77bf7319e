"""The README's sample outputs are what the command line prints, and its
module map names each module of the package once."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from rootvol.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


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


def test_module_map_has_one_entry_per_module():
    lines = README.read_text(encoding="utf-8").split("Module map (under `src/rootvol/`):\n", 1)[1].splitlines()
    section = []
    for line in lines:
        if line and not line.startswith(("* ", "  ")):
            break
        section.append(line)
    entries = re.findall(r"^\* `(\w+)`:", "\n".join(section), re.M)
    modules = [p.stem for p in (ROOT / "src" / "rootvol").glob("*.py") if p.stem != "__init__"]
    assert sorted(entries) == sorted(modules)
