"""The package resolves its public names on first use, the commands that
need no numpy never import it, the CLI imports json only to write JSON, and
its cold path loads neither dataclasses nor inspect."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rootvol

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("name", rootvol.__all__)
def test_public_name_is_the_module_attribute(name):
    module = importlib.import_module(f"rootvol.{rootvol._EXPORTS[name]}")
    assert getattr(rootvol, name) is getattr(module, name)
    assert name in dir(rootvol)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        rootvol.no_such_name


def test_cap_names_are_shared_with_weylgrp():
    from rootvol import invariants, weylgrp

    assert weylgrp.EnumerationCapError is invariants.EnumerationCapError
    assert weylgrp.DEFAULT_CAP == invariants.DEFAULT_CAP


_NO_NUMPY = """
import contextlib, io, sys
import rootvol.cli
assert "numpy" not in sys.modules, "import rootvol.cli"
for argv in (["nu", "--type", "A1"], ["series", "--order", "30"], ["identity", "--type", "E8"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert rootvol.cli.main(argv) == 0, argv
    assert "numpy" not in sys.modules, argv
"""


# json is imported by the JSON branch of the renderer alone.
_JSON_ON_DEMAND = """
import contextlib, io, sys
import rootvol.cli
assert "json" not in sys.modules, "import rootvol.cli"
for argv in (["identity", "--type", "E8"], ["identity", "--type", "E8", "--format", "tsv"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert rootvol.cli.main(argv) == 0, argv
    assert "json" not in sys.modules, argv
with contextlib.redirect_stdout(io.StringIO()):
    assert rootvol.cli.main(["nu", "--type", "A1", "--format", "json"]) == 0
assert "json" in sys.modules
"""


# The records on these paths are tuples, so no dataclass code is generated,
# and the six modules below are all of rootvol that the CLI loads.
_NO_DATACLASSES = """
import contextlib, io, sys
import rootvol.cli

def check(when):
    assert "dataclasses" not in sys.modules, when
    assert "inspect" not in sys.modules, when
    loaded = sorted(name for name in sys.modules if name.partition(".")[0] == "rootvol")
    want = ["rootvol", *(f"rootvol.{m}" for m in ("cli", "diagram", "identity", "invariants", "series"))]
    assert loaded == want, (when, loaded)

check("import rootvol.cli")
for argv in (["nu", "--type", "A1"], ["series", "--order", "30"], ["identity", "--type", "E8"]):
    for fmt in ("text", "json", "tsv"):
        with contextlib.redirect_stdout(io.StringIO()):
            assert rootvol.cli.main([*argv, "--format", fmt]) == 0, argv
        check([*argv, fmt])
"""


_ROOTS_WITHOUT_NUMPY = """
import sys
from rootvol.diagram import parse_label
from rootvol.invariants import exponents_from_heights
from rootvol.rootsys import system_of_type
rs = system_of_type(parse_label("E8"))
assert exponents_from_heights(rs) == (1, 7, 11, 13, 17, 19, 23, 29)
assert "numpy" not in sys.modules
"""


def _run(script: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_nu_series_and_identity_never_import_numpy():
    done = _run(_NO_NUMPY)
    assert done.returncode == 0, done.stderr


def test_cli_imports_json_only_to_write_json():
    done = _run(_JSON_ON_DEMAND)
    assert done.returncode == 0, done.stderr


def test_cli_cold_path_loads_neither_dataclasses_nor_inspect():
    done = _run(_NO_DATACLASSES)
    assert done.returncode == 0, done.stderr


def test_root_generation_and_exponents_never_import_numpy():
    done = _run(_ROOTS_WITHOUT_NUMPY)
    assert done.returncode == 0, done.stderr
