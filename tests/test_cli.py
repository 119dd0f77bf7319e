"""Command line behavior: selectors, formats, exit codes, stability."""

from __future__ import annotations

import json

import numpy as np
import pytest

from rootvol.cli import Outcome, _json, _render, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_nu_single_type_prints_bare_value(capsys):
    code, out, _ = run(capsys, "nu", "--type", "E7")
    assert code == 0
    assert out.strip() == "2431/9216"


def test_nu_sweep_and_product(capsys):
    code, out, _ = run(capsys, "nu", "--type", "B2..B4,A1xA1")
    assert code == 0
    assert out.splitlines() == ["B2 3/8", "B3 5/16", "B4 35/128", "A1xA1 1/4"]


def test_nu_json_is_byte_stable(capsys):
    code, first, _ = run(capsys, "nu", "--type", "G2,F4", "--format", "json")
    assert code == 0
    code, second, _ = run(capsys, "nu", "--type", "G2,F4", "--format", "json")
    assert first == second
    payload = json.loads(first)
    assert payload["command"] == "nu"
    assert payload["reports"][0] == {"type": "G2", "nu": "5/12"}


def test_identity_text_table(capsys):
    code, out, _ = run(capsys, "identity", "--type", "F4")
    assert code == 0
    for token in ("385", "180", "128", "144", "315", "total = 1", "PASS"):
        assert token in out


def test_identity_json_shape(capsys):
    code, out, _ = run(capsys, "identity", "--type", "G2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    report = payload["reports"][0]
    assert report["total"] == "1"
    assert [t["scaled"] for t in report["terms"]] == [5, 4, 3]


def test_identity_tsv(capsys):
    code, out, _ = run(capsys, "identity", "--type", "G2", "--format", "tsv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "type\tnode\tdecomposition\tnu\tscaled"
    assert lines[1] == "G2\t0\tG2\t5/12\t5"
    assert len(lines) == 4


def test_series_command(capsys):
    code, out, _ = run(capsys, "series", "--order", "12")
    assert code == 0
    assert out.count("PASS") == 6
    code, out, _ = run(capsys, "series", "--order", "10", "--part", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["reports"] == [
        {"part": 3, "n_min": 2, "n_max": 10, "direct_pass": True, "series_pass": True, "pass": True}
    ]


def test_solomon_command(capsys):
    code, out, _ = run(capsys, "solomon", "--type", "A2,B2")
    assert code == 0
    assert out.count("PASS") == 2


def test_solomon_custom_points(capsys):
    code, out, _ = run(capsys, "solomon", "--type", "A2", "--points", "2,1/2;0,-3")
    assert code == 0
    assert "q=2 t=1/2" in out


def test_steinberg_and_companion(capsys):
    code, out, _ = run(capsys, "steinberg", "--type", "A2,B2")
    assert code == 0
    assert "7 subsets" in out
    code, out, _ = run(capsys, "companion", "--type", "B2")
    assert code == 0
    assert "4 subsets" in out


def test_expansion_command(capsys):
    code, out, _ = run(capsys, "expansion", "--type", "A1", "--points", "1/2")
    assert code == 0
    assert "t=1/2  lhs=4/3  rhs=4/3" in out


def test_volume_command_deterministic(capsys):
    args = ("volume", "--type", "B2", "--samples", "20000", "--seed", "11", "--workers", "2")
    code, first, _ = run(capsys, *args)
    assert code == 0
    code, second, _ = run(capsys, *args)
    assert first == second
    assert "exact=3/8" in first


def test_volume_tsv_header(capsys):
    code, out, _ = run(
        capsys, "volume", "--type", "A1", "--samples", "1000", "--seed", "1", "--format", "tsv"
    )
    assert code == 0
    assert out.splitlines()[0].split("\t") == [
        "type", "samples", "seed", "workers", "estimate", "stderr", "exact", "z_score", "pass",
    ]


def test_partition_command(capsys):
    code, out, _ = run(capsys, "partition", "--type", "A2", "--samples", "2000", "--seed", "7")
    assert code == 0
    assert "failures=0" in out
    assert "PASS" in out


def test_usage_error_unknown_type(capsys):
    code, _, err = run(capsys, "nu", "--type", "Q9")
    assert code == 2
    assert "Q9" in err


@pytest.mark.parametrize("label", ["x", "A1x", "A1xxA2"])
def test_usage_error_empty_product_factor(capsys, label):
    code, out, err = run(capsys, "nu", "--type", label)
    assert code == 2
    assert out == ""
    assert err == f"error: cannot parse product label {label!r}: empty factor\n"


def test_usage_error_bad_sweep(capsys):
    code, _, err = run(capsys, "nu", "--type", "B4..A6")
    assert code == 2
    assert "family" in err


def test_usage_error_product_where_irreducible_needed(capsys):
    code, _, err = run(capsys, "identity", "--type", "A1xA1")
    assert code == 2
    assert "irreducible" in err


def test_usage_error_missing_subcommand(capsys):
    assert main([]) == 2


def test_cap_exceeded_exit_code(capsys):
    code, _, err = run(capsys, "solomon", "--type", "E6")
    assert code == 3
    assert "51840" in err


def test_cap_can_be_raised(capsys):
    code, out, _ = run(capsys, "steinberg", "--type", "A2", "--cap", "100")
    assert code == 0


def test_output_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "nu", "--type", "G2", "--format", "json", "--output", str(target)
    )
    assert code == 0
    assert target.read_text() == out


def test_report_all_runs_every_criterion(capsys):
    code, out, _ = run(capsys, "report-all", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert [c["criterion"] for c in payload["criteria"]] == list(range(1, 10))
    assert payload["pass"] is True
    assert all(c["pass"] for c in payload["criteria"])


@pytest.mark.parametrize(
    "reports",
    [[], [{"type": "A1"}], [{"type": "G2", "terms": [{"node": 0}, []], "nested": {}}, {"pass": False}]],
)
def test_json_rendered_per_report_is_the_text_of_one_dump(reports):
    outcome = Outcome(reports, text=str, tsv_header=(), tsv_rows=list, entry=dict, passed=bool)
    want = json.dumps({"command": "nu", "reports": reports, "pass": outcome.ok}, indent=2)
    assert _render("nu", outcome, "json") == want


@pytest.mark.parametrize(
    "value",
    [
        {},
        [],
        (),
        {"a": {}, "b": [], "c": [[], {}, ()]},
        [[[1, [2, {"deep": [3]}]]]],
        (1, ("two", (3.5,)), {"t": (None,)}),
        "plain",
        "non-ASCII: é ß ∑ 𝔼 — and quoting: \" \\ /",
        "controls: \x00 \x01 \x1f \x7f \b \f \n \r \t",
        {"ключ": "значение", "\u2028": "\ud800"},
        2**200,
        -(2**64),
        0,
        -0.0,
        0.1,
        1e300,
        -1.5e-300,
        float("nan"),
        float("inf"),
        float("-inf"),
        np.float64(1 / 3),
        np.float64("nan"),
        [np.float64(-0.0), np.float64("inf")],
        True,
        False,
        None,
        [True, False, None, 1, 1.0],
        {1: "int key", 2.5: "float key", True: "bool key", None: "none key", "s": 0},
        {"command": "identity", "reports": [{"type": "G2", "terms": [{"node": 0, "nu": "5/12"}]}], "pass": True},
    ],
)
def test_json_writer_matches_json_dumps_byte_for_byte(value):
    assert _json(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [{1, 2}, [b"bytes"], {"x": object()}, np.int64(3)])
def test_json_writer_refuses_what_json_dumps_refuses(value):
    with pytest.raises(TypeError):
        json.dumps(value, indent=2)
    with pytest.raises(TypeError, match="is not JSON serializable"):
        _json(value)
