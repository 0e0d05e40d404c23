"""Command-line behavior: output formats, exit codes, error objects."""

import argparse
import io
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import hodgespec
from hodgespec import cli
from hodgespec.cli import main
from hodgespec.isospec import BRANCH_ALPHA_FIRST, BRANCH_COINCIDENT
from hodgespec.lattice import BUDGET_ENV_VAR, standard_lattice
from hodgespec.multiset import Unit, WeightedSpectrum, repeated_union
from hodgespec.sphere import SphereOperator, dim_V, dim_W
from hodgespec.sphere import spectrum as sphere_spectrum
from hodgespec.torus import TorusOperator, f_spectrum, laplace0_spectrum


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def error_kind(err_text):
    payload = json.loads(err_text.strip().splitlines()[-1])
    assert set(payload) == {"error", "message"}
    return payload["error"]


def test_torus_spectrum_json(capsys):
    code, out, err = run(
        ["spectrum", "torus", "--zn", "2", "--p", "1",
         "--alpha", "1", "--beta", "2", "--cutoff", "2"],
        capsys,
    )
    assert code == 0
    assert err == ""
    assert json.loads(out) == {
        "unit": "four_pi_squared",
        "cutoff": "2",
        "entries": [["0", 2], ["1", 4], ["2", 8]],
    }


def test_torus_spectrum_csv(capsys):
    code, out, err = run(
        ["spectrum", "torus", "--zn", "2", "--p", "1",
         "--alpha", "1", "--beta", "2", "--cutoff", "2", "--format", "csv"],
        capsys,
    )
    assert code == 0
    assert out == (
        "eigenvalue_num,eigenvalue_den,unit,multiplicity\n"
        "0,1,four_pi_squared,2\n"
        "1,1,four_pi_squared,4\n"
        "2,1,four_pi_squared,8\n"
    )


def test_cutoff_zero_keeps_parallel_forms(capsys):
    code, out, _ = run(
        ["spectrum", "torus", "--zn", "3", "--p", "1",
         "--alpha", "1", "--beta", "1", "--cutoff", "0"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["entries"] == [["0", 3]]


def test_lattice_file_layouts_agree(tmp_path, capsys):
    row = tmp_path / "row.json"
    col = tmp_path / "col.json"
    row.write_text(json.dumps(
        {"n": 2, "basis": [["1", "1/2"], ["0", "1"]], "layout": "row-major"}
    ))
    col.write_text(json.dumps(
        {"n": 2, "basis": [["1", "0"], ["1/2", "1"]], "layout": "column-major"}
    ))
    code1, out1, _ = run(["enumerate", "--lattice", str(row), "--bound", "3"], capsys)
    code2, out2, _ = run(["enumerate", "--lattice", str(col), "--bound", "3"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def test_generic_mode_emits_parts(capsys):
    code, out, _ = run(
        ["spectrum", "torus", "--zn", "2", "--p", "1",
         "--alpha", "1", "--beta", "2", "--cutoff", "2", "--mode", "generic"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"alpha_part", "beta_part"}
    assert payload["alpha_part"]["entries"] == [["0", 1], ["1", 4], ["2", 4]]
    assert payload["beta_part"]["entries"] == [["0", 1], ["2", 4]]


def test_generic_csv_is_rejected(capsys):
    code, out, err = run(
        ["spectrum", "torus", "--zn", "2", "--p", "1", "--alpha", "1",
         "--beta", "2", "--cutoff", "2", "--mode", "generic", "--format", "csv"],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert error_kind(err) == "ParseError"


def test_sphere_spectrum_json(capsys):
    code, out, err = run(
        ["spectrum", "sphere", "--n", "3", "--p", "1",
         "--alpha", "1", "--beta", "1", "--r2", "1", "--cutoff", "4"],
        capsys,
    )
    assert code == 0
    assert err == ""
    assert json.loads(out) == {
        "unit": "plain",
        "cutoff": "4",
        "entries": [["3", 4], ["4", 6]],
    }


def test_boundary_degree_note_goes_to_stderr(capsys):
    code, out, err = run(
        ["spectrum", "sphere", "--n", "2", "--p", "0",
         "--alpha", "1", "--beta", "1", "--r2", "1", "--cutoff", "6"],
        capsys,
    )
    assert code == 0
    assert "note:" in err and "boundary degree" in err
    assert json.loads(out)["entries"] == [["0", 1], ["2", 3], ["6", 5]]


def test_isospec_symmetric_pair(capsys):
    code, out, _ = run(
        ["isospec",
         "--left-kind", "torus", "--left-zn", "2", "--left-p", "1",
         "--left-alpha", "1", "--left-beta", "2",
         "--right-kind", "torus", "--right-zn", "2", "--right-p", "1",
         "--right-alpha", "2", "--right-beta", "1",
         "--cutoff", "2"],
        capsys,
    )
    assert code == 0
    assert json.loads(out) == {"isospectral": True, "cutoff": "2"}


def test_isospec_reports_first_divergence(capsys):
    code, out, _ = run(
        ["isospec",
         "--left-kind", "sphere", "--left-n", "2", "--left-p", "1",
         "--left-alpha", "1", "--left-beta", "1", "--left-r2", "1",
         "--right-kind", "sphere", "--right-n", "2", "--right-p", "1",
         "--right-alpha", "1", "--right-beta", "1", "--right-r2", "4",
         "--cutoff", "4"],
        capsys,
    )
    assert code == 1
    assert json.loads(out) == {
        "isospectral": False,
        "cutoff": "4",
        "first_divergence": {
            "key": "1/2",
            "left_multiplicity": 0,
            "right_multiplicity": 6,
        },
    }


def test_isospec_mixed_kinds_fail_on_units(capsys):
    code, out, err = run(
        ["isospec",
         "--left-kind", "torus", "--left-zn", "2", "--left-p", "1",
         "--left-alpha", "1", "--left-beta", "1",
         "--right-kind", "sphere", "--right-n", "2", "--right-p", "1",
         "--right-alpha", "1", "--right-beta", "1", "--right-r2", "1",
         "--cutoff", "2"],
        capsys,
    )
    assert code == 3
    assert error_kind(err) == "UnitMismatch"


def test_isospec_rejects_misplaced_flags(capsys):
    code, _, err = run(
        ["isospec",
         "--left-kind", "torus", "--left-zn", "2", "--left-p", "1",
         "--left-alpha", "1", "--left-beta", "1", "--left-r2", "4",
         "--right-kind", "torus", "--right-zn", "2", "--right-p", "1",
         "--right-alpha", "1", "--right-beta", "1",
         "--cutoff", "2"],
        capsys,
    )
    assert code == 2
    assert error_kind(err) == "ParseError"
    code, _, err = run(
        ["isospec",
         "--left-kind", "sphere", "--left-p", "1",
         "--left-alpha", "1", "--left-beta", "1",
         "--right-kind", "torus", "--right-zn", "2", "--right-p", "1",
         "--right-alpha", "1", "--right-beta", "1",
         "--cutoff", "2"],
        capsys,
    )
    assert code == 2


WEIGHTS = ["--p", "1", "--alpha", "1", "--beta", "1"]
TORUS_SIDE = ["--right-kind", "torus", "--right-zn", "2", "--right-p", "1",
              "--right-alpha", "1", "--right-beta", "1", "--cutoff", "2"]


def left_side(kind, *flags):
    return ["isospec", "--left-kind", kind, "--left-p", "1", "--left-alpha", "1",
            "--left-beta", "1", *flags, *TORUS_SIDE]


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "sphere", *WEIGHTS, "--r2", "1", "--cutoff", "2"],
        ["spectrum", "sphere", "--n", "3", *WEIGHTS, "--cutoff", "2"],
        ["spectrum", "torus", "--zn", "2", *WEIGHTS, "--r2", "1", "--cutoff", "2"],
        ["spectrum", "sphere", "--n", "3", "--r2", "1", *WEIGHTS, "--zn", "2", "--cutoff", "2"],
        left_side("sphere", "--left-r2", "1"),
        left_side("sphere", "--left-n", "3"),
        left_side("torus", "--left-zn", "2", "--left-n", "3"),
        left_side("sphere", "--left-n", "3", "--left-r2", "1", "--left-lattice", "l.json"),
    ],
    ids=["sphere-without-n", "sphere-without-r2", "sphere-flag-on-torus", "torus-flag-on-sphere",
         "side-sphere-without-n", "side-sphere-without-r2", "side-sphere-flag-on-torus",
         "side-torus-flag-on-sphere"],
)
def test_misplaced_or_missing_operator_flags_exit_2(argv, capsys):
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    payload = json.loads(err)  # all of stderr is one object
    assert set(payload) == {"error", "message"} and payload["error"] == "ParseError"


def test_recover_base_set(tmp_path, capsys):
    m_file = tmp_path / "m.json"
    m_file.write_text(json.dumps({
        "unit": "four_pi_squared",
        "cutoff": "8",
        "entries": [["0", 2], ["1", 1], ["2", 1], ["4", 1], ["8", 1]],
    }))
    code, out, _ = run(
        ["recover", "base-set", "--spectrum", str(m_file),
         "--alpha", "1", "--beta", "2", "--copies-alpha", "1", "--copies-beta", "1"],
        capsys,
    )
    assert code == 0
    assert json.loads(out) == {
        "unit": "four_pi_squared",
        "cutoff": "4",
        "entries": [["0", 1], ["1", 1], ["4", 1]],
    }


def test_recover_base_set_of_4000_elements_is_linear(within, tmp_path, capsys):
    # keys k/3 with multiplicities 1-3; 2C and 3C share the keys 2j, so removals interleave
    base = WeightedSpectrum(
        Unit.PLAIN, 2000, tuple((F(k, 3), 1 + k % 3) for k in range(1, 6001))
    )
    m_spec = repeated_union(base.scale(2), 2, base.scale(3), 1)  # cutoff 4000
    m_file = tmp_path / "m.json"
    m_file.write_text(json.dumps(m_spec.to_json_dict()))
    argv = ["recover", "base-set", "--spectrum", str(m_file),
            "--alpha", "2", "--beta", "3", "--copies-alpha", "2", "--copies-beta", "1"]
    with within(2):
        code, out, _ = run(argv, capsys)
    assert code == 0
    recovered = base.truncate(F(4000, 3))  # complete up to 4000 / max(alpha, beta)
    assert len(recovered) == 4000
    assert json.loads(out) == recovered.to_json_dict()


@pytest.mark.parametrize(
    "copies, code, expected",
    [
        # 10^20 copies at key 1 from two equal sides: 5 * 10^19 copies of element 1,
        # counted by one division, not removed one per step.
        (10**20, 0, {"unit": "plain", "cutoff": "2", "entries": [["1", 5 * 10**19]]}),
        # One copy more does not divide: the second side finds one copy short.
        (10**20 + 1, 3, {
            "error": "NotInImage",
            "message": "removing 50000000000000000001 at key 1 but only 50000000000000000000 "
                       "present",
        }),
    ],
    ids=["divides", "remainder"],
)
def test_recover_base_set_counts_a_huge_multiplicity_at_once(
    within, tmp_path, capsys, copies, code, expected
):
    m_file = tmp_path / "m.json"
    m_file.write_text(json.dumps({"unit": "plain", "cutoff": "2", "entries": [["1", copies]]}))
    argv = ["recover", "base-set", "--spectrum", str(m_file),
            "--alpha", "1", "--beta", "1", "--copies-alpha", "1", "--copies-beta", "1"]
    with within(2):
        exit_code, out, err = run(argv, capsys)
    assert exit_code == code
    assert json.loads(err if code else out) == expected
    assert (out if code else err) == ""


def test_recover_torus_params(tmp_path, capsys):
    op = TorusOperator(standard_lattice(3), 1, F(3), F(5))
    m_file = tmp_path / "m.json"
    base_file = tmp_path / "base.json"
    m_file.write_text(json.dumps(f_spectrum(op, 10).to_json_dict()))
    base_file.write_text(json.dumps(laplace0_spectrum(standard_lattice(3), 4).to_json_dict()))
    code, out, _ = run(
        ["recover", "torus-params", "--spectrum", str(m_file),
         "--base", str(base_file), "--n", "3", "--p", "1"],
        capsys,
    )
    assert code == 0
    assert json.loads(out) == {
        "ordered": ["3", "5"],
        "branch_trace": [BRANCH_ALPHA_FIRST],
    }


def test_recover_sphere_params(tmp_path, capsys):
    op = SphereOperator(3, 1, F(4), F(3))
    m_file = tmp_path / "m.json"
    m_file.write_text(json.dumps(sphere_spectrum(op, 36).to_json_dict()))
    code, out, _ = run(
        ["recover", "sphere-params", "--spectrum", str(m_file),
         "--n", "3", "--p", "1", "--r2", "1"],
        capsys,
    )
    assert code == 0
    assert json.loads(out) == {
        "ordered": ["4", "3"],
        "branch_trace": [BRANCH_COINCIDENT],
    }


@pytest.mark.parametrize(
    "surface, unit, entries, message",
    [
        ("sphere", "plain", [["6", 30]], "leading multiplicity 30 matches none of 10, 10, 20"),
        ("torus", "four_pi_squared", [["0", 2], ["1", 3]],
         "leading multiplicity 3 matches none of 4, 4, 8"),
    ],
    ids=["sphere", "torus"],
)
def test_recover_params_half_dimension_refusal(tmp_path, capsys, surface, unit, entries, message):
    m_file, base_file = tmp_path / "m.json", tmp_path / "base.json"
    m_file.write_text(json.dumps({"unit": unit, "cutoff": "12", "entries": entries}))
    base_file.write_text(json.dumps(laplace0_spectrum(standard_lattice(2), 2).to_json_dict()))
    flags = {
        "sphere": ["--n", "4", "--p", "2", "--r2", "1"],
        "torus": ["--base", str(base_file), "--n", "2", "--p", "1"],
    }[surface]
    argv = ["recover", f"{surface}-params", "--spectrum", str(m_file), *flags]
    code, out, err = run(argv, capsys)
    assert (code, out) == (4, "")
    assert json.loads(err) == {"error": "BranchAmbiguous", "message": message}


def test_recover_radius(tmp_path, capsys):
    op = SphereOperator(3, 1, F(1), F(1), r_squared=F(4))
    m_file = tmp_path / "m.json"
    m_file.write_text(json.dumps(sphere_spectrum(op, 1).to_json_dict()))
    code, out, _ = run(
        ["recover", "radius", "--spectrum", str(m_file),
         "--alpha", "1", "--beta", "1", "--n", "3", "--p", "1"],
        capsys,
    )
    assert code == 0
    assert out == '"4"\n'


def test_recover_radius_empty_spectrum_is_a_domain_error(tmp_path, capsys):
    m_file = tmp_path / "m.json"
    m_file.write_text(json.dumps({"unit": "plain", "cutoff": "1", "entries": []}))
    code, _, err = run(
        ["recover", "radius", "--spectrum", str(m_file),
         "--alpha", "1", "--beta", "1", "--n", "3", "--p", "1"],
        capsys,
    )
    assert code == 3
    assert error_kind(err) == "EmptySpectrum"


def test_recover_tampered_spectrum_exits_4(tmp_path, capsys):
    op = TorusOperator(standard_lattice(3), 1, F(3), F(5))
    m = f_spectrum(op, 10)
    payload = m.to_json_dict()
    payload["entries"] = [
        [key, mult + 1 if key == "3" else mult] for key, mult in payload["entries"]
    ]
    m_file = tmp_path / "m.json"
    base_file = tmp_path / "base.json"
    m_file.write_text(json.dumps(payload))
    base_file.write_text(json.dumps(laplace0_spectrum(standard_lattice(3), 4).to_json_dict()))
    code, out, err = run(
        ["recover", "torus-params", "--spectrum", str(m_file),
         "--base", str(base_file), "--n", "3", "--p", "1"],
        capsys,
    )
    assert code == 4
    assert out == ""
    assert error_kind(err) == "BranchAmbiguous"


def test_recover_torus_surplus_zero_exits_4(tmp_path, capsys):
    m = f_spectrum(TorusOperator(standard_lattice(3), 1, F(3), F(5)), 10)
    payload = m.to_json_dict()
    payload["entries"][0] = ["0", 9]  # Z^3 has 3 parallel 1-forms, not 9
    m_file = tmp_path / "m.json"
    base_file = tmp_path / "base.json"
    m_file.write_text(json.dumps(payload))
    base_file.write_text(json.dumps(laplace0_spectrum(standard_lattice(3), 4).to_json_dict()))
    code, out, err = run(
        ["recover", "torus-params", "--spectrum", str(m_file),
         "--base", str(base_file), "--n", "3", "--p", "1"],
        capsys,
    )
    assert code == 4
    assert out == ""
    assert error_kind(err) == "BranchAmbiguous"


def test_recover_truncated_spectrum_exits_4(tmp_path, capsys):
    op = SphereOperator(3, 1, F(1), F(100))
    m_file = tmp_path / "m.json"
    m_file.write_text(json.dumps(sphere_spectrum(op, 10).to_json_dict()))
    code, _, err = run(
        ["recover", "sphere-params", "--spectrum", str(m_file),
         "--n", "3", "--p", "1", "--r2", "1"],
        capsys,
    )
    assert code == 4
    assert error_kind(err) == "CutoffTooSmall"


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "torus", "--zn", "2", "--alpha", "1", "--beta", "1"],
        ["spectrum", "torus", "--zn", "2", "--p", "1",
         "--alpha", "1.5", "--beta", "1", "--cutoff", "2"],
        ["spectrum", "torus", "--zn", "2", "--p", "1",
         "--alpha", "1", "--beta", "1", "--cutoff", "-1"],
        ["spectrum", "torus", "--p", "1", "--alpha", "1", "--beta", "1", "--cutoff", "2"],
        ["spectrum", "torus", "--zn", "0", "--p", "1",
         "--alpha", "1", "--beta", "1", "--cutoff", "2"],
        ["recover", "base-set", "--spectrum", "/nonexistent.json",
         "--alpha", "1", "--beta", "2", "--copies-alpha", "1", "--copies-beta", "1"],
        ["enumerate", "--bound", "2"],
        [],
    ],
)
def test_parse_errors_exit_2(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert error_kind(err) == "ParseError"


def test_both_lattice_sources_rejected(tmp_path, capsys):
    lattice_file = tmp_path / "l.json"
    lattice_file.write_text(json.dumps({"n": 1, "basis": [["1"]]}))
    code, _, err = run(
        ["enumerate", "--lattice", str(lattice_file), "--zn", "2", "--bound", "1"],
        capsys,
    )
    assert code == 2
    assert error_kind(err) == "ParseError"


def test_malformed_json_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(["enumerate", "--lattice", str(bad), "--bound", "1"], capsys)
    assert code == 2
    assert error_kind(err) == "ParseError"


@pytest.mark.parametrize(
    "command, payload",
    [
        (["enumerate", "--bound", "1", "--lattice"], {"n": 2, "basis": 5}),
        (["enumerate", "--bound", "1", "--lattice"], {"n": 2, "basis": [[1, 0], 5]}),
        (["enumerate", "--bound", "1", "--lattice"], [1, 2]),
        (
            ["recover", "base-set", "--alpha", "1", "--beta", "2",
             "--copies-alpha", "1", "--copies-beta", "1", "--spectrum"],
            {"unit": "plain", "cutoff": "1", "entries": 5},
        ),
    ],
    ids=["basis-not-a-list", "row-not-a-list", "lattice-not-an-object", "entries-not-a-list"],
)
def test_malformed_json_shapes_exit_2(command, payload, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(command + [str(path)], capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "ParseError"  # all of stderr is one object


@pytest.mark.parametrize("source", ["file", "stdin"])
@pytest.mark.parametrize(
    "payload", [b"\xff\xfe{}", b"[" * 100_000], ids=["not-utf8", "nested-too-deep"]
)
def test_undecodable_json_exits_2(payload, source, tmp_path, monkeypatch, capsys):
    path = tmp_path / "input.json"
    path.write_bytes(payload)
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(payload), encoding="utf-8"))
    where = str(path) if source == "file" else "-"
    code, out, err = run(["enumerate", "--bound", "1", "--lattice", where], capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "ParseError"  # all of stderr is one object


@pytest.mark.parametrize(
    "command, payload",
    [
        (["enumerate", "--bound", "1", "--lattice"], b'{"n": ' + b"7" * 5000 + b"}"),
        (["enumerate", "--bound", "1", "--lattice"], b'{"n": 1, "basis": [["' + b"9" * 5000 + b'"]]}'),
        (
            ["recover", "radius", "--alpha", "1", "--beta", "1", "--n", "3", "--p", "1",
             "--spectrum"],
            b'{"unit": "plain", "cutoff": "1", "entries": [["' + b"9" * 5000 + b'", 1]]}',
        ),
    ],
    ids=["json-integer", "lattice-entry", "spectrum-key"],
)
def test_numbers_past_the_digit_limit_exit_2(command, payload, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_bytes(payload)
    code, out, err = run(command + [str(path)], capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "ParseError"  # all of stderr is one object


def test_failed_run_prints_no_boundary_note(capsys):
    code, out, err = run(
        ["isospec", "--left-kind", "torus", "--left-zn", "1", "--left-p", "0",
         "--left-alpha", "1", "--left-beta", "1", "--right-kind", "torus", "--right-zn", "1",
         "--right-p", "2", "--right-alpha", "1", "--right-beta", "1", "--cutoff", "1"],
        capsys,
    )
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"] == "DegreeOutOfRange"  # all of stderr is one object


def test_recover_radius_rejects_impossible_leading_multiplicity(tmp_path, capsys):
    m_file = tmp_path / "m.json"
    m_file.write_text(json.dumps({"unit": "plain", "cutoff": "1", "entries": [["1", 2]]}))
    code, out, err = run(
        ["recover", "radius", "--spectrum", str(m_file),
         "--alpha", "1", "--beta", "1", "--n", "3", "--p", "1"],
        capsys,
    )
    assert code == 4
    assert out == ""
    assert error_kind(err) == "BranchAmbiguous"


def test_recover_radius_rejects_repeated_spectrum_key(tmp_path, capsys):
    # Summed, the two entries would be the true leading entry 3 x 4 of S^3 on 1-forms.
    m_file = tmp_path / "m.json"
    m_file.write_text(
        json.dumps({"unit": "plain", "cutoff": "3", "entries": [["3", 1], ["6/2", 3]]})
    )
    code, out, err = run(
        ["recover", "radius", "--spectrum", str(m_file),
         "--alpha", "1", "--beta", "1", "--n", "3", "--p", "1"],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "ParseError"  # all of stderr is one object


def test_deep_lattice_entry_gives_a_short_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text('{"n": 1, "basis": [[' + "[" * 900 + "]" * 900 + "]]}")
    code, out, err = run(["enumerate", "--lattice", str(path), "--bound", "1"], capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "ParseError"  # all of stderr is one object
    assert len(err) < 200


RECOVER_RADIUS = ["recover", "radius", "--alpha", "1", "--beta", "1", "--n", "3", "--p", "1",
                  "--spectrum"]


@pytest.mark.parametrize(
    "command, payload",
    [
        (RECOVER_RADIUS, {"unit": "plain", "cutoff": "1", "entries": {"x": list(range(300))}}),
        (RECOVER_RADIUS, {"unit": "plain", "cutoff": "1", "entries": [list(range(300))]}),
        (RECOVER_RADIUS, {"unit": "x" * 5000, "cutoff": "1", "entries": []}),
        (RECOVER_RADIUS, {"unit": list(range(2000)), "cutoff": "1", "entries": []}),
        (["enumerate", "--bound", "1", "--lattice"],
         {"n": 1, "basis": [["1"]], "layout": "x" * 5000}),
        (["enumerate", "--bound", "1", "--lattice"], {"n": list(range(300)), "basis": []}),
        (["enumerate", "--bound", "1", "--lattice"], {"n": 10**4000, "basis": [["1"]]}),
    ],
    ids=["spectrum-entries", "spectrum-entry", "spectrum-unit-text", "spectrum-unit-list",
         "lattice-layout", "lattice-dimension", "lattice-size"],
)
def test_huge_json_value_gives_a_short_error(command, payload, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(command + [str(path)], capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "ParseError"  # all of stderr is one object
    assert len(err) < 200


def run_under_digit_limit(argv, capsys, digits=640):
    """``run`` with Python's int-to-str digit limit lowered to ``digits``, then restored."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        return run(argv, capsys)
    finally:
        sys.set_int_max_str_digits(saved)


def test_output_past_the_digit_limit_is_exact(capsys):
    # S^(10^6), p = 1: the last term up to the cutoff is mu_150 = 151 * 1000150, and
    # its multiplicity has more digits than the lowered limit allows.
    top = dim_W(10**6, 1, 150)
    assert len(str(top)) > 640
    argv = ["spectrum", "sphere", "--n", "1000000", "--p", "1", "--alpha", "1", "--beta", "1",
            "--r2", "1", "--cutoff", "151022650"]
    code, out, err = run_under_digit_limit(argv, capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["entries"][-1] == ["151022650", top]
    code, out, err = run_under_digit_limit(argv + ["--format", "csv"], capsys)
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == f"151022650,1,plain,{top}"
    # lambda_1 = beta * 2 * 999999 passes the cutoff on the left and meets mu_150 on the right
    def side(name, beta):
        return [f"--{name}-kind", "sphere", f"--{name}-n", "1000000", f"--{name}-p", "1",
                f"--{name}-alpha", "1", f"--{name}-beta", beta, f"--{name}-r2", "1"]

    argv = ["isospec", *side("left", "100"), *side("right", "151022650/1999998"),
            "--cutoff", "151022650"]
    code, out, err = run_under_digit_limit(argv, capsys)
    assert (code, err) == (1, "")
    assert json.loads(out)["first_divergence"] == {
        "key": "151022650",
        "left_multiplicity": top,
        "right_multiplicity": top + dim_V(10**6, 1, 1),
    }


def test_output_without_a_digit_limit_setter(monkeypatch, capsys):
    # Python before 3.10.7 has no int-to-str digit limit and no setter for it
    argv = ["spectrum", "torus", "--zn", "2", "--p", "1", "--alpha", "1", "--beta", "2",
            "--cutoff", "2"]
    expected = run(argv, capsys)
    monkeypatch.delattr(sys, "set_int_max_str_digits")
    assert run(argv, capsys) == expected
    assert expected[0] == 0


def test_huge_box_cell_count_gives_a_short_error(capsys):
    # The box for Z^3 to bound 10^4000 has (2 * 10^2000 + 1)^3 cells: refused, and the
    # count is named by its digits.
    code, out, err = run(["enumerate", "--zn", "3", "--bound", "1" + "0" * 4000, "--box"], capsys)
    assert (code, out) == (3, "")
    assert json.loads(err) == {
        "error": "BoxTooLarge",
        "message": "brute-force box has a 6001-digit integer cells, budget is 5000000",
    }


def test_huge_removal_key_gives_a_short_error(tmp_path, capsys):
    # alpha / beta carries 2200-digit numerators and denominators, so the key
    # alpha * element that fails to be removed is past the 4300-digit limit.
    path = tmp_path / "spectrum.json"
    path.write_text(json.dumps({"unit": "plain", "cutoff": "10", "entries": [["1", 1]]}))
    alpha, beta = "3" * 2200 + "1/" + "7" * 2200 + "3", "2" * 2200 + "9/" + "9" * 2200 + "1"
    code, out, err = run(["recover", "base-set", "--spectrum", str(path), "--alpha", alpha,
                          "--beta", beta, "--copies-alpha", "1", "--copies-beta", "1"], capsys)
    assert (code, out) == (3, "")
    assert json.loads(err) == {
        "error": "NotInImage",
        "message": "removing 1 at key a fraction of a 4402-digit over a 4402-digit integer "
                   "but only 0 present",
    }


@pytest.mark.parametrize("n", ["300", "1000000000", "1" + "0" * 4000])
def test_huge_zn_is_refused_before_any_matrix(within, n, monkeypatch, capsys):
    monkeypatch.delenv(BUDGET_ENV_VAR, raising=False)
    with within(1):
        code, out, err = run(
            ["spectrum", "torus", "--zn", n, "--p", "1",
             "--alpha", "1", "--beta", "1", "--cutoff", "0"],
            capsys,
        )
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"] == "BudgetExceeded"  # all of stderr is one object
    assert len(err) < 200


def test_huge_torus_copy_counts_are_refused_before_they_are_computed(within, monkeypatch,
                                                                     capsys):
    # computing C(1999999, 999999) would take most of a minute
    monkeypatch.delenv(BUDGET_ENV_VAR, raising=False)
    inputs = Path(__file__).parent / "golden" / "inputs"
    with within(1):
        code, out, err = run(
            ["recover", "torus-params", "--spectrum", str(inputs / "torus-two.json"),
             "--base", str(inputs / "base-two.json"), "--n", "2000000", "--p", "1000000"],
            capsys,
        )
    assert code == 3
    assert out == ""
    assert json.loads(err) == {
        "error": "BudgetExceeded",
        "message": "binomial C(1999999, 999999) needs 999999 x 21 bits, budget is 5000000",
    }


LONG = "x" * 5000
TORUS_ARGV = ["spectrum", "torus", "--zn", "2", "--p", "1", "--alpha", "1", "--beta", "1"]


# argparse echoes a bad value and an OS error names its path: both stay short
@pytest.mark.parametrize(
    "argv",
    [
        TORUS_ARGV + ["--cutoff", "-" + "7" * 4000],
        ["spectrum", "torus", "--zn", "7" * 5000, "--p", "1", "--alpha", "1", "--beta", "1",
         "--cutoff", "1"],
        ["spectrum", "torus", "--zn", "2", "--p", LONG, "--alpha", "1", "--beta", "1",
         "--cutoff", "1"],
        TORUS_ARGV + ["--cutoff", "1", "--format", LONG],
        TORUS_ARGV + ["--cutoff", "1", "--" + LONG],
        ["recover", "radius", "--spectrum", LONG, "--alpha", "1", "--beta", "1", "--n", "3",
         "--p", "1"],
        ["enumerate", "--lattice", LONG, "--bound", "1"],
        TORUS_ARGV + ["--cutoff", "1", "--output", LONG],
        # a NUL byte in a path fails in the path layer, before any system call
        ["recover", "radius", "--spectrum", "a\0b", "--alpha", "1", "--beta", "1", "--n", "3",
         "--p", "1"],
        ["spectrum", "torus", "--lattice", "a\0b", "--p", "1", "--alpha", "1", "--beta", "1",
         "--cutoff", "1"],
        TORUS_ARGV + ["--cutoff", "1", "--output", "a\0b"],
    ],
    ids=["cutoff", "zn", "p", "format", "unknown-flag", "spectrum-path", "lattice-path",
         "output-path", "spectrum-nul", "lattice-nul", "output-nul"],
)
def test_long_negative_cutoff_is_echoed_short(argv, capsys):
    code, out, err = run(argv, capsys)
    assert (code, out, json.loads(err)["error"]) == (2, "", "ParseError")  # one object
    assert set(json.loads(err)) == {"error", "message"}
    assert len(err) < 200


def test_degree_out_of_range_exits_3(capsys):
    code, _, err = run(
        ["spectrum", "torus", "--zn", "2", "--p", "5",
         "--alpha", "1", "--beta", "1", "--cutoff", "2"],
        capsys,
    )
    assert code == 3
    assert error_kind(err) == "DegreeOutOfRange"


def test_byte_determinism(capsys):
    argv = ["spectrum", "sphere", "--n", "4", "--p", "2",
            "--alpha", "2/3", "--beta", "5", "--r2", "9/4", "--cutoff", "40"]
    _, first, _ = run(argv, capsys)
    _, second, _ = run(argv, capsys)
    assert first == second and first


def test_enumerate_layered_and_box_agree(capsys):
    code, out, _ = run(["enumerate", "--zn", "2", "--bound", "2"], capsys)
    assert code == 0
    assert json.loads(out) == {"bound": "2", "counts": [["0", 1], ["1", 4], ["2", 4]]}
    _, layered, _ = run(["enumerate", "--zn", "2", "--bound", "50"], capsys)
    _, boxed, _ = run(["enumerate", "--zn", "2", "--bound", "50", "--box"], capsys)
    assert layered == boxed


def test_output_file_keeps_stdout_clean(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, err = run(
        ["spectrum", "torus", "--zn", "2", "--p", "1",
         "--alpha", "1", "--beta", "2", "--cutoff", "2", "--output", str(target)],
        capsys,
    )
    assert code == 0
    assert out == "" and err == ""
    assert json.loads(target.read_text())["entries"] == [["0", 2], ["1", 4], ["2", 8]]


def test_help_exits_zero(capsys):
    code, out, _ = run(["--help"], capsys)
    assert code == 0
    assert "spectrum" in out and "isospec" in out


# Each leaf command's flags in order: (option, required, default, choices, type name).
LEAF_FLAGS = {
    "spectrum torus": [
        ("--lattice", False, None, None, None),
        ("--zn", False, None, None, "_positive_int"),
        ("--p", True, None, None, "_integer"),
        ("--alpha", True, None, None, "_rational"),
        ("--beta", True, None, None, "_rational"),
        ("--cutoff", True, None, None, "_nonnegative_rational"),
        ("--mode", False, "merged", ("merged", "generic"), None),
        ("--format", False, "json", ("json", "csv"), None),
        ("--output", False, None, None, None),
    ],
    "spectrum sphere": [
        ("--n", False, None, None, "_positive_int"),
        ("--r2", False, None, None, "_rational"),
        ("--p", True, None, None, "_integer"),
        ("--alpha", True, None, None, "_rational"),
        ("--beta", True, None, None, "_rational"),
        ("--cutoff", True, None, None, "_nonnegative_rational"),
        ("--mode", False, "merged", ("merged", "generic"), None),
        ("--format", False, "json", ("json", "csv"), None),
        ("--output", False, None, None, None),
    ],
    "isospec": [
        ("--left-kind", True, None, ("torus", "sphere"), None),
        ("--left-lattice", False, None, None, None),
        ("--left-zn", False, None, None, "_positive_int"),
        ("--left-n", False, None, None, "_positive_int"),
        ("--left-r2", False, None, None, "_rational"),
        ("--left-p", True, None, None, "_integer"),
        ("--left-alpha", True, None, None, "_rational"),
        ("--left-beta", True, None, None, "_rational"),
        ("--right-kind", True, None, ("torus", "sphere"), None),
        ("--right-lattice", False, None, None, None),
        ("--right-zn", False, None, None, "_positive_int"),
        ("--right-n", False, None, None, "_positive_int"),
        ("--right-r2", False, None, None, "_rational"),
        ("--right-p", True, None, None, "_integer"),
        ("--right-alpha", True, None, None, "_rational"),
        ("--right-beta", True, None, None, "_rational"),
        ("--cutoff", True, None, None, "_nonnegative_rational"),
        ("--output", False, None, None, None),
    ],
    "recover base-set": [
        ("--spectrum", True, None, None, None),
        ("--alpha", True, None, None, "_rational"),
        ("--beta", True, None, None, "_rational"),
        ("--copies-alpha", True, None, None, "_positive_int"),
        ("--copies-beta", True, None, None, "_positive_int"),
        ("--output", False, None, None, None),
    ],
    "recover torus-params": [
        ("--spectrum", True, None, None, None),
        ("--base", True, None, None, None),
        ("--n", True, None, None, "_positive_int"),
        ("--p", True, None, None, "_integer"),
        ("--output", False, None, None, None),
    ],
    "recover sphere-params": [
        ("--spectrum", True, None, None, None),
        ("--n", True, None, None, "_positive_int"),
        ("--p", True, None, None, "_integer"),
        ("--r2", True, None, None, "_rational"),
        ("--output", False, None, None, None),
    ],
    "recover radius": [
        ("--spectrum", True, None, None, None),
        ("--alpha", True, None, None, "_rational"),
        ("--beta", True, None, None, "_rational"),
        ("--n", True, None, None, "_positive_int"),
        ("--p", True, None, None, "_integer"),
        ("--output", False, None, None, None),
    ],
    "enumerate": [
        ("--lattice", False, None, None, None),
        ("--zn", False, None, None, "_positive_int"),
        ("--bound", True, None, None, "_nonnegative_rational"),
        ("--box", False, False, None, None),
        ("--output", False, None, None, None),
    ],
}


def leaf_parsers(parser, path=()):
    """(command words, parser) for every leaf command below ``parser``."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield " ".join(path), parser
        return
    for name, child in subs[0].choices.items():
        yield from leaf_parsers(child, (*path, name))


def leaf_options(parser):
    return [a for a in parser._actions if not isinstance(a, argparse._HelpAction)]


def test_each_leaf_command_keeps_its_flags(capsys):
    leaves = dict(leaf_parsers(cli._build_parser()))
    assert list(leaves) == list(LEAF_FLAGS)
    for leaf, parser in leaves.items():
        flags = [(*a.option_strings, a.required, a.default, a.choices,
                  getattr(a.type, "__name__", None)) for a in leaf_options(parser)]
        assert flags == LEAF_FLAGS[leaf], leaf
        code, out, _ = run([*leaf.split(), "--help"], capsys)
        assert (code, out.startswith(f"usage: hodgespec {leaf} ")) == (0, True), leaf


def test_every_option_is_one_declared_flag():
    used = set()
    for _, parser in leaf_parsers(cli._build_parser()):
        for action in leaf_options(parser):
            (option,) = action.option_strings
            name = option.removeprefix("--").removeprefix("left-").removeprefix("right-")
            assert name in cli._FLAGS, option
            used.add(name)
    assert used == set(cli._FLAGS)


SPHERE_S3 = ["spectrum", "sphere", "--n", "3", "--alpha", "1", "--beta", "1", "--r2", "1",
             "--cutoff", "4"]


def test_output_into_a_missing_directory_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "out.json"
    code, out, err = run([*SPHERE_S3, "--p", "1", "--output", str(target)], capsys)
    assert (code, out) == (2, "")
    payload = json.loads(err)  # all of stderr is one object
    assert set(payload) == {"error", "message"}
    assert payload["error"] == "ParseError"
    assert not target.parent.exists()


@pytest.mark.parametrize("p", ["1", "5"], ids=["spectrum", "refusal"])
def test_module_entry_point_matches_main(p, capsys):
    argv = [*SPHERE_S3, "--p", p]
    code, out, err = run(argv, capsys)
    src = str(Path(hodgespec.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-m", "hodgespec.cli", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=60,
    )
    assert (child.stdout, child.returncode, child.stderr) == (out, code, err)
    assert code == (0 if p == "1" else 3)


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # Every CLI call imports the package; the records are plain frozen classes,
    # so the call pays for neither module.  -S keeps the .pth start-up hooks of
    # installed packages out of the count.
    src = str(Path(hodgespec.__file__).parent.parent)
    script = "import sys, hodgespec.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    child = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert (child.returncode, child.stdout, child.stderr) == (0, "[]\n", "")


# Python's int() reads every Unicode decimal digit and "_" separators; a flag or
# a spectrum key takes ASCII digits only, so each of these is malformed input.
NON_ASCII_OR_SEPARATED = {
    "p-separator": [*SPHERE_S3[:2], "--n", "20", "--p", "1_0", *SPHERE_S3[4:]],
    "zn-fullwidth": ["enumerate", "--zn", "２", "--bound", "2"],
    "n-arabic-indic": [*SPHERE_S3[:2], "--n", "٣", "--p", "1", *SPHERE_S3[4:]],
    "p-fraction": [*SPHERE_S3, "--p", "1/2"],
    "copies-separator": ["recover", "base-set", "--spectrum",
                         str(Path(__file__).parent / "golden" / "inputs" / "base-set-m.json"),
                         "--alpha", "1", "--beta", "2", "--copies-alpha", "1_0",
                         "--copies-beta", "1"],
    "left-p-fullwidth": ["isospec", "--left-kind", "sphere", "--left-n", "3", "--left-p", "１",
                         "--left-alpha", "1", "--left-beta", "1", "--left-r2", "1",
                         "--right-kind", "sphere", "--right-n", "3", "--right-p", "1",
                         "--right-alpha", "1", "--right-beta", "1", "--right-r2", "1",
                         "--cutoff", "4"],
}


@pytest.mark.parametrize("argv", NON_ASCII_OR_SEPARATED.values(), ids=NON_ASCII_OR_SEPARATED.keys())
def test_integer_flags_take_ascii_digits_only(argv, capsys):
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "ParseError"  # all of stderr is one object


def test_integer_flags_still_read_signs_and_whole_fractions(capsys):
    assert run([*SPHERE_S3, "--p", "+1"], capsys) == run([*SPHERE_S3, "--p", "2/2"], capsys)
    assert run([*SPHERE_S3, "--p", "1"], capsys)[:2] == run([*SPHERE_S3, "--p", "+1"], capsys)[:2]


NOT_A_RATIONAL = "not a rational literal: 'x' (use 'a/b' or an integer string)"
BASE_SET = ["recover", "base-set", "--spectrum",
            str(Path(__file__).parent / "golden" / "inputs" / "base-set-m.json"),
            "--alpha", "1", "--beta", "2", "--copies-beta", "1"]
# Each bad flag value is refused by its flag's type, and the refusal names the flag.
BAD_FLAG_VALUES = {
    "alpha": ([*SPHERE_S3[:4], "--p", "1", "--alpha", "x", *SPHERE_S3[6:]],
              f"argument --alpha: {NOT_A_RATIONAL}"),
    "cutoff": ([*SPHERE_S3[:-2], "--p", "1", "--cutoff", "x"],
               f"argument --cutoff: {NOT_A_RATIONAL}"),
    "cutoff-negative": ([*SPHERE_S3[:-2], "--p", "1", "--cutoff=-1/2"],
                        "argument --cutoff: expected a nonnegative rational, got '-1/2'"),
    "p": ([*SPHERE_S3, "--p", "x"], f"argument --p: {NOT_A_RATIONAL}"),
    "p-fraction": ([*SPHERE_S3, "--p", "1/2"], "argument --p: expected an integer, got '1/2'"),
    "n": ([*SPHERE_S3[:2], "--n", "0", "--p", "1", *SPHERE_S3[4:]],
          "argument --n: expected a positive integer, got '0'"),
    "copies-alpha": ([*BASE_SET, "--copies-alpha", "0"],
                     "argument --copies-alpha: expected a positive integer, got '0'"),
}


@pytest.mark.parametrize("argv, message", BAD_FLAG_VALUES.values(), ids=BAD_FLAG_VALUES.keys())
def test_a_bad_flag_value_is_refused_by_name(argv, message, capsys):
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "ParseError", "message": message}


def test_spectrum_file_key_in_non_ascii_digits_exits_2(tmp_path, capsys):
    m_file = tmp_path / "m.json"
    m_file.write_text(json.dumps({"unit": "plain", "cutoff": "4", "entries": [["٣", 4]]}))
    code, out, err = run(["recover", "radius", "--spectrum", str(m_file),
                          "--alpha", "1", "--beta", "1", "--n", "3", "--p", "1"], capsys)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "ParseError"


def test_writing_huge_multiplicities_is_charged_before_any_output(within, monkeypatch, capsys):
    # S^(10^100), p = 1: up to 500 (10^100 + 600) the spectrum has 999 entries, whose
    # multiplicities reach 162339 bits; CPython's quadratic int-to-decimal conversion
    # took 14 s to write them.  Each is charged (bits >> 10)^2, 8348962 in all.
    monkeypatch.delenv(BUDGET_ENV_VAR, raising=False)
    n = 10**100
    argv = ["spectrum", "sphere", "--n", str(n), "--p", "1", "--alpha", "1", "--beta", "1",
            "--r2", "1", "--cutoff"]
    with within(2):
        code, out, err = run([*argv, str(500 * (n + 600))], capsys)
    assert (code, out) == (3, "")
    assert json.loads(err) == {
        "error": "BudgetExceeded",
        "message": "writing the multiplicities in decimal needs 8348962 work, budget is 5000000",
    }
    # 199 entries up to 100 (10^100 + 200) are charged 65994 and still written
    with within(2):
        code, out, err = run([*argv, str(100 * (n + 200)), "--format", "csv"], capsys)
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 1 + 199


def test_writing_wide_keys_is_charged_before_any_output(monkeypatch, capsys):
    # S^3, p = 1, alpha = beta = 10^1000: the 78 keys up to 1600 * 10^1000 have
    # numerators of 3322-3333 bits, each charged (bits >> 10)^2 = 9 before a digit is
    # written; their multiplicities are small, so the multiplicity charge reads 0.
    monkeypatch.setenv(BUDGET_ENV_VAR, "300")
    argv = ["spectrum", "sphere", "--n", "3", "--p", "1", "--r2", "1", "--format", "csv"]
    scale = 10**1000
    code, out, err = run([*argv, "--alpha", str(scale), "--beta", str(scale),
                          "--cutoff", str(1600 * scale)], capsys)
    assert (code, out) == (3, "")
    assert json.loads(err) == {
        "error": "BudgetExceeded",
        "message": "writing the keys in decimal needs 702 work, budget is 300",
    }
    # at 10^300 the same 78 keys stay under 1024 bits, are free, and are written
    scale = 10**300
    code, out, err = run([*argv, "--alpha", str(scale), "--beta", str(scale),
                          "--cutoff", str(1600 * scale)], capsys)
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 1 + 78


def test_enumerate_charges_writing_its_keys_before_any_output(tmp_path, monkeypatch, capsys):
    # The dual of the line 10^-2000 Z has norms k^2 10^4000: up to 2000^2 10^4000 the 2000
    # nonzero keys have 13288-13310 bits, each charged (bits >> 10)^2 = 144.  Unchecked,
    # the 4001-visit walk wrote 8 MB of digits.
    lattice = tmp_path / "line.json"
    lattice.write_text(json.dumps({"n": 1, "basis": [[f"1/{10**2000}"]]}))
    monkeypatch.setenv(BUDGET_ENV_VAR, "250000")
    for box in ([], ["--box"]):
        code, out, err = run(["enumerate", "--lattice", str(lattice), "--bound",
                              str(2000**2 * 10**4000), *box], capsys)
        assert (code, out) == (3, "")
        assert json.loads(err) == {
            "error": "BudgetExceeded",
            "message": "writing the keys in decimal needs 288000 work, budget is 250000",
        }


def test_recover_base_set_charges_writing_its_keys_before_any_output(tmp_path, monkeypatch,
                                                                     capsys):
    # Two copies of {k 10^2000 : k <= 1000} give back the base set, whose 1000 nonzero
    # keys have 6644-6654 bits, each charged (bits >> 10)^2 = 36.
    scale = 10**2000
    m_file = tmp_path / "m.json"
    entries = [[str(k * scale), 2] for k in range(1001)]
    m_file.write_text(json.dumps({"unit": "plain", "cutoff": str(1000 * scale),
                                  "entries": entries}))
    argv = ["recover", "base-set", "--spectrum", str(m_file), "--alpha", "1", "--beta", "1",
            "--copies-alpha", "1", "--copies-beta", "1"]
    monkeypatch.setenv(BUDGET_ENV_VAR, "35999")
    code, out, err = run(argv, capsys)
    assert (code, out) == (3, "")
    assert json.loads(err) == {
        "error": "BudgetExceeded",
        "message": "writing the keys in decimal needs 36000 work, budget is 35999",
    }
    monkeypatch.setenv(BUDGET_ENV_VAR, "36000")
    code, out, err = run(argv, capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["entries"] == [[str(k * scale), 1] for k in range(1001)]


def test_spectrum_file_over_many_denominators_is_refused_before_it_is_held(within, tmp_path,
                                                                           monkeypatch, capsys):
    # Keys 1/p over the first 6000 primes: each key would be held as an int over
    # their 85393-bit product, 64 MB in all for a 90 kB file.
    monkeypatch.delenv(BUDGET_ENV_VAR, raising=False)
    composite = [False] * 60000
    for p in range(2, 245):
        composite[p * p::p] = [True] * len(range(p * p, 60000, p))
    primes = [p for p in range(2, 60000) if not composite[p]][:6000]
    m_file = tmp_path / "m.json"
    entries = [[f"1/{p}", 1] for p in reversed(primes)]
    m_file.write_text(json.dumps({"unit": "plain", "cutoff": "1", "entries": entries}))
    with within(2):
        code, out, err = run(["recover", "radius", "--spectrum", str(m_file), "--alpha", "1",
                              "--beta", "1", "--n", "3", "--p", "1"], capsys)
    assert (code, out) == (3, "")
    assert json.loads(err) == {
        "error": "BudgetExceeded",
        "message": "6000 keys over a 85393-bit common denominator, budget is 5000000",
    }
