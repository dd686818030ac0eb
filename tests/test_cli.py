"""End-to-end tests of the command-line interface."""

import hashlib
import json
import sys
import warnings

import numpy as np
import pytest

from symfact import cli, factor, oracle
from symfact.cli import (
    EXIT_INPUT_ERROR,
    EXIT_NUMERIC_FAILURE,
    EXIT_PASS,
    ParseError,
    format_matrix,
    main,
    parse_matrix,
)


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_parse_matrix_examples():
    assert np.allclose(parse_matrix("2 2\n0 1\n1 0\n"), [[0, 1], [1, 0]])
    assert np.allclose(parse_matrix("1 1\n-4,0\n"), [[-4]])
    got = parse_matrix("2 2\n1 0,1\n0,1 -1\n")
    assert np.allclose(got, [[1, 1j], [1j, -1]])


def test_parse_matrix_comments_and_scientific():
    text = "# a comment\n2 2 # trailing\n1e0 2.5e-1\n0.25 -1E+0\n"
    assert np.allclose(parse_matrix(text), [[1, 0.25], [0.25, -1]])


def test_parse_matrix_errors_carry_location():
    with pytest.raises(ParseError) as err:
        parse_matrix("")
    assert err.value.line == 1

    with pytest.raises(ParseError) as err:
        parse_matrix("2 2\n1 2\n3\n")
    assert err.value.line == 3

    with pytest.raises(ParseError) as err:
        parse_matrix("1 2\n1 2,x\n")
    assert err.value.line == 2 and err.value.column == 3

    with pytest.raises(ParseError):
        parse_matrix("2 2\n1 2\n")  # missing a row


def test_format_matrix_roundtrip():
    rng = np.random.default_rng(61)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    back = parse_matrix(format_matrix(m))
    assert np.array_equal(back, m)  # 17 significant digits round-trip float64


def test_factor_command_pass(tmp_path, capsys):
    path = _write(tmp_path, "c.mat", "2 2\n0 1\n1 0\n")
    code = main(["factor", path])
    out = capsys.readouterr().out
    assert code == EXIT_PASS
    report = json.loads(out)
    assert report["command"] == "factor"
    assert report["status"] == "pass"
    assert report["result"]["relative_residual"] <= 1e-10
    assert report["result"]["trace"][0]["branch"] in ("CaseI", "CaseII_Degenerate")
    assert len(report["input_sha256"]) == 64


def test_factor_command_identity(tmp_path, capsys):
    path = _write(tmp_path, "i.mat", "2 2\n1 0\n0 1\n")
    code = main(["factor", path])
    assert code == EXIT_PASS
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["residual"] <= 1e-12


def test_factor_command_rejects_non_symmetric(tmp_path, capsys):
    path = _write(tmp_path, "bad.mat", "2 2\n0 1\n0 0\n")
    code = main(["factor", path])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_INPUT_ERROR
    assert report["status"] == "error"
    assert "NotSymmetric" in report["result"]["error"]


def test_iso_tol_of_one_is_an_input_error(tmp_path, capsys):
    path = _write(tmp_path, "c.mat", "1 1\n4\n")
    assert main(["factor", path, "--iso-tol", "1"]) == EXIT_INPUT_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("symfact: iso_tol must be below 0.003")
    assert main(["factor", path, "--iso-tol", "0.5"]) == EXIT_INPUT_ERROR
    assert main(["factor", path, "--iso-tol", "1e-3"]) == EXIT_PASS


def test_iso_tol_below_the_isotropic_floor_is_an_input_error(tmp_path, capsys):
    path = _write(tmp_path, "c.mat", "1 1\n4\n")
    assert main(["factor", path, "--iso-tol", "1e-13"]) == EXIT_INPUT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("symfact: iso_tol must be below 0.003 and at least 1e-12")
    assert "[1e-12, 0.003)" in captured.err
    assert main(["factor", path, "--iso-tol", "1e-12"]) == EXIT_PASS


def test_factor_singular_assembly_is_a_numeric_failure(tmp_path, capsys, monkeypatch):
    # the first level is a bordered transform D, whose condition is checked
    # (a reflector level is exact and has none); with the unit roundoff
    # raised to 1, every D is singular to working precision
    c = oracle.gen(oracle.GeneratorSpec(dim=6, seed=463, kind="IsotropicLambdaNonzero"))
    assert factor.factor_symmetric(c).trace.branches()[0] == factor.BRANCH_CASE_II_GENERAL
    monkeypatch.setattr(factor, "_EPS", 1.0)
    path = tmp_path / "c.mat"
    path.write_text(format_matrix(c), encoding="utf-8")
    code = main(["factor", str(path)])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_NUMERIC_FAILURE
    assert report["status"] == "error"
    assert report["result"]["error"] == "SingularMatrixError"


def test_factor_reports_are_byte_identical(tmp_path, capsys):
    path = _write(tmp_path, "c.mat", "3 3\n1 0,5 0\n0,5 2 1\n0 1 -1\n")
    main(["factor", path, "--seed", "7"])
    first = capsys.readouterr().out
    main(["factor", path, "--seed", "7"])
    second = capsys.readouterr().out
    assert first == second
    main(["factor", path, "--seed", "8"])  # config echo must differ
    third = capsys.readouterr().out
    assert json.loads(third)["config"]["seed"] == 8


def test_factor_verify_roundtrip(tmp_path, capsys):
    path = _write(tmp_path, "c.mat", "2 2\n1 2\n2 -1\n")
    out_v = str(tmp_path / "v.mat")
    code = main(["factor", path, "--out-v", out_v])
    capsys.readouterr()
    assert code == EXIT_PASS
    code = main(["verify", path, out_v])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_PASS
    assert report["result"]["pass"] is True


def test_verify_command_mismatch(tmp_path, capsys):
    path_c = _write(tmp_path, "c.mat", "2 2\n0 1\n1 0\n")
    path_v = _write(tmp_path, "v.mat", "2 2\n1 0\n0 1\n")
    code = main(["verify", path_c, path_v])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_NUMERIC_FAILURE
    assert report["status"] == "fail"
    assert report["result"]["residual"] == pytest.approx(2.0)


def test_verify_command_shape_error(tmp_path, capsys):
    path_c = _write(tmp_path, "c.mat", "2 2\n0 1\n1 0\n")
    path_v = _write(tmp_path, "v.mat", "1 2\n1 0\n")
    code = main(["verify", path_c, path_v])
    assert code == EXIT_INPUT_ERROR


def test_analyze_real_diagonal(tmp_path, capsys):
    path = _write(tmp_path, "h.mat", "3 3\n1 0 0\n0 2 0\n0 0 3\n")
    code = main(["analyze", path])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_PASS
    result = report["result"]
    assert result["diagonalizable"] is True
    assert result["pairing"]["paired"] is True
    assert result["pairing"]["map"] == [0, 1, 2]
    n = np.array([[complex(re, im) for re, im in row] for row in result["symmetry"]["N"]])
    assert np.allclose(n, np.eye(3), atol=1e-10)


def test_analyze_conjugate_pair(tmp_path, capsys):
    path = _write(tmp_path, "h.mat", "2 2\n0,1 0\n0 0,-1\n")
    code = main(["analyze", path])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_PASS
    assert report["result"]["pairing"]["paired"] is True
    assert report["result"]["symmetry"]["commutation_residual"] <= 1e-8


def test_analyze_unpairable(tmp_path, capsys):
    path = _write(tmp_path, "h.mat", "2 2\n0,1 0\n0 2\n")
    code = main(["analyze", path])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_PASS
    assert report["result"]["pairing"]["paired"] is False
    assert report["result"]["pairing"]["unpairable"] == [[0.0, 1.0]]


def test_analyze_jordan_block(tmp_path, capsys):
    path = _write(tmp_path, "h.mat", "2 2\n0 1\n0 0\n")
    code = main(["analyze", path])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_PASS
    assert report["result"]["diagonalizable"] is False
    assert "pairing" not in report["result"]


def test_canonical_real_diagonal(tmp_path, capsys):
    path = _write(tmp_path, "h.mat", "2 2\n1 0\n0 2\n")
    code = main(["canonical", path])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_PASS
    m = np.array([[complex(re, im) for re, im in row] for row in report["result"]["M"]])
    assert np.allclose(m, np.eye(2), atol=1e-12)
    assert report["result"]["pseudo_hermiticity_residual"] <= 1e-12
    assert report["result"]["hermiticity_residual"] <= 1e-12


def test_canonical_selfadjoint_flag(tmp_path, capsys):
    path = _write(tmp_path, "h.mat", "2 2\n2 0,1\n0,-1 2\n")
    code = main(["canonical", path, "--selfadjoint"])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_PASS
    assert report["result"]["involution_residual"] <= 1e-9


def test_canonical_defective_fails(tmp_path, capsys):
    path = _write(tmp_path, "h.mat", "2 2\n0 1\n0 0\n")
    code = main(["canonical", path])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_INPUT_ERROR
    assert "Defective" in report["result"]["error"]


def test_canonical_selfadjoint_rejects_non_hermitian(tmp_path, capsys):
    path = _write(tmp_path, "h.mat", "2 2\n0 1\n2 0\n")
    code = main(["canonical", path, "--selfadjoint"])
    assert code == EXIT_INPUT_ERROR
    capsys.readouterr()


def test_canonical_selfadjoint_rejects_a_non_hermitian_h_whose_norm_overflows(tmp_path, capsys):
    # |H - H^dagger|_F and |H|_F both overflow here; the diagonal entry is not real
    path = _write(tmp_path, "h.mat", "1 1\n1e308,1e308\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["canonical", "--selfadjoint", path])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_INPUT_ERROR
    assert report["status"] == "error"
    assert report["result"]["message"] == "H is not self-adjoint within tolerance"


@pytest.mark.parametrize("k", [-500, -270, 270, 510])
def test_canonical_selfadjoint_reports_the_same_at_any_scale(tmp_path, capsys, k):
    # at 4^k H, outside the norm band, the report equals the one at H: the checks take H prescaled,
    # where an unscaled |H|_F read a nan residual near 1e308 and 0 near 1e-200
    h = np.array([[1, 1 + 1j], [1 - 1j, -1]])
    results = []
    for scale in (1.0, 4.0**k):
        path = _write(tmp_path, "h.mat", cli.format_matrix(scale * h))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["canonical", "--selfadjoint", path]) == EXIT_PASS
        results.append(json.loads(capsys.readouterr().out)["result"])
    assert results[1] == results[0]
    assert 0.0 < results[0]["pseudo_hermiticity_residual"] <= 1e-15


def test_batch_mode_order_and_exit_code(tmp_path, capsys):
    good = _write(tmp_path, "good.mat", "2 2\n1 0\n0 1\n")
    bad = _write(tmp_path, "bad.mat", "2 2\n0 1\n0 0\n")
    code = main(["factor", good, bad, good])
    reports = json.loads(capsys.readouterr().out)
    assert code == EXIT_INPUT_ERROR
    assert [r["status"] for r in reports] == ["pass", "error", "pass"]


def test_out_v_requires_single_input(tmp_path, capsys):
    good = _write(tmp_path, "good.mat", "1 1\n4\n")
    code = main(["factor", good, good, "--out-v", str(tmp_path / "v.mat")])
    assert code == EXIT_INPUT_ERROR


def test_unwritable_out_v_is_an_error_report(tmp_path, capsys):
    good = _write(tmp_path, "good.mat", "1 1\n4\n")
    code = main(["factor", good, "--out-v", str(tmp_path / "nodir" / "v.mat")])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_INPUT_ERROR
    assert report["status"] == "error"
    assert report["result"]["error"] == "FileNotFoundError"
    assert len(report["input_sha256"]) == 64


def _unreadable_input(tmp_path, case):
    """(path, digest or None, error name) of an input file that cannot be read or decoded."""
    if case == "missing":
        return str(tmp_path / "missing.mat"), None, "FileNotFoundError"
    if case == "directory":
        return str(tmp_path), None, "IsADirectoryError"
    data = b"# caf\xe9\n1 1\n4\n"  # Latin-1, not UTF-8
    (tmp_path / "latin1.mat").write_bytes(data)
    return str(tmp_path / "latin1.mat"), hashlib.sha256(data).hexdigest(), "ParseError"


@pytest.mark.parametrize("case", ["missing", "directory", "not-utf8"])
@pytest.mark.parametrize("command", ["factor", "verify", "analyze", "canonical"])
def test_unreadable_input_is_an_error_report(tmp_path, capsys, command, case):
    path, digest, error = _unreadable_input(tmp_path, case)
    good = _write(tmp_path, "good.mat", "1 1\n4\n")
    code = main([command, good, path] if command == "verify" else [command, path])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_INPUT_ERROR
    assert report["status"] == "error"
    assert report["result"]["error"] == error
    if command == "verify":
        assert report["input_sha256"]["V"] == digest
        assert len(report["input_sha256"]["C"]) == 64
    else:
        assert report["input_sha256"] == digest
    if case == "not-utf8":
        # the bad byte's line and column, counted in bytes
        assert report["result"]["message"].startswith(f"{path}:1:6: not UTF-8 text")


def test_a_file_parse_error_names_its_location_once(tmp_path, capsys):
    path = _write(tmp_path, "c.mat", "2 2\n1 2\n3\n")
    assert main(["factor", path]) == EXIT_INPUT_ERROR
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["message"] == f"{path}:3:1: expected 2 entries in row, found 1"


def test_text_format(tmp_path, capsys):
    path = _write(tmp_path, "c.mat", "1 1\n4\n")
    code = main(["factor", path, "--format", "text"])
    out = capsys.readouterr().out
    assert code == EXIT_PASS
    assert "status: pass" in out
    assert "branches: Base" in out


def test_seed_environment_default(tmp_path, capsys, monkeypatch):
    path = _write(tmp_path, "c.mat", "1 1\n4\n")
    monkeypatch.setenv("SYMFACT_SEED", "123")
    main(["factor", path])
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["seed"] == 123


def test_seed_environment_not_an_integer(tmp_path, capsys, monkeypatch):
    path = _write(tmp_path, "c.mat", "1 1\n4\n")
    monkeypatch.setenv("SYMFACT_SEED", "abc")
    code = main(["factor", path])
    captured = capsys.readouterr()
    assert code == EXIT_INPUT_ERROR
    assert captured.out == ""
    assert captured.err == "symfact: SYMFACT_SEED must be an integer, got 'abc'\n"


def test_main_reads_sys_argv(tmp_path, capsys, monkeypatch):
    path = _write(tmp_path, "c.mat", "1 1\n4\n")
    monkeypatch.setattr(sys, "argv", ["symfact", "factor", path, "--format", "text"])
    assert main() == EXIT_PASS
    assert "branches: Base" in capsys.readouterr().out


# ---------------------------------------------------------------- the parser of one command

def _exit_output(capsys, parse) -> tuple:
    """(exit code, stdout, stderr) of an argparse call that exits."""
    with pytest.raises(SystemExit) as exc:
        parse()
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


def _assert_help_matches_the_full_parser(capsys, argv):
    full = _exit_output(capsys, lambda: cli._build_parser().parse_args(argv))
    assert full[0] == 0 and f"usage: symfact {argv[0]}" in full[1]
    assert _exit_output(capsys, lambda: main(argv)) == full


@pytest.mark.parametrize("command", ["factor", "verify", "analyze", "canonical"])
def test_command_help_matches_the_full_parser(capsys, command):
    _assert_help_matches_the_full_parser(capsys, [command, "--help"])


@pytest.mark.parametrize("columns", ["40", "200"])
@pytest.mark.parametrize("argv", [
    ["factor", "--help"], ["verify", "--help"], ["analyze", "--help"], ["canonical", "--help"],
    ["verify", "-h"], ["canonical", "-h", "--selfadjoint"], ["factor", "--he", "c.mat"],
])
def test_command_help_matches_the_full_parser_at_any_width(capsys, monkeypatch, argv, columns):
    monkeypatch.setenv("COLUMNS", columns)
    _assert_help_matches_the_full_parser(capsys, argv)


@pytest.mark.parametrize("argv", [["--help"], ["-h"]])
def test_top_level_help_lists_every_command(capsys, argv):
    code, out, _ = _exit_output(capsys, lambda: main(argv))
    assert code == 0
    assert "{factor,verify,analyze,canonical}" in out
    for command in ("factor", "verify", "analyze", "canonical"):
        assert f"    {command} " in out


_USAGE_ERRORS = [
    ["frobnicate", "c.mat"], [], ["--seed", "1", "factor"],
    # left over by the command's own parser
    ["factor", "c.mat", "--bogus"], ["factor", "-x", "c.mat"], ["verify", "c.mat", "v.mat", "extra.mat"],
    ["canonical", "--selfadjoint", "--oracle", "c.mat"],
    # rejected by it
    ["factor", "--tol", "abc", "c.mat"], ["factor", "--seed", "1.5", "c.mat"], ["factor", "--format", "xml", "c.mat"],
    ["factor", "--o", "c.mat"], ["factor", "c.mat", "--tol"], ["verify", "c.mat"],
]


def _assert_usage_error_matches_the_full_parser(capsys, argv):
    full = _exit_output(capsys, lambda: cli._build_parser().parse_args(argv))
    assert full[0] == 2 and full[2].startswith("usage: symfact ")
    assert _exit_output(capsys, lambda: main(argv)) == (EXIT_INPUT_ERROR, full[1], full[2])


@pytest.mark.parametrize("argv", _USAGE_ERRORS)
def test_usage_errors_match_the_full_parser(capsys, argv):
    _assert_usage_error_matches_the_full_parser(capsys, argv)


@pytest.mark.parametrize("argv", _USAGE_ERRORS + [
    # -h where the full parser makes it an error
    ["factor", "c.mat", "-hx"], ["factor", "--tol", "-h", "c.mat"], ["factor", "c.mat", "--out-v"],
])
@pytest.mark.parametrize("columns", ["40", "200"])
def test_usage_errors_match_the_full_parser_at_any_width(capsys, monkeypatch, columns, argv):
    monkeypatch.setenv("COLUMNS", columns)
    _assert_usage_error_matches_the_full_parser(capsys, argv)


@pytest.mark.parametrize("argv", [
    ["factor", "--tol=1e-9", "--iso-tol", "1e-8", "c.mat"], ["factor", "--format=text", "c.mat"],
    ["factor", "--", "c.mat"], ["factor", "--iso", "1e-7", "c.mat"],
])
def test_accepted_argv_parse_as_with_the_full_parser(argv):
    args = cli._parse_args(argv)
    assert args.command == "factor"
    assert args == cli._build_parser().parse_args(argv)


def test_a_well_formed_call_builds_only_its_command_parser(tmp_path, capsys, monkeypatch):
    path = _write(tmp_path, "c.mat", "1 1\n4\n")
    calls = []
    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda: calls.append(1) or build())
    assert main(["factor", path, "--format", "text"]) == EXIT_PASS
    assert calls == []
    assert _exit_output(capsys, lambda: main(["factor", path, "--bogus"]))[0] == EXIT_INPUT_ERROR
    assert calls == [1]


def test_tolerance_flags_are_echoed(tmp_path, capsys):
    path = _write(tmp_path, "c.mat", "1 1\n4\n")
    main(["factor", path, "--tol", "1e-6", "--iso-tol", "1e-7"])
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["verify_tol"] == 1e-6
    assert report["config"]["iso_tol"] == 1e-7
    assert "det_tol" not in report["config"]


def test_oracle_flag(tmp_path, capsys):
    path = _write(tmp_path, "c.mat", "2 2\n2 1\n1 2\n")
    main(["factor", path, "--oracle"])
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["oracle"]["breakdown"] is False
    assert report["result"]["oracle"]["agreement"] is True

    anti = _write(tmp_path, "anti.mat", "2 2\n0 1\n1 0\n")
    main(["factor", anti, "--oracle"])
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["oracle"]["breakdown"] is True


# ---------------------------------------------------------------- text and JSON I/O, byte for byte

def _reference_float(x: float) -> str:
    """One float as the report writes it, entry by entry: 17 significant
    digits, non-finite values as quoted strings."""
    if x != x or x in (float("inf"), float("-inf")):
        return json.dumps(str(x))
    return f"{x:.17g}"


def _reference_json(obj) -> str:
    """Per-entry deterministic JSON renderer (sorted keys, 17-digit floats)."""
    if isinstance(obj, dict):
        return "{" + ",".join(f"{json.dumps(str(k))}:{_reference_json(v)}" for k, v in sorted(obj.items())) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_reference_json(v) for v in obj) + "]"
    if isinstance(obj, float):
        return _reference_float(obj)
    return json.dumps(obj)


def _reference_pairs(mat) -> list:
    return [[[complex(z).real, complex(z).imag] for z in row] for row in np.atleast_2d(mat)]


def _reference_matrix_text(mat) -> str:
    """Per-entry writer of the matrix text format."""
    lines = [f"{mat.shape[0]} {mat.shape[1]}"]
    for row in mat:
        lines.append(" ".join(f"{z.real:.17g},{z.imag:.17g}" for z in row))
    return "\n".join(lines) + "\n"


_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1.7976931348623157e308,
            0.1, 1.0 / 3.0, -1e22, 1e16, 1e17, 123456789.125, float("inf"), float("-inf"), float("nan")]


def _io_matrices():
    rng = np.random.default_rng(71)
    yield rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))
    yield np.exp(rng.uniform(-700, 700, (6, 6))) * rng.choice([-1.0, 1.0], (6, 6)) + 0j
    # raw bit patterns: normals, subnormals, infinities and NaNs of any sign
    yield rng.integers(0, 2**64, size=(8, 16), dtype=np.uint64).view(np.complex128)
    special = np.zeros((len(_SPECIAL), len(_SPECIAL)), dtype=np.complex128)
    special.real = np.array(_SPECIAL)[:, None]
    special.imag = np.array(_SPECIAL)[None, ::-1]
    yield special
    yield np.array([[1.5]])


def test_format_matrix_matches_per_entry_reference():
    for mat in _io_matrices():
        assert format_matrix(mat) == _reference_matrix_text(mat)


def test_report_matrices_match_per_entry_reference():
    for mat in _io_matrices():
        scalars = {"x": [1.0, None], "n": [0, 16, -3, 2**70], "flags": [True, False], "s": "a\"é"}
        got = cli._dump_json({"M": cli._cmatrix(mat), **scalars})
        assert got == _reference_json({"M": _reference_pairs(mat), **scalars})
    assert cli._dump_json(cli._cmatrix(np.array([[np.nan, -np.inf + 1j]]))) == \
        '[[["nan",0],["-inf",1]]]'


def test_factor_report_matches_per_entry_reference(tmp_path, capsys):
    c = oracle.gen(oracle.GeneratorSpec(dim=7, seed=5, kind="DenseSymmetric"))
    path = tmp_path / "c.mat"
    path.write_text(_reference_matrix_text(c), encoding="utf-8")
    assert main(["factor", str(path), "--oracle"]) == EXIT_PASS
    out = capsys.readouterr().out
    v = factor.factor_symmetric(parse_matrix(path.read_text(encoding="utf-8"))).V
    assert '"V":' + _reference_json(_reference_pairs(v)) + "," in out
    # 17 significant digits round-trip, so re-rendering the parsed report
    # entry by entry must reproduce it exactly
    assert out == _reference_json(json.loads(out)) + "\n"


def _reference_parse(text: str) -> np.ndarray:
    """Per-entry parse of well-formed matrix text."""
    lines = [ln.split("#", 1)[0].split() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    out = []
    for toks in lines[1:]:
        row = []
        for tok in toks:
            parts = tok.split(",")
            row.append(complex(float(parts[0]), float(parts[1]) if len(parts) == 2 else 0.0))
        out.append(row)
    return np.array(out, dtype=np.complex128)


def test_parse_matrix_matches_per_entry_reference():
    for mat in _io_matrices():
        text = format_matrix(mat)
        got, ref = parse_matrix(text), _reference_parse(text)
        assert got.dtype == np.complex128 and got.shape == mat.shape
        # bit for bit, including the sign of zero and NaN payloads
        assert got.view(np.uint64).tobytes() == ref.view(np.uint64).tobytes()
    text = "# mixed tokens\n2 3\n1 -0 2.5e-3,-1\n-inf,nan 0,-0.0 7 # tail\n"
    assert parse_matrix(text).tobytes() == _reference_parse(text).tobytes()


@pytest.mark.parametrize(
    "row, column, message",
    [
        ("1,2,3", 1, "bad token '1,2,3'"),
        ("2 1,2,3", 3, "bad token '1,2,3'"),
        ("1, 2", 1, "bad token '1,'"),
        ("2 ,1", 3, "bad token ',1'"),
        ("1 x", 3, "bad token 'x'"),
        ("1 2 x", 5, "bad token 'x'"),  # a bad token is reported before the count
        ("  7  1,2,3 x", 4, "bad token '1,2,3'"),  # columns of the stripped line
        ("1", 1, "expected 2 entries in row, found 1"),
        ("1 2 3", 1, "expected 2 entries in row, found 3"),
    ],
)
def test_parse_matrix_row_errors_keep_line_and_column(row, column, message):
    with pytest.raises(ParseError) as err:
        parse_matrix("# comment\n1 2\n" + row + "\n")
    assert (err.value.line, err.value.column) == (3, column)
    assert str(err.value) == f"3:{column}: {message}"


def _reference_first_defect(text: str):
    """(line, column, message) of the first defect of matrix text, or None, by a per-row parser:
    each data row is parsed as it is read, so the defects are met in file order."""
    rows = cols = None
    count = 0
    last = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        last = lineno
        if rows is None:
            header = line.split()
            if len(header) != 2:
                return lineno, 1, "header must be 'ROWS COLS'"
            try:
                rows, cols = int(header[0]), int(header[1])
            except ValueError:
                return lineno, 1, f"bad dimension token {header[0]!r} {header[1]!r}"
            if rows < 1 or cols < 1:
                return lineno, 1, "dimensions must be positive"
            continue
        if count == rows:
            return lineno, 1, f"expected {rows} data rows, found more"
        entries = 0
        start = 0
        for tok in line.split():
            start = line.index(tok, start)
            parts = tok.split(",")
            try:
                if len(parts) > 2:
                    raise ValueError(tok)
                for part in parts:
                    float(part)
            except ValueError:
                return lineno, start + 1, f"bad token {tok!r}"
            start += len(tok)
            entries += 1
        if entries != cols:
            return lineno, 1, f"expected {cols} entries in row, found {entries}"
        count += 1
    if rows is None:
        return 1, 1, "empty file (no header)"
    if count != rows:
        return last, 1, f"expected {rows} data rows, found {count}"
    return None


@pytest.mark.parametrize("text", [
    "1 2\n1 x\n3 4\n",  # a bad token, then an extra row
    "1 2\n1 2\n3 x\n",  # an extra row holding a bad token
    "2 2\n1 2\n3 4\n5 6\n7 x\n",  # an extra row, then a bad token
    "2 2\n1\n2 x\n",  # a short row, then a bad token
    "2 2\n1 2 3\n2 x\n",  # a long row, then a bad token
    "2 2\n1 x\n2\n",  # a bad token, then a short row
    "3 2\n1 x\n",  # too few rows after a bad token
    "3 2\n1 2\n3 4,x\n",
    "2 2\n1 2\n1,2,3 4\n",  # a token of three parts
    "2 2\n1,2,3 4\n5 6\n7 8\n",  # then an extra row
    "2 2\n1 ,5\n1 2 3\n",  # an empty real part, then a long row
    "2 2\n5, 1\n1\n",  # an empty imaginary part, then a short row
    "2 2\n1,2 3,4\n5,6 7,\n",
    "2 2\n1,2 ,\n3,4 5,6\n",
    "2 2\n1,2,3 4\n5,6\n",  # one comma too many and one too few on the same count
    "# a comment\n2\t2 # dims\n\n1,2\t3,4 # first\n# between\n  5,x\t7\n9 9\n",
    "# only\n\t\n2 2\n1,0 0,1\n\t# tab then comment\n0,1\t1,0\n# trailing\n3,3 3,3\n",
    "2 2\n1,1 1,1\n",
    "2 2\n\t1,1 1,1\n1,1 1,1 1,1 x\n",
    "",
    "# nothing but comments\n",
    "2 x\n1 2\n",
    "2\n",
    "0 2\n",
])
def test_a_malformed_file_reports_its_first_defect_in_file_order(text):
    expected = _reference_first_defect(text)
    assert expected is not None
    with pytest.raises(ParseError) as err:
        parse_matrix(text)
    assert (err.value.line, err.value.column, err.value.reason) == expected
    assert str(err.value) == f"{expected[0]}:{expected[1]}: {expected[2]}"


@pytest.mark.parametrize("argv, text", [
    (["analyze"], "3 3\n1 0 0\n0 2 0\n0 0 3\n"),
    (["analyze"], "2 2\n0,1 0\n0 0,-1\n"),
    (["analyze"], "2 2\n0,1 0\n0 2\n"),  # unpairable
    (["analyze"], "2 2\n0 1\n0 0\n"),  # not diagonalizable
    (["canonical"], "2 2\n1 0,1\n0,1 2\n"),
    (["canonical", "--selfadjoint"], "2 2\n2 0,1\n0,-1 2\n"),
])
def test_reports_match_the_per_entry_renderer(tmp_path, capsys, argv, text):
    path = _write(tmp_path, "h.mat", text)
    assert main(argv + [path]) == EXIT_PASS
    out = capsys.readouterr().out
    assert out == _reference_json(json.loads(out)) + "\n"


# ---------------------------------------------------------------- LAPACK failures are typed

@pytest.mark.parametrize(
    "patched, argv, text",
    [
        ("eig", ["analyze"], "2 2\n1 0\n0 2\n"),
        ("eig", ["canonical"], "2 2\n1 0\n0 2\n"),
        ("svd", ["analyze"], "3 3\n1 0 0\n0 1 0\n0 0 2\n"),  # the repeated level's SVD
        ("svd", ["canonical"], "3 3\n1 0 0\n0 1 0\n0 0 2\n"),
        ("svd", ["canonical"], "2 2\n1 0\n0 2\n"),  # coefficient and pseudo-Hermiticity checks
        ("eigh", ["canonical", "--selfadjoint"], "2 2\n1 0\n0 2\n"),
        ("svd", ["canonical", "--selfadjoint"], "2 2\n1 0\n0 2\n"),
        ("eigh", ["factor"], "2 2\n1,-1 1\n1 1,1\n"),  # a 2x2 Jordan block, which the Takagi terminal takes
    ],
)
def test_lapack_failure_is_a_numeric_failure_report(tmp_path, capsys, monkeypatch, patched, argv, text):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError(f"{patched} did not converge")

    monkeypatch.setattr(np.linalg, patched, fail)
    path = _write(tmp_path, "h.mat", text)
    code = main(argv + [path])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_NUMERIC_FAILURE
    assert report["status"] == "error"
    assert report["result"]["error"] == "ConvergenceError"
