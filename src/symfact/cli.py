"""Command-line front end.

Commands
  factor     factor a symmetric matrix file as C = V V^T
  verify     check a (C, V) file pair against the product contract
  analyze    eigenvalues, diagonalizability, spectrum pairing, antilinear symmetry
  canonical  canonical antilinear operator of a diagonalizable operator

Matrix file format: '#' starts a comment line; the first data line is
"ROWS COLS"; then ROWS lines of COLS whitespace-separated tokens, each
"re" or "re,im" (no interior spaces, decimal or scientific notation).

Reports are JSON with keys {command, input_sha256, config, result, status},
complex numbers as [re, im] pairs, keys sorted, floats printed with 17
significant digits, so identical inputs give byte-identical reports.
Exit codes: 0 pass, 1 input/usage error, 2 numerical contract failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import re
import shutil
import sys

import numpy as np

from . import antisym, eigen, factor, oracle
from .matcore import _DEFAULT_CONFIG, SingularMatrixError, ToleranceConfig, ValidationError, frobenius

EXIT_PASS = 0
EXIT_INPUT_ERROR = 1
EXIT_NUMERIC_FAILURE = 2


class ParseError(ValueError):
    """Matrix text rejected at ``line``:``column``, of the file ``path`` when given."""

    def __init__(self, message: str, line: int, column: int, path: str | None = None):
        where = f"{line}:{column}" if path is None else f"{path}:{line}:{column}"
        super().__init__(f"{where}: {message}")
        self.reason = message
        self.line = line
        self.column = column


def _tokens(line: str):
    col = 0
    for tok in line.split():
        col = line.index(tok, col)
        yield tok, col + 1
        col += len(tok)


def _row_floats(line: str, cols: int) -> list:
    """Interleaved re, im floats of one data row; ValueError if it is malformed.

    Every token gives two or more floats, so with ``cols`` tokens exactly
    2*cols floats means every token was "re" or "re,im".
    """
    toks = line.split()
    vals = [float(x) for tok in toks for x in (tok.split(",") if "," in tok else (tok, "0"))]
    if len(toks) != cols or len(vals) != 2 * cols:
        raise ValueError("malformed row")
    return vals


def _row_error(line: str, lineno: int, cols: int) -> ParseError:
    """The error of a row that ``_row_floats`` rejected: its first bad token
    with its column, else its entry count."""
    count = 0
    for tok, col in _tokens(line):
        parts = tok.split(",")
        try:
            if len(parts) > 2:
                raise ValueError(tok)
            for part in parts:
                float(part)
        except ValueError:
            return ParseError(f"bad token {tok!r}", lineno, col)
        count += 1
    return ParseError(f"expected {cols} entries in row, found {count}", lineno, 1)


def _row_values(lines: list, cols: int) -> list:
    """The floats of each data row in ``lines``, (line number, line) pairs in file order, row by row:
    the first malformed row raises its ParseError."""
    data = []
    for lineno, line in lines:
        try:
            data.append(_row_floats(line, cols))
        except ValueError:
            raise _row_error(line, lineno, cols) from None
    return data


def parse_matrix(text: str) -> np.ndarray:
    """Parse the matrix text format; raises ParseError with line/column info.

    The data rows are collected with their token counts checked.  When every
    token is "re,im", one comma in each, all floats are converted by one
    ``map(float, ...)`` into one array; any other file, a bad number
    included, is converted row by row by ``_row_floats``, which names the
    first bad token.  Errors keep file order: a bad row above an extra, short
    or missing row is the one reported.
    """
    rows = cols = None
    lines = []  # (line number, line) of the data rows read so far
    tokens = []
    last_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        last_line = lineno
        if rows is None:
            header = line.split()
            if len(header) != 2:
                raise ParseError("header must be 'ROWS COLS'", lineno, 1)
            try:
                rows, cols = int(header[0]), int(header[1])
            except ValueError:
                raise ParseError(f"bad dimension token {header[0]!r} {header[1]!r}", lineno, 1) from None
            if rows < 1 or cols < 1:
                raise ParseError("dimensions must be positive", lineno, 1)
            continue
        if len(lines) == rows:
            _row_values(lines, cols)  # a bad row above comes first
            raise ParseError(f"expected {rows} data rows, found more", lineno, 1)
        lines.append((lineno, line))
        row = line.split()
        if len(row) != cols:
            _row_values(lines, cols)  # raises, at this row at the latest
        tokens += row
    if rows is None:
        raise ParseError("empty file (no header)", 1, 1)
    if len(lines) != rows:
        _row_values(lines, cols)
        raise ParseError(f"expected {rows} data rows, found {len(lines)}", last_line, 1)
    values = None
    if all("," in tok for tok in tokens):
        parts = ",".join(tokens).split(",")
        if len(parts) == 2 * len(tokens):  # so no token holds a second comma
            try:
                values = np.fromiter(map(float, parts), np.float64, len(parts))
            except ValueError:  # named by the per-row path
                pass
    if values is None:
        values = np.array(_row_values(lines, cols), dtype=np.float64)
    return values.reshape(rows, 2 * cols).view(np.complex128)


def _interleaved(mat) -> tuple:
    """(re, im, re, im, ...) of a complex matrix, row by row, as Python floats."""
    return tuple(np.ascontiguousarray(mat, dtype=np.complex128).view(np.float64).ravel().tolist())


def format_matrix(mat: np.ndarray) -> str:
    """Emit a matrix in the same text format (always re,im tokens)."""
    mat = np.atleast_2d(np.asarray(mat, dtype=np.complex128))
    rows, cols = mat.shape
    row = " ".join(["%.17g,%.17g"] * cols)
    return ("\n".join([f"{rows} {cols}"] + [row] * rows) + "\n") % _interleaved(mat)


def _json_scalar(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}" if math.isfinite(value) else json.dumps(str(value))
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    return json.dumps(value)


class _RawJson(str):
    """JSON text rendered ahead; ``_dump_json`` emits it as it is."""


def _dump_json(obj) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits.

    Keys are written between quotes as they are: every report key is one of
    this module's plain ASCII names, which JSON needs no escape for.
    """
    if isinstance(obj, _RawJson):
        return obj
    if isinstance(obj, dict):
        return "{" + ",".join([f'"{k}":{_dump_json(v)}' for k, v in sorted(obj.items())]) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join([_dump_json(v) for v in obj]) + "]"
    return _json_scalar(obj)


def _cnum(z) -> _RawJson:
    """A complex number as its JSON pair [re, im]."""
    z = complex(z)
    return _RawJson(f"[{_json_scalar(z.real)},{_json_scalar(z.imag)}]")


def _cmatrix(mat, text: str | None = None) -> _RawJson:
    """A complex matrix as rows of [re, im] pairs.

    They are rewritten from ``format_matrix``'s text when the caller has it
    (``text``), whose "re,im" tokens are the pairs, and are otherwise
    rendered by one %-format of every entry.  Non-finite entries are quoted
    strings, as ``_json_scalar`` writes them.
    """
    mat = np.atleast_2d(np.asarray(mat, dtype=np.complex128))
    if text is None:
        rows, cols = mat.shape
        row = "[" + ",".join(["[%.17g,%.17g]"] * cols) + "]"
        text = ("[" + ",".join([row] * rows) + "]") % _interleaved(mat)
    else:
        lines = text.split("\n")[1:-1]
        text = "[" + ",".join(["[[" + line.replace(" ", "],[") + "]]" for line in lines]) + "]"
    if not np.isfinite(mat).all():
        text = re.sub(r"-?inf|nan", r'"\g<0>"', text)
    return _RawJson(text)


def _config_dict(cfg: ToleranceConfig) -> dict:
    return {
        "eig_tol": cfg.eig_tol,
        "iso_tol": cfg.iso_tol,
        "verify_tol": cfg.verify_tol,
        "seed": cfg.seed,
    }


def _trace_dict(trace: factor.RecursionTrace) -> list:
    return [{"dim": lv.dim, "branch": lv.branch,
             "lambda": None if lv.value is None else _cnum(lv.value),
             "ete": None if lv.ete is None else _cnum(lv.ete),
             "detD": None if lv.det_d is None else _cnum(lv.det_d),
             "x_strategy": lv.x_strategy} for lv in trace.levels]


def _read(path: str) -> tuple[str, bytes]:
    """SHA-256 hex digest and bytes of an input file, read once; OSError if
    it cannot be read."""
    with open(path, "rb") as fh:
        data = fh.read()
    return hashlib.sha256(data).hexdigest(), data


def _parse(path: str, data: bytes) -> np.ndarray:
    """The matrix in an input file's bytes; ParseError, naming the file, if
    they are not UTF-8 text in the matrix format."""
    try:
        return parse_matrix(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        column = exc.start - data.rfind(b"\n", 0, exc.start)
        reason = f"not UTF-8 text ({exc.reason})"
    except ParseError as exc:
        line, column, reason = exc.line, exc.column, exc.reason
    raise ParseError(reason, line, column, path)


def _report(command: str, digests, cfg: ToleranceConfig, result: dict, status: str = "pass") -> dict:
    return {"command": command, "input_sha256": digests, "config": _config_dict(cfg), "result": result,
            "status": status}


def _error_report(command: str, digests, cfg: ToleranceConfig, exc: Exception) -> dict:
    return _report(command, digests, cfg, {"error": type(exc).__name__, "message": str(exc)}, "error")


def _cmd_factor(path: str, cfg: ToleranceConfig, args) -> tuple[dict, int]:
    digest = None
    try:
        digest, data = _read(path)
        c = _parse(path, data)
        result = factor.factor_symmetric(c, cfg)
    except (OSError, ParseError, ValidationError, factor.NotSymmetricError) as exc:
        return _error_report("factor", digest, cfg, exc), EXIT_INPUT_ERROR
    except (eigen.ConvergenceError, SingularMatrixError) as exc:
        return _error_report("factor", digest, cfg, exc), EXIT_NUMERIC_FAILURE
    passed = result.relative_residual <= cfg.verify_tol
    v_text = format_matrix(result.V)  # the report's V and the --out-v file, formatted once
    payload = {
        "dim": int(c.shape[0]),
        "V": _cmatrix(result.V, v_text),
        "residual": result.residual,
        "relative_residual": result.relative_residual,
        "trace": _trace_dict(result.trace),
    }
    if args.oracle:
        alt = oracle.factor_via_ldlt(c)
        if isinstance(alt, oracle.Breakdown):
            payload["oracle"] = {"breakdown": True, "step": alt.step}
        else:
            alt_check = factor.verify_factorization(c, alt, cfg)
            payload["oracle"] = {
                "breakdown": False,
                "residual": alt_check.residual,
                "relative_residual": alt_check.relative_residual,
                "agreement": bool(alt_check.passed),
            }
    if args.out_v:
        try:
            with open(args.out_v, "w", encoding="utf-8") as fh:
                fh.write(v_text)
        except OSError as exc:
            return _error_report("factor", digest, cfg, exc), EXIT_INPUT_ERROR
    return _report("factor", digest, cfg, payload, "pass" if passed else "fail"), (
        EXIT_PASS if passed else EXIT_NUMERIC_FAILURE)


def _cmd_verify(path_c: str, path_v: str, cfg: ToleranceConfig) -> tuple[dict, int]:
    digests = {"C": None, "V": None}
    try:
        digests["C"], data_c = _read(path_c)
        digests["V"], data_v = _read(path_v)
        check = factor.verify_factorization(_parse(path_c, data_c), _parse(path_v, data_v), cfg)
    except (OSError, ParseError, ValidationError) as exc:
        return _error_report("verify", digests, cfg, exc), EXIT_INPUT_ERROR
    result = {"residual": check.residual, "relative_residual": check.relative_residual, "pass": bool(check.passed)}
    return _report("verify", digests, cfg, result, "pass" if check.passed else "fail"), (
        EXIT_PASS if check.passed else EXIT_NUMERIC_FAILURE)


def _cmd_analyze(path: str, cfg: ToleranceConfig) -> tuple[dict, int]:
    digest = None
    try:
        digest, data = _read(path)
        h = _parse(path, data)
        try:
            system = eigen.biorthonormal_system(h, cfg)
        except eigen.DefectiveOperatorError:
            system = None
            values = eigen.eigenvalues(h, cfg)
    except (OSError, ParseError, ValidationError) as exc:
        return _error_report("analyze", digest, cfg, exc), EXIT_INPUT_ERROR
    except eigen.ConvergenceError as exc:
        return _error_report("analyze", digest, cfg, exc), EXIT_NUMERIC_FAILURE
    payload: dict = {"dim": int(h.shape[0])}
    payload["diagonalizable"] = system is not None
    if system is None:
        clustered = eigen._cluster(values, 1e-8 * max(1.0, frobenius(h)))
        payload["eigenvalues"] = [
            {"value": _cnum(v), "multiplicity": len(members)} for v, members in clustered
        ]
        return _report("analyze", digest, cfg, payload), EXIT_PASS
    # one record per level, keys in sorted order as _dump_json writes them
    records = [f'{{"multiplicity":{lv.multiplicity},"value":{_cnum(lv.value)}}}' for lv in system.levels]
    payload["eigenvalues"] = _RawJson("[" + ",".join(records) + "]")
    tol = 1e-8 * max(1.0, max(abs(lv.value) for lv in system.levels))
    pairing = antisym.spectrum_pairing(system, tol=tol)
    if isinstance(pairing, antisym.Unpairable):
        payload["pairing"] = {"paired": False, "unpairable": [_cnum(v) for v in pairing.offenders]}
    else:
        op = antisym.build_antilinear_symmetry(system, pairing)
        payload["pairing"] = {
            "paired": True,
            "map": list(pairing.mapping),
            "real_levels": list(pairing.real_levels),
        }
        payload["symmetry"] = {
            "N": _cmatrix(op.matrix),
            "commutation_residual": antisym.check_commutes(h, op),
        }
    return _report("analyze", digest, cfg, payload), EXIT_PASS


def _cmd_canonical(path: str, cfg: ToleranceConfig, args) -> tuple[dict, int]:
    digest = None
    try:
        digest, data = _read(path)
        h = _parse(path, data)
        if args.selfadjoint:
            op = antisym.canonical_T_selfadjoint(h, cfg)
        else:
            op = antisym.canonical_T(eigen.biorthonormal_system(h, cfg))
        pseudo_hermiticity = antisym.check_pseudo_hermitian(h, op, kind="antilinear")
    except (OSError, ParseError, ValidationError, eigen.DefectiveOperatorError) as exc:
        return _error_report("canonical", digest, cfg, exc), EXIT_INPUT_ERROR
    except eigen.ConvergenceError as exc:
        return _error_report("canonical", digest, cfg, exc), EXIT_NUMERIC_FAILURE
    m = op.matrix
    scale = max(frobenius(m), np.finfo(np.float64).tiny)
    payload = {
        "dim": int(h.shape[0]),
        "M": _cmatrix(m),
        "pseudo_hermiticity_residual": pseudo_hermiticity,
        "hermiticity_residual": frobenius(m - m.T) / scale,
    }
    if args.selfadjoint:
        payload["involution_residual"] = antisym.check_involution(op)
    return _report("canonical", digest, cfg, payload), EXIT_PASS


def _text_summary(report: dict) -> str:
    lines = [f"command: {report['command']}", f"status: {report['status']}"]
    result = report["result"]
    for key in ("residual", "relative_residual", "error", "message", "diagonalizable"):
        if key in result:
            value = result[key]
            lines.append(f"{key}: {value:.17g}" if isinstance(value, float) else f"{key}: {value}")
    if "trace" in result:
        lines.append("branches: " + " ".join(e["branch"] for e in result["trace"]))
    if "pairing" in result:
        lines.append(f"paired: {result['pairing'].get('paired')}")
    return "\n".join(lines)


def _add_arguments(p, command: str) -> None:
    if command == "verify":
        p.add_argument("path_c", metavar="C")
        p.add_argument("path_v", metavar="V")
    else:
        p.add_argument("paths", nargs="+", metavar="MATRIX")
    if command == "factor":
        p.add_argument("--oracle", action="store_true",
                       help="also run the diagonal-pivot factorizer and report agreement")
        p.add_argument("--out-v", default=None, metavar="PATH",
                       help="write the factor V as a matrix file (single input only)")
    if command == "canonical":
        p.add_argument("--selfadjoint", action="store_true",
                       help="require H self-adjoint and additionally check T^2 = I")
    p.add_argument("--tol", type=float, default=None, help="verification tolerance (verify_tol)")
    p.add_argument("--iso-tol", type=float, default=None, help="isotropy threshold on |e^T e|")
    p.add_argument("--seed", type=int, default=None, help="seed (default $SYMFACT_SEED or 0)")
    p.add_argument("--format", choices=("json", "text"), default="json")


_COMMANDS = {
    "factor": "factor symmetric matrix files",
    "verify": "verify C = V V^T for a file pair",
    "analyze": "spectrum, pairing and antilinear symmetry",
    "canonical": "canonical antilinear operator",
}


def _build_parser() -> argparse.ArgumentParser:
    """The full ``symfact`` parser: every command with its arguments.

    It parses only what ``_parse_args`` hands on (``-h``, an unknown or
    missing command, arguments left over), so help and error messages are
    argparse's; ``main`` turns its usage-error exit code 2 into 1.
    """
    parser = argparse.ArgumentParser(
        prog="symfact",
        description="Factor complex symmetric matrices as V V^T and analyze antilinear symmetries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in _COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=help_text), name)
    return parser


class _Rejected(Exception):
    """An argv that a command's own parser leaves to the full parser."""


class _CommandParser(argparse.ArgumentParser):
    """One command's parser, which prints nothing: it has no ``-h``, and a usage error raises
    _Rejected in place of printing and exiting."""

    def error(self, message):
        raise _Rejected(message)


def _parse_args(argv) -> argparse.Namespace:
    """``argv`` by its command's parser alone when that takes every word;
    otherwise (no command, ``-h``, a usage error, words left over) by the full
    parser, which prints help and errors as argparse does.

    The command's parser is built on every call.  Its formatters, which
    ``add_argument`` builds to check ``nargs``, take the help width probed
    once per call, where argparse probes the terminal for each of them.
    """
    if argv and argv[0] in _COMMANDS:
        width = shutil.get_terminal_size().columns - 2  # as argparse.HelpFormatter computes it
        parser = _CommandParser(prog=f"symfact {argv[0]}", add_help=False,
                                formatter_class=functools.partial(argparse.HelpFormatter, width=width))
        _add_arguments(parser, argv[0])
        try:
            args, rest = parser.parse_known_args(argv[1:])
        except _Rejected:
            pass
        else:
            if not rest:
                args.command = argv[0]
                return args
    return _build_parser().parse_args(argv)


def _make_config(args) -> ToleranceConfig:
    seed = args.seed
    if seed is None:
        raw = os.environ.get("SYMFACT_SEED", "0")
        try:
            seed = int(raw)
        except ValueError:
            raise ValidationError(f"SYMFACT_SEED must be an integer, got {raw!r}") from None
    base = _DEFAULT_CONFIG
    return ToleranceConfig(
        eig_tol=base.eig_tol,
        iso_tol=args.iso_tol if args.iso_tol is not None else base.iso_tol,
        verify_tol=args.tol if args.tol is not None else base.verify_tol,
        seed=seed,
    )


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, the code of a numerical failure
        raise SystemExit(EXIT_INPUT_ERROR if exc.code == 2 else exc.code) from None
    try:
        cfg = _make_config(args)
    except ValidationError as exc:
        print(f"symfact: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR

    if args.command == "factor" and args.out_v and len(args.paths) != 1:
        print("symfact: --out-v requires exactly one input file", file=sys.stderr)
        return EXIT_INPUT_ERROR
    if args.command == "verify":
        runs = [_cmd_verify(args.path_c, args.path_v, cfg)]
    elif args.command == "analyze":
        runs = [_cmd_analyze(path, cfg) for path in args.paths]
    else:
        command = _cmd_factor if args.command == "factor" else _cmd_canonical
        runs = [command(path, cfg, args) for path in args.paths]
    reports = [report for report, _ in runs]
    worst = max(code for _, code in runs)
    if args.format == "text":
        print("\n\n".join(_text_summary(r) for r in reports))
    else:
        payload = reports[0] if len(reports) == 1 else reports
        print(_dump_json(payload))
    return worst


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
