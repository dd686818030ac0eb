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
import hashlib
import json
import os
import sys

import numpy as np

from . import antisym, eigen, factor, oracle
from .matcore import SingularMatrixError, ToleranceConfig, ValidationError

EXIT_PASS = 0
EXIT_INPUT_ERROR = 1
EXIT_NUMERIC_FAILURE = 2


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


def _tokens(line: str):
    col = 0
    for tok in line.split():
        col = line.index(tok, col)
        yield tok, col + 1
        col += len(tok)


def parse_matrix(text: str) -> np.ndarray:
    """Parse the matrix text format; raises ParseError with line/column info."""
    rows = cols = None
    data = []
    data_lines = 0
    last_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        last_line = lineno
        if data_lines == 0:
            header = line.split()
            if len(header) != 2:
                raise ParseError("header must be 'ROWS COLS'", lineno, 1)
            try:
                rows, cols = int(header[0]), int(header[1])
            except ValueError:
                raise ParseError(f"bad dimension token {header[0]!r} {header[1]!r}", lineno, 1) from None
            if rows < 1 or cols < 1:
                raise ParseError("dimensions must be positive", lineno, 1)
            data_lines += 1
            continue
        if len(data) == rows:
            raise ParseError(f"expected {rows} data rows, found more", lineno, 1)
        entries = []
        for tok, col in _tokens(line):
            parts = tok.split(",")
            if len(parts) not in (1, 2):
                raise ParseError(f"bad token {tok!r}", lineno, col)
            try:
                re = float(parts[0])
                im = float(parts[1]) if len(parts) == 2 else 0.0
            except ValueError:
                raise ParseError(f"bad token {tok!r}", lineno, col) from None
            entries.append(complex(re, im))
        if len(entries) != cols:
            raise ParseError(f"expected {cols} entries in row, found {len(entries)}", lineno, 1)
        data.append(entries)
        data_lines += 1
    if data_lines == 0:
        raise ParseError("empty file (no header)", 1, 1)
    if len(data) != rows:
        raise ParseError(f"expected {rows} data rows, found {len(data)}", last_line, 1)
    return np.array(data, dtype=np.complex128)


def format_matrix(mat: np.ndarray) -> str:
    """Emit a matrix in the same text format (always re,im tokens)."""
    mat = np.atleast_2d(np.asarray(mat, dtype=np.complex128))
    lines = [f"{mat.shape[0]} {mat.shape[1]}"]
    for row in mat:
        lines.append(" ".join(f"{z.real:.17g},{z.imag:.17g}" for z in row))
    return "\n".join(lines) + "\n"


def _json_scalar(value) -> str:
    if isinstance(value, bool) or value is None or isinstance(value, int):
        return json.dumps(value)
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            return json.dumps(str(value))
        return f"{value:.17g}"
    return json.dumps(value)


def _dump_json(obj) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits."""
    if isinstance(obj, dict):
        items = sorted(obj.items())
        return "{" + ",".join(f"{json.dumps(str(k))}:{_dump_json(v)}" for k, v in items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_dump_json(v) for v in obj) + "]"
    return _json_scalar(obj)


def _cnum(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _cmatrix(mat) -> list:
    return [[_cnum(z) for z in row] for row in np.atleast_2d(mat)]


def _sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _config_dict(cfg: ToleranceConfig) -> dict:
    return {
        "eig_tol": cfg.eig_tol,
        "iso_tol": cfg.iso_tol,
        "det_tol": cfg.det_tol,
        "verify_tol": cfg.verify_tol,
        "seed": cfg.seed,
    }


def _trace_dict(trace: factor.RecursionTrace) -> list:
    out = []
    for lv in trace.levels:
        entry = {"dim": lv.dim, "branch": lv.branch}
        entry["lambda"] = _cnum(lv.value) if lv.value is not None else None
        entry["ete"] = _cnum(lv.ete) if lv.ete is not None else None
        entry["detD"] = _cnum(lv.det_d) if lv.det_d is not None else None
        entry["x_strategy"] = lv.x_strategy
        out.append(entry)
    return out


def _load(path: str) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read file: {exc}", 1, 1) from None
    try:
        return parse_matrix(text)
    except ParseError as exc:
        raise ParseError(f"{path}:{exc.args[0]}", exc.line, exc.column) from None


def _error_report(command: str, digests, cfg: ToleranceConfig, exc: Exception) -> dict:
    return {
        "command": command,
        "input_sha256": digests,
        "config": _config_dict(cfg),
        "result": {"error": type(exc).__name__, "message": str(exc)},
        "status": "error",
    }


def _cmd_factor(path: str, cfg: ToleranceConfig, args) -> tuple[dict, int]:
    digest = _sha256_file(path)
    try:
        c = _load(path)
        result = factor.factor_symmetric(c, cfg)
    except (ParseError, ValidationError, factor.NotSymmetricError) as exc:
        return _error_report("factor", digest, cfg, exc), EXIT_INPUT_ERROR
    except (eigen.ConvergenceError, SingularMatrixError) as exc:
        return _error_report("factor", digest, cfg, exc), EXIT_NUMERIC_FAILURE
    passed = result.relative_residual <= cfg.verify_tol
    payload = {
        "dim": int(c.shape[0]),
        "V": _cmatrix(result.V),
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
        with open(args.out_v, "w", encoding="utf-8") as fh:
            fh.write(format_matrix(result.V))
    report = {
        "command": "factor",
        "input_sha256": digest,
        "config": _config_dict(cfg),
        "result": payload,
        "status": "pass" if passed else "fail",
    }
    return report, EXIT_PASS if passed else EXIT_NUMERIC_FAILURE


def _cmd_verify(path_c: str, path_v: str, cfg: ToleranceConfig) -> tuple[dict, int]:
    digests = {"C": _sha256_file(path_c), "V": _sha256_file(path_v)}
    try:
        c = _load(path_c)
        v = _load(path_v)
        check = factor.verify_factorization(c, v, cfg)
    except (ParseError, ValidationError) as exc:
        return _error_report("verify", digests, cfg, exc), EXIT_INPUT_ERROR
    report = {
        "command": "verify",
        "input_sha256": digests,
        "config": _config_dict(cfg),
        "result": {
            "residual": check.residual,
            "relative_residual": check.relative_residual,
            "pass": bool(check.passed),
        },
        "status": "pass" if check.passed else "fail",
    }
    return report, EXIT_PASS if check.passed else EXIT_NUMERIC_FAILURE


def _cmd_analyze(path: str, cfg: ToleranceConfig) -> tuple[dict, int]:
    digest = _sha256_file(path)
    try:
        h = _load(path)
        values = eigen.eigenvalues(h, cfg)
    except (ParseError, ValidationError) as exc:
        return _error_report("analyze", digest, cfg, exc), EXIT_INPUT_ERROR
    except eigen.ConvergenceError as exc:
        return _error_report("analyze", digest, cfg, exc), EXIT_NUMERIC_FAILURE
    payload: dict = {"dim": int(h.shape[0])}
    try:
        system = eigen.biorthonormal_system(h, cfg)
    except eigen.DefectiveOperatorError:
        system = None
    payload["diagonalizable"] = system is not None
    if system is None:
        clustered = eigen._cluster(values, 1e-8 * max(1.0, float(np.linalg.norm(h))))
        payload["eigenvalues"] = [
            {"value": _cnum(v), "multiplicity": m} for v, m in clustered
        ]
        report = {
            "command": "analyze",
            "input_sha256": digest,
            "config": _config_dict(cfg),
            "result": payload,
            "status": "pass",
        }
        return report, EXIT_PASS
    payload["eigenvalues"] = [
        {"value": _cnum(lv.value), "multiplicity": lv.multiplicity} for lv in system.levels
    ]
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
    report = {
        "command": "analyze",
        "input_sha256": digest,
        "config": _config_dict(cfg),
        "result": payload,
        "status": "pass",
    }
    return report, EXIT_PASS


def _cmd_canonical(path: str, cfg: ToleranceConfig, args) -> tuple[dict, int]:
    digest = _sha256_file(path)
    try:
        h = _load(path)
        if args.selfadjoint:
            op = antisym.canonical_T_selfadjoint(h, cfg)
        else:
            system = eigen.biorthonormal_system(h, cfg)
            op = antisym.build_T(system, antisym.CoefficientSet.identity_for(system))
    except (ParseError, ValidationError, eigen.DefectiveOperatorError) as exc:
        return _error_report("canonical", digest, cfg, exc), EXIT_INPUT_ERROR
    except eigen.ConvergenceError as exc:
        return _error_report("canonical", digest, cfg, exc), EXIT_NUMERIC_FAILURE
    m = op.matrix
    scale = max(float(np.linalg.norm(m)), np.finfo(np.float64).tiny)
    payload = {
        "dim": int(h.shape[0]),
        "M": _cmatrix(m),
        "pseudo_hermiticity_residual": antisym.check_pseudo_hermitian(h, op, kind="antilinear"),
        "hermiticity_residual": float(np.linalg.norm(m - m.T)) / scale,
    }
    if args.selfadjoint:
        payload["involution_residual"] = antisym.check_involution(op)
    report = {
        "command": "canonical",
        "input_sha256": digest,
        "config": _config_dict(cfg),
        "result": payload,
        "status": "pass",
    }
    return report, EXIT_PASS


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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symfact",
        description="Factor complex symmetric matrices as V V^T and analyze antilinear symmetries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--tol", type=float, default=None, help="verification tolerance (verify_tol)")
        p.add_argument("--iso-tol", type=float, default=None, help="isotropy threshold on |e^T e|")
        p.add_argument("--det-tol", type=float, default=None, help="lower bound for accepted |det D|")
        p.add_argument("--seed", type=int, default=None, help="seed (default $SYMFACT_SEED or 0)")
        p.add_argument("--format", choices=("json", "text"), default="json")

    p_factor = sub.add_parser("factor", help="factor symmetric matrix files")
    p_factor.add_argument("paths", nargs="+", metavar="MATRIX")
    p_factor.add_argument("--oracle", action="store_true",
                          help="also run the diagonal-pivot factorizer and report agreement")
    p_factor.add_argument("--out-v", default=None, metavar="PATH",
                          help="write the factor V as a matrix file (single input only)")
    add_common(p_factor)

    p_verify = sub.add_parser("verify", help="verify C = V V^T for a file pair")
    p_verify.add_argument("path_c", metavar="C")
    p_verify.add_argument("path_v", metavar="V")
    add_common(p_verify)

    p_analyze = sub.add_parser("analyze", help="spectrum, pairing and antilinear symmetry")
    p_analyze.add_argument("paths", nargs="+", metavar="MATRIX")
    add_common(p_analyze)

    p_canonical = sub.add_parser("canonical", help="canonical antilinear operator")
    p_canonical.add_argument("paths", nargs="+", metavar="MATRIX")
    p_canonical.add_argument("--selfadjoint", action="store_true",
                             help="require H self-adjoint and additionally check T^2 = I")
    add_common(p_canonical)
    return parser


def _make_config(args) -> ToleranceConfig:
    seed = args.seed
    if seed is None:
        seed = int(os.environ.get("SYMFACT_SEED", "0"))
    base = ToleranceConfig()
    return ToleranceConfig(
        eig_tol=base.eig_tol,
        iso_tol=args.iso_tol if args.iso_tol is not None else base.iso_tol,
        det_tol=args.det_tol if args.det_tol is not None else base.det_tol,
        verify_tol=args.tol if args.tol is not None else base.verify_tol,
        seed=seed,
    )


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _make_config(args)
    except ValidationError as exc:
        print(f"symfact: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR

    reports = []
    worst = EXIT_PASS
    if args.command == "factor":
        if args.out_v and len(args.paths) != 1:
            print("symfact: --out-v requires exactly one input file", file=sys.stderr)
            return EXIT_INPUT_ERROR
        for path in args.paths:
            report, code = _cmd_factor(path, cfg, args)
            reports.append(report)
            worst = max(worst, code)
    elif args.command == "verify":
        report, code = _cmd_verify(args.path_c, args.path_v, cfg)
        reports.append(report)
        worst = max(worst, code)
    elif args.command == "analyze":
        for path in args.paths:
            report, code = _cmd_analyze(path, cfg)
            reports.append(report)
            worst = max(worst, code)
    else:  # canonical
        for path in args.paths:
            report, code = _cmd_canonical(path, cfg, args)
            reports.append(report)
            worst = max(worst, code)

    if args.format == "text":
        print("\n\n".join(_text_summary(r) for r in reports))
    else:
        payload = reports[0] if len(reports) == 1 else reports
        print(_dump_json(payload))
    return worst


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
