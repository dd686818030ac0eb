"""Workload inputs, operations and the independent output checks.

A workload is a pool of operations built from the run seed.  Each operation
has a ``run`` (the timed call into symfact, always resolved through the
module attribute so trace wrappers see it) and a ``check`` (untimed) that
recomputes the contract residual with plain numpy from the benchmark's own
copy of the input.  The checks never use symfact code.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

#: contract tolerance |C - V V^T|_F <= VERIFY_TOL * max(|C|_F, 1)
#: (ToleranceConfig.verify_tol default); also bounds the M/N residuals
VERIFY_TOL = 1e-8

#: input seeds of a run are SEED_STRIDE * seed + i; the stride is a multiple
#: of 36, so every run sees the same residues of the generator seed modulo
#: 2, 4, 6 and 9 (the generators branch on those) and the same dims
SEED_STRIDE = 3600

#: full-size and toy-size parameters; toy is for the benchmark's own test.
#: Full sizes keep every op near 30 ms or less and the dense and cli pools
#: small, so each of their inputs runs 50 times or more in a 35-second run and
#: its fastest run escapes slow phases of a shared host: co-tenants slow most
#: calls, and a long call rarely runs through a quiet gap (over ten runs the
#: fastest run of a 60 ms call spread 24%, that of a 20 ms call 14-17%).
SIZES = {
    "full": {"dense_n": 10, "dense_pairs": 12, "iso_seeds": 72, "iso_max_dim": 10,
             "cli_n": 16, "cli_factor_n": 12, "cli_sets": 4},
    "toy": {"dense_n": 6, "dense_pairs": 6, "iso_seeds": 9, "iso_max_dim": 4,
            "cli_n": 4, "cli_factor_n": 4, "cli_sets": 1},
}


@dataclass
class Check:
    ok: bool
    residual: float  # worst contract residual recomputed for this op
    reason: str = ""
    branches: tuple = ()  # recursion branches of a returned factorization


@dataclass
class Op:
    label: str
    seed: int  # generator seed of the op's input, for listing failures
    run: Callable[[], object]
    check: Callable[[object], Check]


@dataclass
class Workload:
    name: str
    ops: list
    unit: int  # ops per scheduling unit: the time limit is tested between units
    inputs: list = field(default_factory=list)  # (label, matrix) for the digest


# ----------------------------------------------------------------- numerics

def _fro(a) -> float:
    return float(np.linalg.norm(a))


def factor_residual(c: np.ndarray, v) -> float:
    """|C - V V^T|_F / max(|C|_F, 1), or inf when V is malformed."""
    v = np.asarray(v)
    if v.shape != c.shape or not np.all(np.isfinite(v)):
        return float("inf")
    return _fro(c - v @ v.T) / max(_fro(c), 1.0)


def _check_factor(c: np.ndarray, result) -> Check:
    res = factor_residual(c, result.V)
    return Check(res <= VERIFY_TOL, res, "" if res <= VERIFY_TOL else f"residual {res:.3e}",
                 tuple(result.trace.branches()))


def matrix_digest(items) -> str:
    """sha256 over (label, matrix) pairs, entries quantized at 1e-9 * max|C|.

    Quantizing keeps the digest stable under last-bit changes in how a
    generator computes its matrix, while any change of traffic shows.
    """
    h = hashlib.sha256()
    for label, c in items:
        scale = float(np.max(np.abs(c)))
        h.update(f"{label}:{c.shape}:{scale:.6e};".encode())
        if scale > 0.0:
            q = np.rint(np.stack([c.real, c.imag]) / scale * 1e9).astype(np.int64) + 0
            h.update(q.tobytes())
    return h.hexdigest()


# ------------------------------------------------------------ matrix files

def write_matrix(path: str, c: np.ndarray) -> None:
    """Write in symfact's matrix text format, 17 significant digits (exact)."""
    lines = [f"{c.shape[0]} {c.shape[1]}"]
    lines += [" ".join(f"{z.real:.17g},{z.imag:.17g}" for z in row) for row in c]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_matrix(path: str) -> np.ndarray:
    """Minimal reader for the files symfact writes (no comments expected)."""
    with open(path, "r", encoding="utf-8") as fh:
        rows = [ln.split() for ln in fh.read().splitlines() if ln.split("#", 1)[0].strip()]
    n_rows, n_cols = int(rows[0][0]), int(rows[0][1])
    out = np.empty((n_rows, n_cols), dtype=np.complex128)
    for i, row in enumerate(rows[1:]):
        for j, tok in enumerate(row):
            re, _, im = tok.partition(",")
            out[i, j] = complex(float(re), float(im or 0.0))
    return out


def report_matrix(entries) -> np.ndarray:
    """[[re, im], ...] rows from a CLI report back into a complex matrix."""
    arr = np.asarray(entries, dtype=np.float64)
    return arr[..., 0] + 1j * arr[..., 1]


# --------------------------------------------------------------- workloads

def _gen(mods, kind: str, dim: int, seed: int) -> np.ndarray:
    oracle = mods["oracle"]
    return oracle.gen(oracle.GeneratorSpec(dim=dim, seed=seed, kind=kind))


def _factor_op(mods, wl: Workload, kind: str, dim: int, seed: int) -> Op:
    c = _gen(mods, kind, dim, seed)
    label = f"{kind}:n{dim}:seed{seed}"
    wl.inputs.append((label, c))
    factor = mods["factor"]
    return Op(label, seed, lambda: factor.factor_symmetric(c), lambda result: _check_factor(c, result))


def build_dense(mods, seed: int, size: dict) -> Workload:
    """DenseSymmetric and RankDeficient at one n, alternating.

    The RankDeficient seeds cover each residue mod 6 equally often, so every
    run holds the same share of zero matrices (the generator's rank-0 case).
    """
    wl = Workload("dense", [], unit=1)
    base = SEED_STRIDE * seed
    for i in range(size["dense_pairs"]):
        for kind in ("DenseSymmetric", "RankDeficient"):
            wl.ops.append(_factor_op(mods, wl, kind, size["dense_n"], base + i))
    return wl


def build_isotropic(mods, seed: int, size: dict) -> Workload:
    """The criterion-03 stress mix: both isotropic families at n = 2 + s % 9."""
    wl = Workload("isotropic", [], unit=1)
    base = SEED_STRIDE * seed
    span = size["iso_max_dim"] - 1
    for i in range(size["iso_seeds"]):
        s = base + i
        for kind in ("IsotropicLambdaZero", "IsotropicLambdaNonzero"):
            wl.ops.append(_factor_op(mods, wl, kind, 2 + s % span, s))
    return wl


def _call_cli(cli, argv: list):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _rel_commutator(h: np.ndarray, m: np.ndarray, lhs: np.ndarray) -> float:
    return _fro(lhs @ m - m @ h.conj()) / max(_fro(h) * _fro(m), 1e-300)


def _eigen_mismatch(h: np.ndarray, listed) -> float:
    """Largest distance from a reported eigenvalue to numpy's (greedy matching)."""
    reported = [complex(*e["value"]) for e in listed for _ in range(e["multiplicity"])]
    if len(reported) != h.shape[0]:
        return float("inf")
    ref = list(np.linalg.eigvals(h))
    worst = 0.0
    for z in reported:
        j = min(range(len(ref)), key=lambda k: abs(ref[k] - z))
        worst = max(worst, abs(ref.pop(j) - z))
    return worst / max(_fro(h), 1.0)


class _CliChecks:
    """Independent checks of CLI reports, plus the byte-identity check
    against the first report seen for the same input (``first_report`` may
    be shared by several builds of one run)."""

    def __init__(self, first_report: dict):
        self.first_report = first_report

    def wrap(self, label: str, inspect: Callable[[dict], Check]) -> Callable[[object], Check]:
        def check(output) -> Check:
            code, text = output
            first = self.first_report.setdefault(label, text)
            if text != first:
                return Check(False, float("inf"), "report differs from the first run of this input")
            if code != 0:
                return Check(False, float("inf"), f"exit code {code}")
            report = json.loads(text)
            if report.get("status") != "pass":
                return Check(False, float("inf"), f"status {report.get('status')}")
            return inspect(report["result"])
        return check


def _worst(label: str, **residuals) -> Check:
    worst = max(residuals.values())
    bad = [f"{k} {v:.3e}" for k, v in residuals.items() if not v <= VERIFY_TOL]
    return Check(not bad, worst, f"{label}: " + ", ".join(bad) if bad else "")


def build_cli(mods, seed: int, size: dict, workdir: str, reports: dict) -> Workload:
    """In-process ``symfact.cli.main`` over matrix files written here.

    Per input set: analyze and canonical on PairedSpectrum, canonical
    --selfadjoint on HermitianDense, factor --oracle --out-v on
    DenseSymmetric, then verify of that factor.
    """
    wl = Workload("cli", [], unit=5)
    cli = mods["cli"]
    checks = _CliChecks(reports)
    base = SEED_STRIDE * seed
    n, nf = size["cli_n"], size["cli_factor_n"]
    for k in range(size["cli_sets"]):
        s = base + k
        paired = _gen(mods, "PairedSpectrum", n, s)
        herm = _gen(mods, "HermitianDense", n, s)
        dense = _gen(mods, "DenseSymmetric", nf, s)
        paths = {}
        for tag, c in (("paired", paired), ("herm", herm), ("dense", dense)):
            paths[tag] = os.path.join(workdir, f"{tag}_{k}.mat")
            write_matrix(paths[tag], c)
            wl.inputs.append((f"{tag}:seed{s}", c))
        out_v = os.path.join(workdir, f"v_{k}.mat")

        def inspect_analyze(result, h=paired):
            if not (result["diagonalizable"] and result["pairing"]["paired"]):
                return Check(False, float("inf"), "analyze: not diagonalizable or not paired")
            big_n = report_matrix(result["symmetry"]["N"])
            return _worst("analyze", commutation=_rel_commutator(h, big_n, h),
                          eigenvalues=_eigen_mismatch(h, result["eigenvalues"]))

        def inspect_canonical(result, h, involution: bool):
            m = report_matrix(result["M"])
            res = {"pseudo_hermiticity": _rel_commutator(h, m, h.conj().T),
                   "hermiticity": _fro(m - m.T) / max(_fro(m), 1e-300)}
            if involution:
                res["involution"] = _fro(m @ m.conj() - np.eye(m.shape[0])) / np.sqrt(m.shape[0])
            return _worst("canonical", **res)

        def inspect_factor(result, c=dense, out_v=out_v):
            v = report_matrix(result["V"])
            if "oracle" not in result:
                return Check(False, float("inf"), "factor: oracle section missing")
            if not np.array_equal(read_matrix(out_v), v):
                return Check(False, float("inf"), "factor: --out-v file differs from reported V")
            check = _worst("factor", V=factor_residual(c, v))
            check.branches = tuple(e["branch"] for e in result["trace"])
            return check

        def inspect_verify(result, c=dense, out_v=out_v):
            recomputed = factor_residual(c, read_matrix(out_v))
            if not (result["pass"] and abs(result["relative_residual"] - recomputed)
                    <= 1e-12 + 1e-6 * recomputed):
                return Check(False, float("inf"), "verify: report disagrees with recomputed residual")
            return _worst("verify", V=recomputed)

        specs = [
            ("analyze", ["analyze", paths["paired"]], inspect_analyze),
            ("canonical", ["canonical", paths["paired"]],
             lambda r, h=paired: inspect_canonical(r, h, False)),
            ("canonical-selfadjoint", ["canonical", "--selfadjoint", paths["herm"]],
             lambda r, h=herm: inspect_canonical(r, h, True)),
            ("factor", ["factor", "--oracle", "--out-v", out_v, paths["dense"]], inspect_factor),
            ("verify", ["verify", paths["dense"], out_v], inspect_verify),
        ]
        for name, argv, inspect in specs:
            label = f"{name}:seed{s}"
            wl.ops.append(Op(label, s, lambda argv=argv: _call_cli(cli, argv),
                             checks.wrap(label, inspect)))
    return wl


def build(name: str, mods, seed: int, size: dict, workdir: str, reports: dict | None = None) -> Workload:
    """Build workload ``name``; ``reports`` collects first CLI reports per input."""
    if name == "dense":
        return build_dense(mods, seed, size)
    if name == "isotropic":
        return build_isotropic(mods, seed, size)
    if name == "cli":
        return build_cli(mods, seed, size, workdir, {} if reports is None else reports)
    raise ValueError(f"unknown workload {name!r}")


WORKLOAD_NAMES = ("dense", "isotropic", "cli")
