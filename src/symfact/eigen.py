"""Dense complex eigensolver.

Spectra and eigenvectors come from LAPACK (``np.linalg.eigvals`` and
``np.linalg.eig``).  Eigenpairs are picked from one ``np.linalg.eig`` call:
a simple eigenvalue away from zero takes LAPACK's eigenvector as it is; a
near-zero or clustered one is converged by inverse iteration with Rayleigh
refinement, on a guarded LU that keeps near-singular shifts solvable and
makes the representative of a multi-dimensional eigenspace reproducible.
On top of that: assembly of a complete biorthonormal eigensystem
{psi, phi} with Phi^* Psi = I for diagonalizable operators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matcore import (
    ToleranceConfig,
    ValidationError,
    SingularMatrixError,
    as_matrix,
    frobenius,
    solve_linear,
    _lu,
    _lu_solve,
)


#: candidates with |lambda| at most this multiple of |A|_F are near zero:
#: inverse iteration probes them at an almost-zero shift first
_NEAR_ZERO = 1e-6
#: a candidate is simple when every other eigenvalue lies farther than this
#: multiple of |A|_F; only then is LAPACK's eigenvector taken as it is
_SIMPLE_GAP = 1e-6


class ConvergenceError(RuntimeError):
    """The eigenvalue iteration or inverse iteration failed to converge."""


class DefectiveOperatorError(ValueError):
    """The operator is not diagonalizable to working precision."""


@dataclass(frozen=True)
class EigenPair:
    """One eigenvalue with a unit-norm eigenvector and its residual
    |A e - value*e| (absolute, bounded by eig_tol * |A|_F on success)."""

    value: complex
    vector: np.ndarray
    residual: float


@dataclass(frozen=True)
class EigenLevel:
    """One distinct eigenvalue: its multiplicity and the psi/phi column blocks."""

    value: complex
    multiplicity: int
    psi: np.ndarray
    phi: np.ndarray


@dataclass(frozen=True)
class BiorthonormalSystem:
    levels: tuple
    dim: int

    def psi_matrix(self) -> np.ndarray:
        return np.hstack([lv.psi for lv in self.levels])

    def phi_matrix(self) -> np.ndarray:
        return np.hstack([lv.phi for lv in self.levels])

    def eigenvalue_matrix(self) -> np.ndarray:
        return np.diag(np.concatenate([[lv.value] * lv.multiplicity for lv in self.levels]))


def _phase_canonical(v: np.ndarray) -> np.ndarray:
    """Fix the free complex phase: largest-modulus entry made real positive."""
    i = int(np.argmax(np.abs(v)))
    a = v[i]
    if a == 0.0:
        return v
    return v * (abs(a) / a)


def _rng(seed: int, *streams: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed)] + [int(s) & 0xFFFFFFFF for s in streams]))


def eigenvalues(a, cfg: ToleranceConfig | None = None) -> list:
    """All eigenvalues (with multiplicity), sorted by (real, imag).

    ``cfg`` is accepted for a uniform call signature; LAPACK's QR iteration
    has no budget to set.  Its non-convergence raises ConvergenceError.
    """
    a = as_matrix(a, square=True, name="A")
    try:
        vals = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigenvalue iteration did not converge: {exc}") from exc
    return sorted((complex(v) for v in vals), key=lambda z: (z.real, z.imag))


def _guarded_shift_solve(a: np.ndarray, shift: complex):
    with np.errstate(all="ignore"):
        m = a - shift * np.eye(a.shape[0], dtype=np.complex128)
        lu, order = _lu(m)
    return lambda b: _lu_solve(lu, order, b.reshape(-1, 1))[:, 0]


def _inverse_iterate(a: np.ndarray, cand: complex, cfg: ToleranceConfig, salt: int):
    """Converge one eigenpair near the candidate eigenvalue.

    Inverse iteration with Rayleigh refinement; near-zero candidates get an
    extra probe at an almost-zero shift, which pins down the genuine
    eigendirection of nilpotent operators.  Returns (residual, value, vector)
    or None on stagnation.
    """
    scale = frobenius(a)
    n = a.shape[0]
    shifts = []
    if abs(cand) <= _NEAR_ZERO * scale:
        shifts.append(1e-14 * scale)  # probe an exactly-null direction first
    shifts.append(cand)
    shifts.append(cand + 1e-8 * scale * (0.6 + 0.8j))
    shifts.append(cand * (1.0 + 1e-7) + 1e-9 * scale)
    best = None
    for ai, shift in enumerate(shifts):
        rng = _rng(cfg.seed, 0xE16, n, salt, ai)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v /= np.linalg.norm(v)
        solve = _guarded_shift_solve(a, shift)
        with np.errstate(all="ignore"):
            for _ in range(8):
                w = solve(v)
                nw = np.linalg.norm(w)
                if not np.isfinite(nw) or nw == 0.0:
                    break
                v = w / nw
                if not np.all(np.isfinite(v.real)) or not np.all(np.isfinite(v.imag)):
                    break
                lam = complex(np.vdot(v, a @ v))
                res = float(np.linalg.norm(a @ v - lam * v))
                if abs(lam - cand) > 1e-3 * scale:
                    break  # wandered to a different eigenvalue
                if best is None or res < best[0]:
                    best = (res, lam, v.copy())
                if res <= 1e-14 * scale:
                    break
                if res > 1e-13 * scale:
                    solve = _guarded_shift_solve(a, lam)
        if best is not None and best[0] <= 1e-13 * scale:
            break
    if best is not None and best[0] <= cfg.eig_tol * scale:
        return best
    return None


def _candidate_pairs(a: np.ndarray, cfg: ToleranceConfig):
    """Yield (pair, direct) for each distinct eigenvalue candidate.

    The candidates come from one ``np.linalg.eig`` call, deduplicated at
    1e-12*|A|_F and ordered largest modulus first (ties by the position in
    the (real, imag) sort).  A simple candidate away from zero yields
    LAPACK's eigenvector with its Rayleigh quotient (``direct`` True) when
    the residual meets eig_tol*|A|_F; every other candidate is converged by
    inverse iteration, and skipped when that stagnates.  Pairs are computed
    only as the caller asks for them.
    """
    scale = frobenius(a)
    try:
        vals, vecs = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigenvalue iteration did not converge: {exc}") from exc
    order = np.lexsort((vals.imag, vals.real))
    order = order[np.argsort(-np.abs(vals[order]), kind="stable")]
    vals, vecs = vals[order], vecs[:, order]
    dist = np.abs(vals[:, None] - vals[None, :])
    np.fill_diagonal(dist, np.inf)
    simple = dist.min(axis=1) > _SIMPLE_GAP * scale
    earlier = np.triu(dist <= 1e-12 * scale)  # earlier[j, i]: j < i lies within the dedupe cut
    keep = np.ones(vals.size, dtype=bool)
    for i in np.flatnonzero(earlier.any(axis=0)):
        keep[i] = not np.any(earlier[:i, i] & keep[:i])
    for ci, i in enumerate(np.flatnonzero(keep)):
        cand = complex(vals[i])
        if simple[i] and abs(cand) > _NEAR_ZERO * scale:
            v = vecs[:, i] / np.linalg.norm(vecs[:, i])
            av = a @ v
            lam = complex(np.vdot(v, av))
            res = float(np.linalg.norm(av - lam * v))
            if res <= cfg.eig_tol * scale:
                yield EigenPair(value=lam, vector=_phase_canonical(v), residual=res), True
                continue
        got = _inverse_iterate(a, cand, cfg, ci)
        if got is not None:
            res, lam, v = got
            yield EigenPair(value=lam, vector=_phase_canonical(v), residual=res), False


def eigenpair(a, cfg: ToleranceConfig | None = None) -> EigenPair:
    """One eigenpair at the selected eigenvalue.

    Selection rule: the largest-modulus eigenvalue whose eigenvector is
    found (directly from LAPACK, or by inverse iteration that converges),
    falling back to the next candidate on stagnation.
    """
    a = as_matrix(a, square=True, name="A")
    cfg = cfg or ToleranceConfig()
    if frobenius(a) == 0.0:
        raise ValidationError("eigenpair requires a nonzero matrix")
    for pair, _ in _candidate_pairs(a, cfg):
        return pair
    raise ConvergenceError("inverse iteration stagnated for every eigenvalue candidate")


def _cluster(values, eps: float):
    """Group eigenvalues closer than eps into levels (connected components)."""
    n = len(values)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(values[i] - values[j]) <= eps:
                parent[find(i)] = find(j)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    levels = []
    for members in groups.values():
        mean = sum(values[i] for i in members) / len(members)
        levels.append((complex(mean), len(members)))
    levels.sort(key=lambda t: (t[0].real, t[0].imag))
    return levels


def biorthonormal_system(h, cfg: ToleranceConfig | None = None) -> BiorthonormalSystem:
    """Complete biorthonormal eigensystem of a diagonalizable operator.

    Eigenvalues are clustered into distinct levels; each level's psi block is
    an orthonormal null-space basis of (H - E I).  The dual blocks are the
    columns of (Psi^{-1})^*, so Phi^* Psi = I holds globally.  Raises
    DefectiveOperatorError when some eigenspace is smaller than the
    eigenvalue's multiplicity or the eigenvector matrix is too ill-conditioned.
    """
    h = as_matrix(h, square=True, name="H")
    cfg = cfg or ToleranceConfig()
    n = h.shape[0]
    norm_h = frobenius(h)
    vals = eigenvalues(h, cfg)
    eps_cluster = 1e-8 * norm_h
    levels_meta = _cluster(vals, eps_cluster)
    theta = 1e-8 * max(norm_h, np.finfo(np.float64).tiny)
    psi_blocks = []
    for value, mult in levels_meta:
        m = h - value * np.eye(n, dtype=np.complex128)
        _, s, vh = np.linalg.svd(m)
        null_dim = int(np.sum(s <= theta))
        if null_dim < mult:
            raise DefectiveOperatorError(
                f"eigenvalue {value:.6g} has multiplicity {mult} but eigenspace dimension {null_dim}"
            )
        block = vh[n - mult :, :].conj().T[:, ::-1]  # smallest singular directions first
        block = np.column_stack([_phase_canonical(block[:, j]) for j in range(mult)])
        psi_blocks.append(block)
    psi = np.hstack(psi_blocks)
    cond = float(np.linalg.cond(psi))
    if not np.isfinite(cond) or cond > 1e8:
        raise DefectiveOperatorError(f"eigenvector matrix condition {cond:.3g} exceeds 1e8")
    diag = np.concatenate([[value] * mult for value, mult in levels_meta])
    if frobenius(h @ psi - psi * diag) > 1e-8 * max(norm_h, np.finfo(np.float64).tiny):
        raise DefectiveOperatorError("assembled eigenvectors do not reproduce the operator action")
    try:
        phi = solve_linear(psi, np.eye(n, dtype=np.complex128)).conj().T
    except SingularMatrixError as exc:
        raise DefectiveOperatorError("eigenvector matrix is numerically singular") from exc
    levels = []
    col = 0
    for value, mult in levels_meta:
        levels.append(
            EigenLevel(
                value=value,
                multiplicity=mult,
                psi=psi[:, col : col + mult].copy(),
                phi=phi[:, col : col + mult].copy(),
            )
        )
        col += mult
    return BiorthonormalSystem(levels=tuple(levels), dim=n)
