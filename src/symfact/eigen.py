"""Dense complex eigensolver.

Spectra and eigenvectors come from LAPACK (``np.linalg.eigvals`` and
``np.linalg.eig``).  Eigenpairs are picked from one ``np.linalg.eig`` call:
a simple eigenvalue away from zero takes LAPACK's eigenvector as it is; a
near-zero or clustered one takes one SVD (of A, or of A - lambda*I), whose
smallest right singular vectors give both the eigenvector and an
orthonormal basis of the whole numerical eigenspace or null space.
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
)


#: candidates with |lambda| at most this multiple of |A|_F are near zero:
#: their SVD is of A itself, so the basis is the numerical null space
_NEAR_ZERO = 1e-6
#: a candidate is simple when every other eigenvalue lies farther than this
#: multiple of |A|_F; only then is LAPACK's eigenvector taken as it is
_SIMPLE_GAP = 1e-6


class ConvergenceError(RuntimeError):
    """LAPACK's eigenvalue or singular value iteration failed to converge, or
    no eigenvalue candidate gave an eigenpair within eig_tol."""


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

    ``cfg`` is accepted for a uniform call signature (callers pass it);
    LAPACK's QR iteration has no budget to set.  Its non-convergence raises
    ConvergenceError.
    """
    a = as_matrix(a, square=True, name="A")
    try:
        vals = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigenvalue iteration did not converge: {exc}") from exc
    return sorted((complex(v) for v in vals), key=lambda z: (z.real, z.imag))


def _rayleigh_pair(a: np.ndarray, v: np.ndarray) -> EigenPair:
    """Unit v with its Rayleigh quotient v^* A v and residual."""
    av = a @ v
    lam = complex(np.vdot(v, av))
    return EigenPair(value=lam, vector=_phase_canonical(v), residual=float(np.linalg.norm(av - lam * v)))


def _candidate_pairs(a: np.ndarray, cfg: ToleranceConfig):
    """Yield (pair, basis) for each distinct eigenvalue candidate.

    The candidates come from one ``np.linalg.eig`` call, deduplicated at
    1e-12*|A|_F and ordered largest modulus first (ties by the position in
    the (real, imag) sort).  A simple candidate away from zero yields
    LAPACK's eigenvector with its Rayleigh quotient and ``basis`` None, when
    the residual meets eig_tol*|A|_F.  Every other candidate takes one SVD,
    of A itself when the candidate is near zero and of A - cand*I otherwise.
    Its pair is the smallest right singular vector with its Rayleigh
    quotient, and ``basis`` (orthonormal columns) holds the right singular
    vectors whose singular value is at most max(1e-11*|A|_F, 10*residual):
    the numerical eigenspace, or null space.  A pair whose residual misses
    eig_tol*|A|_F is skipped.  Pairs are computed only as the caller asks
    for them.
    """
    scale = frobenius(a)
    n = a.shape[0]
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
    for i in np.flatnonzero(keep):
        cand = complex(vals[i])
        near_zero = abs(cand) <= _NEAR_ZERO * scale
        if simple[i] and not near_zero:
            pair = _rayleigh_pair(a, vecs[:, i] / np.linalg.norm(vecs[:, i]))
            if pair.residual <= cfg.eig_tol * scale:
                yield pair, None
                continue
        shifted = a if near_zero else a - cand * np.eye(n, dtype=np.complex128)
        try:
            _, sv, vh = np.linalg.svd(shifted)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"singular value decomposition did not converge: {exc}") from exc
        pair = _rayleigh_pair(a, vh[-1].conj())
        if pair.residual <= cfg.eig_tol * scale:
            # the smallest direction always belongs, also when the residual is
            # far below its singular value
            k = max(1, int(np.sum(sv <= max(1e-11 * scale, 10.0 * pair.residual))))
            yield pair, vh[n - k :].conj().T


def eigenpair(a, cfg: ToleranceConfig | None = None) -> EigenPair:
    """One eigenpair at the selected eigenvalue.

    Selection rule: the largest-modulus eigenvalue whose eigenpair meets
    eig_tol (directly from LAPACK, or from the SVD), falling back to
    the next candidate otherwise.
    """
    a = as_matrix(a, square=True, name="A")
    cfg = cfg or ToleranceConfig()
    if frobenius(a) == 0.0:
        raise ValidationError("eigenpair requires a nonzero matrix")
    for pair, _ in _candidate_pairs(a, cfg):
        return pair
    raise ConvergenceError("no eigenvalue candidate gave an eigenpair within eig_tol")


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
