"""Dense complex eigensolver.

Spectra and eigenvectors come from LAPACK (``np.linalg.eigvals`` and
``np.linalg.eig``).  Eigenpair candidates are picked from a spectrum: one
``np.linalg.eig`` call, or the eigenpairs that a complex-orthogonal
factorization level carried down from the block above.  A simple eigenvalue
away from zero takes its eigenvector as it is; a near-zero or clustered one
takes one SVD (of A, or of A - lambda*I), whose smallest right singular
vectors give both the eigenvector and an orthonormal basis of the whole
numerical eigenspace or null space.
On top of that: assembly of a complete biorthonormal eigensystem
{psi, phi} with Phi^* Psi = I for diagonalizable operators, from one
``np.linalg.eig`` call; only a repeated eigenvalue takes an SVD of its own.
LAPACK's non-convergence is a ConvergenceError throughout.
"""

from __future__ import annotations

from contextlib import contextmanager
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
#: singular values at most this multiple of |A|_F span the numerical
#: eigenspace (or null space); ``factor`` also treats a whole block this small,
#: relative to the input, as zero
_EIGENSPACE_CUT = 1e-11


class ConvergenceError(RuntimeError):
    """LAPACK's eigenvalue or singular value iteration failed to converge, or
    no eigenvalue candidate gave an eigenpair within eig_tol."""


class DefectiveOperatorError(ValueError):
    """The operator is not diagonalizable to working precision."""


@contextmanager
def _lapack(what: str):
    """Re-raise LAPACK's non-convergence (LinAlgError) as a ConvergenceError."""
    try:
        yield
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"{what} did not converge: {exc}") from exc


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


def _phase_canonical_columns(m: np.ndarray) -> np.ndarray:
    """``_phase_canonical`` of every (nonzero) column of m, in place."""
    peak = m[np.argmax(np.abs(m), axis=0), np.arange(m.shape[1])]
    m *= np.abs(peak) / peak
    return m


def _rng(seed: int, *streams: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed)] + [int(s) & 0xFFFFFFFF for s in streams]))


def eigenvalues(a, cfg: ToleranceConfig | None = None) -> list:
    """All eigenvalues (with multiplicity), sorted by (real, imag).

    ``cfg`` is accepted for a uniform call signature (callers pass it);
    LAPACK's QR iteration has no budget to set.  Its non-convergence raises
    ConvergenceError.
    """
    a = as_matrix(a, square=True, name="A")
    with _lapack("eigenvalue iteration"):
        vals = np.linalg.eigvals(a)
    return sorted((complex(v) for v in vals), key=lambda z: (z.real, z.imag))


def _rayleigh_pair(a: np.ndarray, v: np.ndarray) -> EigenPair:
    """Unit v with its Rayleigh quotient v^* A v and residual."""
    av = a @ v
    lam = complex(np.vdot(v, av))
    return EigenPair(value=lam, vector=_phase_canonical(v), residual=frobenius(av - lam * v))


def _candidate_pairs(a: np.ndarray, cfg: ToleranceConfig, spectrum=None, scale: float | None = None):
    """Yield (pair, basis, rest) for each distinct eigenvalue candidate.

    The candidates are the eigenvalues of ``spectrum`` = (vals, vecs), the
    eigenpairs of A carried down from the level above, or else of one
    ``np.linalg.eig`` call, ordered largest modulus first (ties by the
    position in the (real, imag) sort).  Each candidate's gap test is one
    row |vals - vals[i]|, built when the walk reaches it: the candidate is
    simple when every other eigenvalue lies farther than _SIMPLE_GAP*|A|_F,
    and a candidate that is not simple is absorbed (skipped) when it lies
    within 1e-12*|A|_F of an earlier candidate that was not absorbed.
    A simple candidate away from zero yields its eigenvector with its
    Rayleigh quotient, ``basis`` None and ``rest`` the other eigenpairs
    (vals, vecs), when the residual meets eig_tol*|A|_F.  When a carried
    vector misses, the carried spectrum has drifted: the walk stops, and the
    caller takes a fresh one.  Every other candidate takes one SVD, of A
    itself when the candidate is near zero and of A - cand*I otherwise.  Its
    pair is the smallest right singular vector with its Rayleigh quotient,
    ``basis`` (orthonormal columns) holds the right singular vectors whose
    singular value is at most max(_EIGENSPACE_CUT*|A|_F, 10*residual): the
    numerical eigenspace, or null space; ``rest`` is None.  A pair whose
    residual misses eig_tol*|A|_F is skipped.  Pairs are computed only as
    the caller asks for them.  ``scale`` is |A|_F when the caller has it.
    """
    scale = frobenius(a) if scale is None else scale
    n = a.shape[0]
    carried = spectrum is not None
    if carried:  # already in candidate order: a level removes one entry and rescales
        vals, vecs = spectrum
    else:
        with _lapack("eigenvalue iteration"):
            vals, vecs = np.linalg.eig(a)
        order = np.lexsort((vals.imag, vals.real))
        order = order[np.argsort(-np.abs(vals[order]), kind="stable")]
        vals, vecs = vals[order], vecs[:, order]
    kept = []  # the candidates visited so far; absorbed ones are not
    for i in range(n):
        gap = np.abs(vals - vals[i])
        gap[i] = np.inf
        simple = gap.min() > _SIMPLE_GAP * scale
        if not simple and (gap[kept] <= 1e-12 * scale).any():  # absorbed by an earlier kept one
            continue
        kept.append(i)
        cand = complex(vals[i])
        near_zero = abs(cand) <= _NEAR_ZERO * scale
        if simple and not near_zero:
            pair = _rayleigh_pair(a, vecs[:, i] / frobenius(vecs[:, i]))
            if pair.residual <= cfg.eig_tol * scale:
                rest = (vals[1:], vecs[:, 1:]) if i == 0 else (np.delete(vals, i), np.delete(vecs, i, axis=1))
                yield pair, None, rest
                continue
            if carried:
                return
        shifted = a if near_zero else a - cand * np.eye(n, dtype=np.complex128)
        with _lapack("singular value decomposition"):
            _, sv, vh = np.linalg.svd(shifted)
        pair = _rayleigh_pair(a, vh[-1].conj())
        if pair.residual <= cfg.eig_tol * scale:
            # the smallest direction always belongs, also when the residual is
            # far below its singular value
            k = max(1, int(np.sum(sv <= max(_EIGENSPACE_CUT * scale, 10.0 * pair.residual))))
            yield pair, vh[n - k :].conj().T, None


def eigenpair(a, cfg: ToleranceConfig | None = None) -> EigenPair:
    """One eigenpair at the selected eigenvalue.

    Selection rule: the largest-modulus eigenvalue whose eigenpair meets
    eig_tol (directly from LAPACK, or from the SVD), falling back to
    the next candidate otherwise.
    """
    a = as_matrix(a, square=True, name="A")
    cfg = cfg or ToleranceConfig()
    scale = frobenius(a)
    if scale == 0.0:
        raise ValidationError("eigenpair requires a nonzero matrix")
    for pair, _, _ in _candidate_pairs(a, cfg, scale=scale):
        return pair
    raise ConvergenceError("no eigenvalue candidate gave an eigenpair within eig_tol")


def _cluster(values, eps: float):
    """Group eigenvalues closer than eps into levels (connected components).

    Returns (mean, members) per level, sorted by the mean's (real, imag);
    ``members`` are indices into ``values``, ascending.
    """
    n = len(values)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    vals = np.asarray(values, dtype=np.complex128)
    for i, j in zip(*np.nonzero(np.triu(np.abs(vals[:, None] - vals[None, :]) <= eps, 1))):
        parent[find(i)] = find(j)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    levels = []
    for members in groups.values():
        mean = sum(values[i] for i in members) / len(members)
        levels.append((complex(mean), members))
    levels.sort(key=lambda t: (t[0].real, t[0].imag))
    return levels


def biorthonormal_system(h, cfg: ToleranceConfig | None = None) -> BiorthonormalSystem:
    """Complete biorthonormal eigensystem of a diagonalizable operator.

    One ``np.linalg.eig`` call gives the spectrum and the eigenvectors; its
    eigenvalues closer than 1e-8*|H|_F are clustered into distinct levels.  A
    level of multiplicity 1 takes its unit eigenvector from that call.  A
    repeated level takes one SVD of (H - E I): its psi block is an
    orthonormal basis of the null space, and the level is defective when
    fewer singular values than the multiplicity lie under 1e-8*|H|_F.  Every
    psi column has its phase fixed (largest-modulus entry real positive).
    The dual blocks are the columns of (Psi^{-1})^*, so Phi^* Psi = I holds
    globally.  Raises DefectiveOperatorError when some eigenspace is smaller
    than the eigenvalue's multiplicity, the eigenvector matrix is too
    ill-conditioned or fails to reproduce the action of H, and
    ConvergenceError when a LAPACK iteration does not converge.
    """
    h = as_matrix(h, square=True, name="H")
    cfg = cfg or ToleranceConfig()
    n = h.shape[0]
    norm_h = frobenius(h)
    with _lapack("eigenvalue iteration"):
        vals, vecs = np.linalg.eig(h)
    levels_meta = _cluster(vals, 1e-8 * norm_h)
    theta = 1e-8 * max(norm_h, np.finfo(np.float64).tiny)
    psi = vecs[:, [i for _, members in levels_meta for i in members]]
    psi /= np.linalg.norm(psi, axis=0)
    col = 0
    for value, members in levels_meta:
        mult = len(members)
        if mult > 1:
            with _lapack("singular value decomposition"):
                _, s, vh = np.linalg.svd(h - value * np.eye(n, dtype=np.complex128))
            null_dim = int(np.sum(s <= theta))
            if null_dim < mult:
                raise DefectiveOperatorError(
                    f"eigenvalue {value:.6g} has multiplicity {mult} but eigenspace dimension {null_dim}"
                )
            # smallest singular directions first
            psi[:, col : col + mult] = vh[n - mult :, :].conj().T[:, ::-1]
        col += mult
    _phase_canonical_columns(psi)
    with _lapack("singular value decomposition"):
        cond = float(np.linalg.cond(psi))
    if not np.isfinite(cond) or cond > 1e8:
        raise DefectiveOperatorError(f"eigenvector matrix condition {cond:.3g} exceeds 1e8")
    diag = np.concatenate([[value] * len(members) for value, members in levels_meta])
    if frobenius(h @ psi - psi * diag) > 1e-8 * max(norm_h, np.finfo(np.float64).tiny):
        raise DefectiveOperatorError("assembled eigenvectors do not reproduce the operator action")
    try:
        phi = solve_linear(psi, np.eye(n, dtype=np.complex128)).conj().T
    except SingularMatrixError as exc:
        raise DefectiveOperatorError("eigenvector matrix is numerically singular") from exc
    levels = []
    col = 0
    for value, members in levels_meta:
        mult = len(members)
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
