"""Dense complex eigensolver.

Spectra and eigenvectors come from LAPACK (``np.linalg.eigvals`` and
``np.linalg.eig``).  Eigenpair candidates are picked from one
``np.linalg.eig`` call of the block at hand.  A simple eigenvalue away from
zero takes its eigenvector as it is.  A cluster whose eig vectors are a
well-conditioned basis of a numerical eigenspace takes them as they are; any
other clustered or near-zero eigenvalue takes one SVD (of A, or of
A - lambda*I), whose smallest right singular vectors give both the
eigenvector and an orthonormal basis of the whole numerical eigenspace or
null space, and whose other right singular vectors complete a null space
unitarily.
On top of that: assembly of a complete biorthonormal eigensystem
{psi, phi} with Phi^* Psi = I for diagonalizable operators, from one
``np.linalg.eig`` call; only a repeated eigenvalue takes an SVD of its own.
LAPACK's non-convergence is a ConvergenceError throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matcore import (
    _DEFAULT_CONFIG,
    ToleranceConfig,
    ValidationError,
    SingularMatrixError,
    _inverse,
    as_matrix,
    frobenius,
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
#: eig's unit vectors of a cluster are its eigenspace's basis only when their Gram matrix
#: has smallest eigenvalue at least this (condition at most 1e2)
_MIN_GRAM = 1e-4


class ConvergenceError(RuntimeError):
    """LAPACK's eigenvalue or singular value iteration failed to converge, or
    no eigenvalue candidate gave an eigenpair within eig_tol."""


class DefectiveOperatorError(ValueError):
    """The operator is not diagonalizable to working precision."""


class _lapack:
    """Context that re-raises LAPACK's non-convergence (LinAlgError) as a ConvergenceError."""

    def __init__(self, what: str):
        self.what = what

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        if kind is not None and issubclass(kind, np.linalg.LinAlgError):
            raise ConvergenceError(f"{self.what} did not converge: {exc}") from exc
        return False


# one context per LAPACK iteration: it holds nothing but its name, so every call shares it
_EIGENVALUE_ITERATION = _lapack("eigenvalue iteration")
_SINGULAR_VALUE_DECOMPOSITION = _lapack("singular value decomposition")


@dataclass(frozen=True, slots=True)
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
    i = int(np.abs(v).argmax())
    a = v[i]
    if a == 0.0:
        return v
    return v * complex(abs(a) / a)


def _phase_canonical_columns(m: np.ndarray) -> np.ndarray:
    """``_phase_canonical`` of every (nonzero) column of m, in place."""
    peak = m[np.argmax(np.abs(m), axis=0), np.arange(m.shape[1])]
    m *= np.abs(peak) / peak
    return m


def _condition(m: np.ndarray) -> float:
    """2-norm condition number of a finite matrix, as ``np.linalg.cond`` gives it: inf when singular."""
    with _SINGULAR_VALUE_DECOMPOSITION:
        s = np.linalg.svd(m, compute_uv=False)
    if s[-1] == 0.0:
        return np.inf
    return float(s[0] / s[-1])


def eigenvalues(a, cfg: ToleranceConfig | None = None) -> list:
    """All eigenvalues (with multiplicity), sorted by (real, imag).

    ``cfg`` is accepted for a uniform call signature (callers pass it);
    LAPACK's QR iteration has no budget to set.  Its non-convergence raises
    ConvergenceError.
    """
    a = as_matrix(a, square=True, name="A")
    with _EIGENVALUE_ITERATION:
        vals = np.linalg.eigvals(a)
    return sorted((complex(v) for v in vals), key=lambda z: (z.real, z.imag))


def _rayleigh_pair(a: np.ndarray, v: np.ndarray, av: np.ndarray | None = None) -> EigenPair:
    """Unit v with its Rayleigh quotient v^* A v and residual; ``av`` is A v when the caller has it."""
    av = a.dot(v) if av is None else av
    lam = complex(np.vdot(v, av))
    return EigenPair(lam, _phase_canonical(v), frobenius(av - lam * v))


def _simple_and_near_zero(gap, modulus, scale):
    """(simple, near zero) for a candidate ``gap`` from the next eigenvalue, in a block of norm ``scale``."""
    return gap > _SIMPLE_GAP * scale, modulus <= _NEAR_ZERO * scale


def _candidate_pairs(a: np.ndarray, cfg: ToleranceConfig, scale: float | None = None):
    """Yield (pair, basis, rest, complement) for each distinct eigenvalue candidate.

    The candidates are the eigenvalues of one ``np.linalg.eig`` call, ordered
    largest modulus first (ties by the position in the (real, imag) sort).
    Each candidate's gap test is one row |vals - vals[i]|, built when the
    walk reaches it: the candidate is simple when every other eigenvalue lies
    farther than _SIMPLE_GAP*|A|_F, and a candidate that is not simple is
    absorbed (skipped) when it lies within 1e-12*|A|_F of an earlier
    candidate that was not absorbed.  A simple candidate away from zero
    yields its eigenvector with its Rayleigh quotient, ``basis`` None and
    ``rest`` the other eigenpairs (vals, vecs) in candidate order, when the
    residual meets eig_tol*|A|_F.  A clustered candidate away from zero
    yields the Rayleigh pair of its eigenvector and ``basis`` eig's unit
    vectors of its cluster when ``_semisimple_cluster`` accepts them; these
    columns are not orthonormal.  Every other candidate takes one SVD, of A
    itself when the candidate is near zero and of A - cand*I otherwise.  Its
    pair is the smallest right singular vector with its Rayleigh quotient,
    ``basis`` (orthonormal columns) holds the right singular vectors whose
    singular value is at most max(_EIGENSPACE_CUT*|A|_F, 10*residual): the
    numerical eigenspace, or null space.  ``rest`` is None off the simple
    route; ``complement`` is None but for a near-zero candidate, where it
    holds the SVD's other right singular vectors, so that [complement | basis]
    is unitary.  A pair whose residual misses eig_tol*|A|_F is skipped.
    Pairs are computed only as the caller asks for them, and eig's vectors
    are put in candidate order only when a candidate away from zero first
    reads them.  ``scale`` is |A|_F when the caller has it.
    """
    scale = frobenius(a) if scale is None else scale
    n = a.shape[0]
    with _EIGENVALUE_ITERATION:
        vals, vecs = np.linalg.eig(a)
    order = np.lexsort((vals.imag, vals.real, -np.abs(vals)))  # modulus first, then (real, imag)
    vals = vals[order]
    ordered = None  # eig's vectors in candidate order, taken when a candidate first reads them
    kept = []  # the candidates visited so far; absorbed ones are not
    for i in range(n):
        cand = complex(vals[i])
        gap = np.abs(vals - cand)
        gap[i] = np.inf
        row = gap.tolist()
        simple, near_zero = _simple_and_near_zero(min(row), abs(cand), scale)
        if not simple and any(row[k] <= 1e-12 * scale for k in kept):  # absorbed by an earlier kept one
            continue
        kept.append(i)
        if ordered is None and not near_zero:  # a near-zero candidate takes the SVD route alone
            ordered = vecs[:, order]
        if simple and not near_zero:
            pair = _rayleigh_pair(a, ordered[:, i] / frobenius(ordered[:, i]))
            if pair.residual <= cfg.eig_tol * scale:
                rest = (vals[1:], ordered[:, 1:]) if i == 0 else (np.delete(vals, i), np.delete(ordered, i, axis=1))
                yield pair, None, rest, None
                continue
        if not (simple or near_zero):
            near = gap <= _SIMPLE_GAP * scale
            near[i] = True
            cluster = _semisimple_cluster(a, cfg, ordered, near, i, scale)
            if cluster is not None:
                yield (*cluster, None, None)
                continue
        shifted = a if near_zero else a - cand * np.eye(n, dtype=np.complex128)
        with _SINGULAR_VALUE_DECOMPOSITION:
            _, sv, vh = np.linalg.svd(shifted)
        right = vh.conj()  # the right singular vectors, one per row
        pair = _rayleigh_pair(a, right[-1])
        if pair.residual <= cfg.eig_tol * scale:
            # the smallest direction always belongs, also when the residual is
            # far below its singular value
            cut = max(_EIGENSPACE_CUT * scale, 10.0 * pair.residual)
            k = max(1, sum(map(cut.__ge__, sv.tolist())))  # the singular values <= cut, in scalars
            yield pair, right[n - k :].T, None, right[: n - k].T if near_zero else None


def _semisimple_cluster(a: np.ndarray, cfg: ToleranceConfig, vecs: np.ndarray, near: np.ndarray, i: int,
                        scale: float):
    """(pair, basis) of candidate i from eig's own unit vectors ``vecs`` of its cluster (``near``
    marks its members, i among them), or None when they are no well-conditioned basis of a
    numerical eigenspace.

    The basis B is taken when its Gram matrix B^* B has smallest eigenvalue at least
    _MIN_GRAM (1 - |b_0^* b_1| for two columns; a defective cluster's vectors are nearly
    parallel), the Rayleigh pair of column i meets eig_tol*|A|_F, and |A B - lambda B|_F is
    within the SVD route's cut max(_EIGENSPACE_CUT*|A|_F, 10*residual).
    """
    b = vecs[:, near]
    if b.shape[1] == 2:
        smallest = 1.0 - abs(complex(np.vdot(b[:, 0], b[:, 1])))
    else:
        smallest = float(np.linalg.eigvalsh(b.conj().T @ b)[0])
    if smallest < _MIN_GRAM:
        return None
    ab = a.dot(b)
    j = near[:i].tolist().count(True)
    norm = frobenius(b[:, j])
    pair = _rayleigh_pair(a, b[:, j] / norm, ab[:, j] / norm)
    if pair.residual > cfg.eig_tol * scale:
        return None
    if frobenius(ab - pair.value * b) > max(_EIGENSPACE_CUT * scale, 10.0 * pair.residual):
        return None
    return pair, b


def eigenpair(a, cfg: ToleranceConfig | None = None) -> EigenPair:
    """One eigenpair at the selected eigenvalue.

    Selection rule: the largest-modulus eigenvalue whose eigenpair meets
    eig_tol, falling back to the next candidate otherwise.  The pair comes
    from one ``np.linalg.eig`` call: a simple eigenvalue's eigenvector as
    LAPACK gives it, a semisimple cluster's from eig's own unit vectors of
    it; any other clustered or near-zero candidate's from the SVD of
    A - lambda*I (of A itself near zero).
    """
    a = as_matrix(a, square=True, name="A")
    cfg = cfg or _DEFAULT_CONFIG
    scale = frobenius(a)
    if scale == 0.0:
        raise ValidationError("eigenpair requires a nonzero matrix")
    for pair, *_ in _candidate_pairs(a, cfg, scale=scale):
        return pair
    raise ConvergenceError("no eigenvalue candidate gave an eigenpair within eig_tol")


def _cluster(values, eps: float):
    """Group eigenvalues closer than eps into levels (connected components).

    Returns (mean, members) per level, sorted by the mean's (real, imag);
    ``members`` are indices into ``values``, ascending.  When no two values
    lie within eps, each is its own level, with no union-find; its mean is
    still sum([v]) / 1, which turns an imaginary -0.0 into +0.0.
    """
    n = len(values)
    vals = np.asarray(values, dtype=np.complex128)
    close = np.triu(np.abs(vals[:, None] - vals[None, :]) <= eps, 1)
    if not close.any():
        levels = [(complex(sum([v]) / 1), [i]) for i, v in enumerate(values)]
    else:
        parent = list(range(n))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for i, j in zip(*np.nonzero(close)):
            parent[find(i)] = find(j)
        groups = {}
        for i in range(n):
            groups.setdefault(find(i), []).append(i)
        levels = [(complex(sum(values[i] for i in members) / len(members)), members)
                  for members in groups.values()]
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
    The dual blocks are the columns of (Psi^{-1})^*, Psi^{-1} from one LU
    solve against the identity, so Phi^* Psi = I holds globally; each level's
    blocks are views of its columns of Psi and Phi, which no one else holds.
    Raises DefectiveOperatorError when some eigenspace is smaller
    than the eigenvalue's multiplicity, the eigenvector matrix is too
    ill-conditioned or fails to reproduce the action of H, and
    ConvergenceError when a LAPACK iteration does not converge.
    """
    h = as_matrix(h, square=True, name="H")
    cfg = cfg or _DEFAULT_CONFIG
    n = h.shape[0]
    norm_h = frobenius(h)
    with _EIGENVALUE_ITERATION:
        vals, vecs = np.linalg.eig(h)
    levels_meta = _cluster(vals, 1e-8 * norm_h)
    theta = 1e-8 * max(norm_h, np.finfo(np.float64).tiny)
    psi = vecs[:, [i for _, members in levels_meta for i in members]]
    psi /= np.linalg.norm(psi, axis=0)
    col = 0
    for value, members in levels_meta:
        mult = len(members)
        if mult > 1:
            with _SINGULAR_VALUE_DECOMPOSITION:
                _, s, vh = np.linalg.svd(h - value * np.eye(n, dtype=np.complex128))
            null_dim = sum(value <= theta for value in s.tolist())
            if null_dim < mult:
                raise DefectiveOperatorError(
                    f"eigenvalue {value:.6g} has multiplicity {mult} but eigenspace dimension {null_dim}"
                )
            # smallest singular directions first
            psi[:, col : col + mult] = vh[n - mult :, :].conj().T[:, ::-1]
        col += mult
    _phase_canonical_columns(psi)
    cond = _condition(psi)
    if not np.isfinite(cond) or cond > 1e8:
        raise DefectiveOperatorError(f"eigenvector matrix condition {cond:.3g} exceeds 1e8")
    diag = np.array([value for value, members in levels_meta for _ in members], dtype=np.complex128)
    if frobenius(h @ psi - psi * diag) > 1e-8 * max(norm_h, np.finfo(np.float64).tiny):
        raise DefectiveOperatorError("assembled eigenvectors do not reproduce the operator action")
    try:
        phi = _inverse(psi).conj().T
    except SingularMatrixError as exc:
        raise DefectiveOperatorError("eigenvector matrix is numerically singular") from exc
    levels = []
    col = 0
    for value, members in levels_meta:
        mult = len(members)
        levels.append(EigenLevel(value, mult, psi[:, col : col + mult], phi[:, col : col + mult]))
        col += mult
    return BiorthonormalSystem(levels=tuple(levels), dim=n)
