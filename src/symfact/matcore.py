"""Dense complex linear-algebra substrate.

Everything else in the package is built on the operations here: the
bilinear product u^T v, reflector-based complement bases, linear solves
(LAPACK through numpy, with a conditioning check that keeps singular systems
a typed error), and the principal complex square root.  All public entry
points validate shapes and reject non-finite input.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

_EPS = float(np.finfo(np.float64).eps)
#: |e^T e| of a unit eigenvector below this makes the non-isotropic rescale
#: e/sqrt(e^T e) too ill-conditioned; iso_tol stays under it
_ETE_DANGER = 3e-3
#: an isotropic vector taken from a numerical eigenspace has |e^T e| at most
#: this; iso_tol stays at or above it, or such a vector is not isotropic enough
_ISO_FLOOR = 1e-12


def _scalar(value: complex) -> np.ndarray:
    """``value`` as a read-only complex 0-d array, which a ufunc takes as it is: a Python number is
    converted on every call.  The arithmetic is the same."""
    arr = np.array(value, dtype=np.complex128)
    arr.flags.writeable = False
    return arr


_ZERO, _HALF, _ONE, _TWO = map(_scalar, (0.0, 0.5, 1.0, 2.0))


class ValidationError(ValueError):
    """Input rejected at a module boundary (bad shape, NaN/Inf, empty)."""


class SingularMatrixError(ValueError):
    """Linear system is singular to working precision."""


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical policy for the whole package.

    eig_tol      relative residual bound accepted for an eigenpair
    iso_tol      threshold on |e^T e| deciding that a unit vector is isotropic,
                 in [1e-12, 3e-3): a reflector level takes |e^T e| >= 3e-3, and
                 an isotropic vector found in an eigenspace is only guaranteed
                 |e^T e| <= 1e-12
    verify_tol   relative Frobenius bound for factorization verification
    seed         echoed in reports; no factorization draws random vectors
    """

    eig_tol: float = 1e-9
    iso_tol: float = 1e-8
    verify_tol: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        for name in ("eig_tol", "iso_tol", "verify_tol"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and not isinstance(value, bool) and value > 0.0
                    and np.isfinite(value)):
                raise ValidationError(f"{name} must be a finite positive number, got {value!r}")
        if not _ISO_FLOOR <= self.iso_tol < _ETE_DANGER:
            raise ValidationError(f"iso_tol must be below {_ETE_DANGER:g} and at least {_ISO_FLOOR:g}, "
                                  f"that is in [{_ISO_FLOOR:g}, {_ETE_DANGER:g}), got {self.iso_tol!r}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or self.seed < 0:
            raise ValidationError(f"seed must be a nonnegative integer, got {self.seed!r}")


_DEFAULT_CONFIG = ToleranceConfig()  # for every call that passes none: built and validated once


def as_vector(v, name: str = "vector") -> np.ndarray:
    """Coerce to a finite 1-D complex128 array."""
    arr = np.asarray(v, dtype=np.complex128)
    if arr.ndim != 1 or arr.size == 0:
        raise ValidationError(f"{name} must be a nonempty 1-D array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} contains NaN or Inf entries")
    return arr


def as_matrix(a, square: bool = False, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-D complex128 array, optionally requiring it square."""
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim != 2 or arr.size == 0:
        raise ValidationError(f"{name} must be a nonempty 2-D array, got shape {arr.shape}")
    if square and arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"{name} must be square, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} contains NaN or Inf entries")
    return arr


def as_scalar(z, name: str = "scalar") -> complex:
    """Coerce to a finite python complex."""
    value = complex(z)
    if not cmath.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return value


def frobenius(a) -> float:
    """|a|_F by the formula of ``np.linalg.norm(a)``, bit for bit, without its dispatch."""
    x = np.asarray(a)
    if x.dtype.kind not in "fc":
        x = x.astype(np.float64)
    x = x.ravel(order="K")
    if x.dtype.kind == "c":
        re, im = x.real, x.imag
        return math.sqrt(re.dot(re) + im.dot(im))
    return math.sqrt(x.dot(x))


def bilinear(u, v) -> complex:
    """Non-conjugated product u^T v.  Vanishes on isotropic pairs."""
    u = as_vector(u, "u")
    v = as_vector(v, "v")
    if u.shape != v.shape:
        raise ValidationError(f"dimension mismatch: {u.shape[0]} vs {v.shape[0]}")
    return complex(np.dot(u, v))


def principal_sqrt(z) -> complex:
    """Square root w of z with Re(w) >= 0; on the imaginary axis Im(w) >= 0."""
    return _principal_sqrt(as_scalar(z, "z"))


def _principal_sqrt(value: complex) -> complex:
    """``principal_sqrt`` of a Python complex, without the finiteness check."""
    w = complex(np.sqrt(np.complex128(value)))
    if w.real < 0.0 or (w.real == 0.0 and w.imag < 0.0):
        w = -w
    return w


def complement_basis_within(e) -> np.ndarray:
    """Orthonormal basis (columns) of {w : w^* conj(e) = 0 and w^* e = 0}.

    Requires e isotropic (|e^T e| <= iso_tol * |e|^2, the default), which makes e and
    conj(e) orthogonal under the sesquilinear product, so the two
    completion steps commute cleanly.
    """
    e = as_vector(e, "e")
    norm_e = frobenius(e)
    if norm_e == 0.0:
        raise ValidationError("cannot build a complement basis for the zero vector")
    if abs(complex(np.dot(e, e))) > _DEFAULT_CONFIG.iso_tol * norm_e**2:
        raise ValidationError("input vector is not isotropic within iso_tol")
    if e.shape[0] < 2:
        raise ValidationError("an isotropic vector needs dimension >= 2")
    return _complement_basis_within(e / norm_e)


def _complement_basis_within(u: np.ndarray) -> np.ndarray:
    """``complement_basis_within`` of a unit complex128 vector u, unchecked.

    The basis is P1[:, 1:] P2[:, 1:] for the unitary Householder P1 whose first column is a unit
    multiple of conj(u), and P2 that of z, u's coordinates in P1's other columns.  With
    P = I - 2 v v^*, that product is I[:, 2:] - 2 v1 (v1[2:]^* - t v2[1:]^*) - 2 [0; v2] v2[1:]^*,
    t = 2 v1[1:]^* v2: two rank-1 terms, formed without either reflector matrix.
    """
    v1 = _householder_vector(u.conj())
    z = u[1:] - (2.0 * complex(np.vdot(v1, u))) * v1[1:]  # P1 u = P1^* u without its first entry ~ e^T e = 0
    v2 = _householder_vector(z)
    tail = v2[1:].conj()
    t = 2.0 * complex(np.vdot(v1[1:], v2))
    w = v1[:, None] * ((t * tail - v1[2:].conj()) * _TWO)
    w[1:] -= (v2 * _TWO)[:, None] * tail
    w.flat[2 * w.shape[1] :: w.shape[1] + 1] += _ONE  # + I[:, 2:]
    return w


def _householder_vector(x: np.ndarray) -> np.ndarray:
    """Unit v with I - 2 v v^* unitary and its first column a unit multiple of x: v = x + phase |x| e1
    (phase that of x[0]), so |v|^2 = 2 |x| (|x| + |x[0]|) is never small.  Built in place in x,
    which every caller passes as a fresh array."""
    norm, head = frobenius(x), complex(x[0])
    x[0] = head + (head / abs(head) * norm if head != 0.0 else complex(norm))  # as x[0] += ..., in scalars
    x /= math.sqrt(2.0 * norm * (norm + abs(head)))
    return x


def solve_linear(a, b) -> np.ndarray:
    """Solve A X = B by LAPACK's pivoted LU; X is never formed from an inverse.

    A is singular to working precision, and SingularMatrixError is raised,
    when LAPACK meets an exact zero pivot or the 1-norm condition number
    reaches 1/(m eps).  The 1-norm of A^{-1} comes from the same solve, with
    the identity as extra right-hand sides.
    """
    a = as_matrix(a, square=True, name="A")
    b_arr = np.asarray(b, dtype=np.complex128)
    vector_rhs = b_arr.ndim == 1
    b_arr = as_matrix(b_arr.reshape(-1, 1) if vector_rhs else b_arr, name="B")
    if b_arr.shape[0] != a.shape[0]:
        raise ValidationError(f"B has {b_arr.shape[0]} rows, expected {a.shape[0]}")
    k = b_arr.shape[1]
    x = _solve_checked(a, np.hstack([b_arr, np.eye(a.shape[0], dtype=np.complex128)]))
    return x[:, 0] if vector_rhs else x[:, :k]


def _inverse(a) -> np.ndarray:
    """A^{-1} by one LU solve against I, singular by the rule of ``solve_linear`` (whose [I | I] would
    solve each column twice)."""
    a = as_matrix(a, square=True, name="A")
    return _solve_checked(a, np.eye(a.shape[0], dtype=np.complex128))


def _solve_checked(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """X with A X = ``rhs`` for a validated square A and ``rhs`` ending in I: SingularMatrixError at a
    zero pivot or a 1-norm condition of 1/(m eps) or more."""
    m = a.shape[0]
    try:
        x = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError("matrix is singular to working precision (zero pivot)") from exc
    cond = float(np.abs(a).sum(axis=0).max() * np.abs(x[:, -m:]).sum(axis=0).max())
    if not cond * m * _EPS < 1.0:  # also catches an inf or nan inverse
        raise SingularMatrixError(f"matrix is singular to working precision (condition {cond:.3g})")
    return x
