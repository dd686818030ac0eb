"""Dense complex linear-algebra substrate.

Everything else in the package is built on the operations here: the
bilinear product u^T v, reflector-based complement bases, linear solves
(LAPACK through numpy, with a conditioning check that keeps singular systems
a typed error), and the principal complex square root.  All public entry
points validate shapes and reject non-finite input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_EPS = float(np.finfo(np.float64).eps)


class ValidationError(ValueError):
    """Input rejected at a module boundary (bad shape, NaN/Inf, empty)."""


class SingularMatrixError(ValueError):
    """Linear system is singular to working precision."""


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical policy for the whole package.

    eig_tol      relative residual bound accepted for an eigenpair
    iso_tol      threshold on |e^T e| deciding that a unit vector is isotropic
    det_tol      lower bound on the accepted |det D| in the isotropic branch
    verify_tol   relative Frobenius bound for factorization verification
    seed         base seed for every internally drawn random vector
    """

    eig_tol: float = 1e-9
    iso_tol: float = 1e-8
    det_tol: float = 1e-10
    verify_tol: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        for name in ("eig_tol", "iso_tol", "det_tol", "verify_tol"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and value > 0.0 and np.isfinite(value)):
                raise ValidationError(f"{name} must be a finite positive number, got {value!r}")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ValidationError(f"seed must be a nonnegative integer, got {self.seed!r}")


def as_vector(v, name: str = "vector") -> np.ndarray:
    """Coerce to a finite 1-D complex128 array."""
    arr = np.asarray(v, dtype=np.complex128)
    if arr.ndim != 1 or arr.size == 0:
        raise ValidationError(f"{name} must be a nonempty 1-D array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise ValidationError(f"{name} contains NaN or Inf entries")
    return arr


def as_matrix(a, square: bool = False, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-D complex128 array, optionally requiring it square."""
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim != 2 or arr.size == 0:
        raise ValidationError(f"{name} must be a nonempty 2-D array, got shape {arr.shape}")
    if square and arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"{name} must be square, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise ValidationError(f"{name} contains NaN or Inf entries")
    return arr


def as_scalar(z, name: str = "scalar") -> complex:
    """Coerce to a finite python complex."""
    value = complex(z)
    if not (np.isfinite(value.real) and np.isfinite(value.imag)):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return value


def frobenius(a) -> float:
    return float(np.linalg.norm(np.asarray(a, dtype=np.complex128).ravel()))


def bilinear(u, v) -> complex:
    """Non-conjugated product u^T v.  Vanishes on isotropic pairs."""
    u = as_vector(u, "u")
    v = as_vector(v, "v")
    if u.shape != v.shape:
        raise ValidationError(f"dimension mismatch: {u.shape[0]} vs {v.shape[0]}")
    return complex(np.dot(u, v))


def principal_sqrt(z) -> complex:
    """Square root w of z with Re(w) >= 0; on the imaginary axis Im(w) >= 0."""
    value = as_scalar(z, "z")
    w = complex(np.sqrt(np.complex128(value)))
    if w.real < 0.0 or (w.real == 0.0 and w.imag < 0.0):
        w = -w
    return w


def _reflector(x: np.ndarray) -> np.ndarray:
    """Unitary Householder matrix whose first column is a unit multiple of x."""
    m = x.shape[0]
    x = x / np.linalg.norm(x)
    phase = x[0] / abs(x[0]) if abs(x[0]) > 0.0 else 1.0 + 0.0j
    v = x.copy()
    v[0] += phase  # v = x - alpha*e1 with alpha = -phase, so |v| is never small
    v /= np.linalg.norm(v)
    # first column comes out as -conj(phase)*x, still a unit multiple of x
    return np.eye(m, dtype=np.complex128) - 2.0 * np.outer(v, v.conj())


def complement_basis(e) -> np.ndarray:
    """Orthonormal basis (columns) of {w : w^* conj(e) = 0} = {w : e^T w = 0}.

    Built by unitary completion of conj(e), so the returned columns are
    exactly orthonormal and each satisfies bilinear(e, w) = 0 to rounding.
    """
    e = as_vector(e, "e")
    if np.linalg.norm(e) == 0.0:
        raise ValidationError("cannot build a complement basis for the zero vector")
    if e.shape[0] == 1:
        return np.zeros((1, 0), dtype=np.complex128)
    p = _reflector(e.conj())
    return p[:, 1:].copy()


def complement_basis_within(e, iso_tol: float = 1e-8) -> np.ndarray:
    """Orthonormal basis (columns) of {w : w^* conj(e) = 0 and w^* e = 0}.

    Requires e isotropic (|e^T e| <= iso_tol * |e|^2), which makes e and
    conj(e) orthogonal under the sesquilinear product, so the two
    completion steps commute cleanly.
    """
    e = as_vector(e, "e")
    norm_e = np.linalg.norm(e)
    if norm_e == 0.0:
        raise ValidationError("cannot build a complement basis for the zero vector")
    if abs(complex(np.dot(e, e))) > iso_tol * norm_e**2:
        raise ValidationError("input vector is not isotropic within iso_tol")
    m = e.shape[0]
    if m < 2:
        raise ValidationError("an isotropic vector needs dimension >= 2")
    u = e / norm_e
    p1 = _reflector(u.conj())
    z = p1.conj().T @ u  # coordinates of u in the completed basis; z[0] ~ e^T e = 0
    z = z[1:]
    z /= np.linalg.norm(z)
    p2 = _reflector(z)
    basis = p1[:, 1:] @ p2[:, 1:]
    return basis


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
    m, k = a.shape[0], b_arr.shape[1]
    if b_arr.shape[0] != m:
        raise ValidationError(f"B has {b_arr.shape[0]} rows, expected {m}")
    try:
        x = np.linalg.solve(a, np.hstack([b_arr, np.eye(m, dtype=np.complex128)]))
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError("matrix is singular to working precision (zero pivot)") from exc
    cond = float(np.abs(a).sum(axis=0).max() * np.abs(x[:, k:]).sum(axis=0).max())
    if not cond * m * _EPS < 1.0:  # also catches an inf or nan inverse
        raise SingularMatrixError(f"matrix is singular to working precision (condition {cond:.3g})")
    return x[:, 0] if vector_rhs else x[:, :k]
