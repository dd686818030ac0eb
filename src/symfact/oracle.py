"""Independent cross-checks and seeded adversarial generators.

``ldlt_symmetric`` is a deliberately naive alternative factorizer: symmetric
elimination with largest-|diagonal| pivoting and no 2x2 pivots.  It breaks
down exactly on the inputs whose handling requires isotropic eigenvectors
(all candidate pivots vanish while the block does not), which makes it a
useful foil for the main algorithm.

``gen`` produces seeded matrix families that steer the factorization through
every branch of its recursion; ``gen_complex_orthogonal`` supplies Cayley
gauge matrices for invariance tests.  All draws are pure functions of
(seed, stream label) via a named splittable generator (PCG64 behind
numpy's SeedSequence).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matcore import (
    ValidationError,
    as_matrix,
    complement_basis_within,
    frobenius,
    principal_sqrt,
    solve_linear,
)

KIND_DENSE_SYMMETRIC = "DenseSymmetric"
KIND_ISOTROPIC_LAMBDA_ZERO = "IsotropicLambdaZero"
KIND_ISOTROPIC_LAMBDA_NONZERO = "IsotropicLambdaNonzero"
KIND_PAIRED_SPECTRUM = "PairedSpectrum"
KIND_HERMITIAN_DENSE = "HermitianDense"
KIND_RANK_DEFICIENT = "RankDeficient"

ALL_KINDS = (
    KIND_DENSE_SYMMETRIC,
    KIND_ISOTROPIC_LAMBDA_ZERO,
    KIND_ISOTROPIC_LAMBDA_NONZERO,
    KIND_PAIRED_SPECTRUM,
    KIND_HERMITIAN_DENSE,
    KIND_RANK_DEFICIENT,
)

_STREAMS = {kind: 0x0A00 + i for i, kind in enumerate(ALL_KINDS)}
#: ``ldlt_symmetric`` breaks down when every remaining |diagonal| is below this multiple of max|C|
_PIVOT_CUT = 1e-12


def _rng(seed: int, *streams: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed)] + [int(s) & 0xFFFFFFFF for s in streams]))


@dataclass(frozen=True)
class GeneratorSpec:
    dim: int
    seed: int
    kind: str

    def __post_init__(self):
        if not (isinstance(self.dim, int) and self.dim >= 1):
            raise ValidationError(f"dim must be a positive integer, got {self.dim!r}")
        if self.kind not in ALL_KINDS:
            raise ValidationError(f"unknown generator kind {self.kind!r}")


@dataclass(frozen=True)
class Breakdown:
    """No admissible diagonal pivot was left while the block was nonzero."""

    step: int


def ldlt_symmetric(c):
    """Symmetric-pivoted factorization C = L diag(d) L^T, or Breakdown.

    Pivots are chosen by the largest remaining |diagonal| entry; the
    permutation is folded into L, so the product identity holds literally
    (L is unit lower triangular up to that row permutation).  Breakdown is
    returned when every remaining diagonal is below ``_PIVOT_CUT`` * max|C|
    while the remaining block is not.

    Step k reads only the trailing block a[k:, k:]: a pivot move swaps rows
    and columns there alone, by plain copies, and an eliminated row and
    column are left as they are.  The rank-1 update keeps ``np.outer``'s
    operand shapes, (m, 1) times (1, m): a 1-D right operand takes another
    numpy loop, whose products can differ in the last bit.
    """
    c = as_matrix(c, square=True, name="C")
    scale = max(float(np.max(np.abs(c))), np.finfo(np.float64).tiny)
    if frobenius(c - c.T) > 1e-12 * max(frobenius(c), np.finfo(np.float64).tiny):
        raise ValidationError("ldlt_symmetric requires a symmetric matrix")
    n = c.shape[0]
    a = c.copy()
    lower = np.eye(n, dtype=np.complex128)
    d = np.zeros(n, dtype=np.complex128)
    perm = list(range(n))
    for k in range(n):
        j = k + int(np.abs(a.diagonal()[k:]).argmax())
        if abs(a[j, j]) <= _PIVOT_CUT * scale:
            if float(np.max(np.abs(a[k:, k:]))) <= _PIVOT_CUT * scale:
                break  # factorization complete up to a zero tail
            return Breakdown(step=k)
        if j != k:
            a[k, k:], a[j, k:] = a[j, k:].copy(), a[k, k:].copy()
            a[k:, k], a[k:, j] = a[k:, j].copy(), a[k:, k].copy()
            lower[k, :k], lower[j, :k] = lower[j, :k].copy(), lower[k, :k].copy()
            perm[k], perm[j] = perm[j], perm[k]
        d[k] = a[k, k]
        if k + 1 < n:
            col = a[k + 1 :, k] / d[k]
            lower[k + 1 :, k] = col
            a[k + 1 :, k + 1 :] -= col[:, None] * a[k, k + 1 :][None, :]
    p = np.zeros((n, n), dtype=np.complex128)
    p[perm, np.arange(n)] = 1.0
    return p @ lower, d


def factor_via_ldlt(c):
    """V = L diag(sqrt(d_i)) from ldlt_symmetric; Breakdown passes through."""
    result = ldlt_symmetric(c)
    if isinstance(result, Breakdown):
        return result
    lower, d = result
    return lower * np.array([principal_sqrt(v) for v in d.tolist()], dtype=np.complex128)


def _isotropic_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Unit vector e = (u + i w)/sqrt(2) with real orthonormal u, w: e^T e = 0."""
    if dim < 2:
        raise ValidationError("isotropic vectors need dimension >= 2")
    g = rng.standard_normal((dim, 2))
    q, _ = np.linalg.qr(g)
    u, w = q[:, 0], q[:, 1]
    return (u + 1j * w) / np.sqrt(2.0)


def _complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _paired_values(rng: np.random.Generator, dim: int):
    """Spectrum closed under conjugation, with well-separated levels and an
    occasional repeated real eigenvalue."""
    values = []
    n_pairs = int(rng.integers(0, dim // 2 + 1))
    base = 0.7
    for i in range(n_pairs):
        re = -2.0 + i * 1.1 + 0.2 * rng.uniform(-1, 1)
        im = base + 0.9 * i + 0.2 * rng.uniform(0, 1)
        values.extend([complex(re, im), complex(re, -im)])
    n_real = dim - 2 * n_pairs
    degenerate = n_real >= 2 and bool(rng.integers(0, 2))
    i = 0
    while len(values) < dim:
        re = 1.0 + 0.9 * i + 0.2 * rng.uniform(-1, 1)
        values.append(complex(re, 0.0))
        if degenerate and i == 0 and len(values) < dim:
            values.append(complex(re, 0.0))  # one doubly degenerate real level
            i += 1
        i += 1
    return np.array(values[:dim], dtype=np.complex128)


def _well_conditioned(rng: np.random.Generator, dim: int, cap: float = 100.0) -> np.ndarray:
    for _ in range(32):
        s = _complex_gaussian(rng, (dim, dim)) + 0.5 * np.eye(dim)
        if np.linalg.cond(s) <= cap:
            return s
    return np.linalg.qr(_complex_gaussian(rng, (dim, dim)))[0]  # unitary fallback


def gen(spec: GeneratorSpec) -> np.ndarray:
    """Seeded matrix for the requested family (see module docstring)."""
    rng = _rng(spec.seed, _STREAMS[spec.kind], spec.dim)
    dim = spec.dim
    if spec.kind == KIND_DENSE_SYMMETRIC:
        g = _complex_gaussian(rng, (dim, dim))
        return 0.5 * (g + g.T)
    if spec.kind == KIND_HERMITIAN_DENSE:
        g = _complex_gaussian(rng, (dim, dim))
        return 0.5 * (g + g.conj().T)
    if spec.kind == KIND_RANK_DEFICIENT:
        if dim == 1 or spec.seed % 6 == 5:
            return np.zeros((dim, dim), dtype=np.complex128)  # rank 0
        r = int(rng.integers(1, dim))
        v0 = _complex_gaussian(rng, (dim, r))
        return v0 @ v0.T
    if spec.kind == KIND_PAIRED_SPECTRUM:
        values = _paired_values(rng, dim)
        s = _well_conditioned(rng, dim)
        return solve_linear(s.T, (s * values).T).T  # S diag(values) S^{-1}
    if spec.kind == KIND_ISOTROPIC_LAMBDA_ZERO:
        if dim >= 4 and spec.seed % 4 == 3:
            # rank-2 nilpotent core on disjoint supports: zero diagonal, so the
            # diagonal-pivot oracle necessarily breaks down on it
            half = dim // 2
            p = np.zeros(dim, dtype=np.complex128)
            q = np.zeros(dim, dtype=np.complex128)
            p[:half] = _isotropic_vector(rng, half)
            q[half:] = _isotropic_vector(rng, dim - half)
            return np.outer(p, q) + np.outer(q, p)
        e = _isotropic_vector(rng, dim)
        return np.outer(e, e)
    # IsotropicLambdaNonzero
    lam = complex(rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.uniform()))
    e = _isotropic_vector(rng, dim)
    f = e.conj()  # |e| = 1, so conj(e)/|e|^2 = conj(e)
    core = lam * (np.outer(e, f) + np.outer(f, e))
    if dim >= 3 and spec.seed % 2 == 1:
        # add a symmetric bulk on the joint complement of {e, conj(e)}; e stays
        # an isotropic eigenvector of eigenvalue lam and lam stays dominant
        basis = complement_basis_within(e)
        s = _complex_gaussian(rng, (dim - 2, dim - 2))
        s = 0.5 * (s + s.T)
        s *= abs(lam) / (4.0 * max(frobenius(s), 1e-12))
        core = core + basis @ s @ basis.T
    return core


def gen_complex_orthogonal(dim: int, seed: int) -> np.ndarray:
    """Cayley transform o = (I - S)(I + S)^{-1} of an antisymmetric S scaled to |S|_F = 0.6.

    |S|_2 <= 0.6 < 1, so I + S is invertible with condition at most 4, and o is orthogonal in exact
    arithmetic; |o^T o - I|_F <= 1e-10 is checked once.
    """
    if not (isinstance(dim, int) and dim >= 1):
        raise ValidationError(f"dim must be a positive integer, got {dim!r}")
    rng = _rng(seed, 0x0C41, dim)
    g = _complex_gaussian(rng, (dim, dim))
    s = 0.5 * (g - g.T)
    norm_s = max(frobenius(s), 1e-12)
    s *= 0.6 / norm_s
    eye = np.eye(dim, dtype=np.complex128)
    o = solve_linear(eye + s, eye - s)
    if frobenius(o.T @ o - eye) > 1e-10:
        raise ValidationError("the Cayley transform is not numerically orthogonal")
    return o
