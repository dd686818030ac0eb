"""Antilinear operators on C^n, represented by a conjugation matrix.

An antilinear operator is stored as the matrix M of its action
zeta -> M conj(zeta).  In this representation the operator identities
become plain matrix identities:

* Hermitian (symmetric) antilinear operator  <->  M = M^T
* pseudo-Hermiticity  H^* = T H T^{-1}       <->  H^dagger M = M conj(H)
* antilinear symmetry [H, X] = 0             <->  H M = M conj(H)
* involution T^2 = I                         <->  M conj(M) = I

The module builds such operators from biorthonormal eigensystems, transports
them across basis changes, and canonicalizes the coefficient blocks to the
identity using the symmetric V V^T factorization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigen import (
    _EIGENVALUE_ITERATION,
    _SINGULAR_VALUE_DECOMPOSITION,
    BiorthonormalSystem,
    EigenLevel,
    _condition,
    _phase_canonical_columns,
)
from .factor import factor_symmetric
from .matcore import (
    _DEFAULT_CONFIG,
    ToleranceConfig,
    ValidationError,
    _inverse,
    as_matrix,
    as_vector,
    frobenius,
    solve_linear,
)

#: relative defect |M - M^T|_F (``is_hermitian``) or |H - H^dagger|_F (``canonical_T_selfadjoint``) accepted
_HERM_TOL = 1e-10
#: ``check_pseudo_hermitian`` calls G singular when its singular values span more than 1/this
_SINGULAR_CUT = 1e-12


@dataclass(frozen=True)
class AntilinearOp:
    """Antilinear operator zeta -> matrix @ conj(zeta)."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", as_matrix(self.matrix, square=True, name="matrix"))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class CoefficientSet:
    """Per-level symmetric invertible coefficient blocks."""

    blocks: tuple

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(as_matrix(b, square=True, name="coefficient block")
                                                 for b in self.blocks))

    @classmethod
    def identity_for(cls, system: BiorthonormalSystem) -> "CoefficientSet":
        return cls(blocks=tuple(np.eye(lv.multiplicity, dtype=np.complex128) for lv in system.levels))


@dataclass(frozen=True)
class SpectrumPairing:
    """Involution nu on level indices with E_{nu(n)} = conj(E_n)."""

    mapping: tuple
    real_levels: tuple


@dataclass(frozen=True)
class Unpairable:
    """Spectrum is not closed under conjugation; offenders listed."""

    offenders: tuple


def _op_matrix(op) -> np.ndarray:
    if isinstance(op, AntilinearOp):
        return op.matrix
    return as_matrix(op, square=True, name="operator matrix")


def apply(op: AntilinearOp, zeta) -> np.ndarray:
    """Act on a vector: M @ conj(zeta)."""
    m = _op_matrix(op)
    zeta = as_vector(zeta, "zeta")
    if zeta.shape[0] != m.shape[0]:
        raise ValidationError(f"dimension mismatch: operator is {m.shape[0]}, vector is {zeta.shape[0]}")
    return m @ zeta.conj()


def is_hermitian(op) -> bool:
    """Hermitian antilinear operator test: M = M^T within ``_HERM_TOL`` * |M|_F."""
    m = _op_matrix(op)
    scale = max(frobenius(m), np.finfo(np.float64).tiny)
    return frobenius(m - m.T) <= _HERM_TOL * scale


def check_involution(op) -> float:
    """|M conj(M) - I|_F, the defect of T^2 = I."""
    m = _op_matrix(op)
    return frobenius(m @ m.conj() - np.eye(m.shape[0]))


def check_commutes(h, op) -> float:
    """Commutation defect |H M - M conj(H)|_F / (|H|_F |M|_F)."""
    h = as_matrix(h, square=True, name="H")
    m = _op_matrix(op)
    if m.shape != h.shape:
        raise ValidationError("operator and H must have matching dimensions")
    denom = max(frobenius(h) * frobenius(m), np.finfo(np.float64).tiny)
    return frobenius(h @ m - m @ h.conj()) / denom


def check_pseudo_hermitian(h, g, kind: str = "antilinear") -> float:
    """Defect of H^* = G H G^{-1}, in inverse-free multiplied-through form.

    antilinear G (matrix M):  |H^dagger M - M conj(H)|_F / (|H|_F |M|_F)
    linear G:                 |H^dagger G - G H|_F / (|H|_F |G|_F)

    ``_SINGULAR_CUT`` is the relative singular-value cutoff below which G
    counts as singular (the identity requires an invertible G).
    """
    h = as_matrix(h, square=True, name="H")
    g = _op_matrix(g)
    if g.shape != h.shape:
        raise ValidationError("G and H must have matching dimensions")
    if kind not in ("linear", "antilinear"):
        raise ValidationError(f"kind must be 'linear' or 'antilinear', got {kind!r}")
    with _SINGULAR_VALUE_DECOMPOSITION:
        s = np.linalg.svd(g, compute_uv=False)
    if s[-1] <= _SINGULAR_CUT * s[0]:
        raise ValidationError("G is singular to working precision")
    denom = max(frobenius(h) * frobenius(g), np.finfo(np.float64).tiny)
    h_conj = h.conj()
    defect = h_conj.T @ g - g @ (h_conj if kind == "antilinear" else h)
    return frobenius(defect) / denom


def _validate_coeffs(system: BiorthonormalSystem, coeffs: CoefficientSet) -> None:
    if len(coeffs.blocks) != len(system.levels):
        raise ValidationError(
            f"{len(coeffs.blocks)} coefficient blocks for {len(system.levels)} levels"
        )
    for lv, block in zip(system.levels, coeffs.blocks):
        if block.shape != (lv.multiplicity, lv.multiplicity):
            raise ValidationError(
                f"coefficient block {block.shape} does not match multiplicity {lv.multiplicity}"
            )
        scale = max(frobenius(block), np.finfo(np.float64).tiny)
        if frobenius(block - block.T) > 1e-12 * scale:
            raise ValidationError("coefficient block is not symmetric")
        if _condition(block) > 1e12:
            raise ValidationError("coefficient block is singular to working precision")


def build_T(system: BiorthonormalSystem, coeffs: CoefficientSet) -> AntilinearOp:
    """Hermitian invertible antilinear operator M = sum_n Phi_n c^(n) Phi_n^T.

    For any diagonalizable H with dual eigenvector blocks Phi_n this operator
    satisfies H^dagger M = M conj(H) identically.
    """
    _validate_coeffs(system, coeffs)
    n = system.dim
    m = np.zeros((n, n), dtype=np.complex128)
    for lv, block in zip(system.levels, coeffs.blocks):
        m += lv.phi @ block @ lv.phi.T
    return AntilinearOp(matrix=m)


def canonical_T(system: BiorthonormalSystem) -> AntilinearOp:
    """The operator of identity coefficient blocks, M = Phi Phi^T.

    This is ``build_T`` with ``CoefficientSet.identity_for(system)``, as one
    product over all levels and without validating blocks that are known
    to be symmetric and invertible.
    """
    phi = system.phi_matrix()
    return AntilinearOp(matrix=phi @ phi.T)


def transform_basis(system: BiorthonormalSystem, v_set) -> BiorthonormalSystem:
    """Change basis per level: Phi_n -> Phi_n v^(n), Psi_n -> Psi_n (v^(n))^{-*}, the inverse by one LU
    solve against the identity."""
    v_set = [as_matrix(v, square=True, name="v block") for v in v_set]
    if len(v_set) != len(system.levels):
        raise ValidationError(f"{len(v_set)} transform blocks for {len(system.levels)} levels")
    new_levels = []
    for lv, v in zip(system.levels, v_set):
        if v.shape != (lv.multiplicity, lv.multiplicity):
            raise ValidationError(f"transform block {v.shape} does not match multiplicity {lv.multiplicity}")
        if _condition(v) > 1e12:
            raise ValidationError("transform block is singular to working precision")
        inv_star = _inverse(v.conj().T)
        new_levels.append(
            EigenLevel(value=lv.value, multiplicity=lv.multiplicity,
                       psi=lv.psi @ inv_star, phi=lv.phi @ v)
        )
    return BiorthonormalSystem(levels=tuple(new_levels), dim=system.dim)


def transform_coeffs(coeffs: CoefficientSet, v_set) -> CoefficientSet:
    """Co-transform coefficients: c'^(n) = (v^(n))^{-1} c^(n) (v^(n))^{-T}."""
    v_set = [as_matrix(v, square=True, name="v block") for v in v_set]
    if len(v_set) != len(coeffs.blocks):
        raise ValidationError(f"{len(v_set)} transform blocks for {len(coeffs.blocks)} coefficient blocks")
    new_blocks = []
    for block, v in zip(coeffs.blocks, v_set):
        if _condition(v) > 1e12:
            raise ValidationError("transform block is singular to working precision")
        tmp = solve_linear(v, block)  # v^{-1} c
        new = solve_linear(v, tmp.T).T  # (v^{-1} (v^{-1} c)^T)^T = v^{-1} c v^{-T}
        new_blocks.append(0.5 * (new + new.T))
    return CoefficientSet(blocks=tuple(new_blocks))


def canonicalize(system: BiorthonormalSystem, coeffs: CoefficientSet,
                 cfg: ToleranceConfig | None = None):
    """Transform to the basis where every coefficient block is the identity.

    Each block is factored as c^(n) = v v^T and the basis transported by v;
    the represented operator M is invariant under the paired change.
    Returns (new_system, canonical_op).  A factor whose relative residual
    misses verify_tol, or that came out singular, raises ValidationError
    naming the block.
    """
    cfg = cfg or _DEFAULT_CONFIG
    _validate_coeffs(system, coeffs)
    v_set = []
    for i, block in enumerate(coeffs.blocks):
        result = factor_symmetric(block, cfg)
        if result.relative_residual > cfg.verify_tol:
            raise ValidationError(f"factor of coefficient block {i} misses verify_tol: "
                                  f"relative residual {result.relative_residual:.3g}")
        v = result.V
        if _condition(v) > 1e10:
            raise ValidationError(f"factor of invertible coefficient block {i} came out singular")
        v_set.append(v)
    new_system = transform_basis(system, v_set)
    return new_system, canonical_T(new_system)


def spectrum_pairing(levels, tol: float = 1e-8):
    """Involution pairing E_{nu(n)} = conj(E_n) with matching multiplicities.

    Accepts a BiorthonormalSystem or a sequence of (eigenvalue, multiplicity)
    pairs.  Returns SpectrumPairing, or Unpairable listing eigenvalues that
    have no conjugate partner.
    """
    if isinstance(levels, BiorthonormalSystem):
        meta = [(lv.value, lv.multiplicity) for lv in levels.levels]
    else:
        meta = [(complex(v), int(m)) for v, m in levels]
    n = len(meta)
    mapping = [-1] * n
    real_flags = [False] * n
    offenders = []
    for i, (value, mult) in enumerate(meta):
        if mapping[i] != -1:
            continue
        if abs(value.imag) <= tol:
            mapping[i] = i
            real_flags[i] = True
            continue
        partner = None
        for j in range(n):
            if j == i or mapping[j] != -1:
                continue
            if abs(meta[j][0] - value.conjugate()) <= tol and meta[j][1] == mult:
                partner = j
                break
        if partner is None:
            offenders.append(value)
        else:
            mapping[i] = partner
            mapping[partner] = i
    if offenders:
        return Unpairable(offenders=tuple(offenders))
    return SpectrumPairing(mapping=tuple(mapping), real_levels=tuple(real_flags))


def build_antilinear_symmetry(system: BiorthonormalSystem, pairing: SpectrumPairing) -> AntilinearOp:
    """Antilinear symmetry N = sum_n Psi_{nu(n)} Phi_n^T (satisfies H N = N conj(H)).

    The paired levels must carry conjugate eigenvalues with equal
    multiplicities; degeneracy labels are matched in stored order.  The sum
    is one product: the Psi columns of the levels nu(n), in level order,
    times Phi^T.
    """
    if len(pairing.mapping) != len(system.levels):
        raise ValidationError("pairing does not match the number of levels")
    n_levels = len(system.levels)
    for i, j in enumerate(pairing.mapping):
        if not (0 <= j < n_levels) or pairing.mapping[j] != i:
            raise ValidationError("pairing is not an involution on the levels")
        if system.levels[j].multiplicity != system.levels[i].multiplicity:
            raise ValidationError("paired levels have mismatched multiplicities")
    psi = np.hstack([system.levels[j].psi for j in pairing.mapping])
    return AntilinearOp(matrix=psi @ system.phi_matrix().T)


def canonical_T_selfadjoint(h, cfg: ToleranceConfig | None = None) -> AntilinearOp:
    """Canonical antilinear symmetry M = Psi Psi^T of a self-adjoint operator.

    Psi is the unitary eigenvector matrix of ``np.linalg.eigh`` on the
    symmetrized H, each column's phase fixed (largest-modulus entry real
    positive).  With an orthonormal eigenbasis the operator is Hermitian,
    commutes with H, satisfies the pseudo-Hermiticity identity, and squares
    to the identity.  ``cfg`` is accepted for a uniform call signature.
    """
    h = as_matrix(h, square=True, name="H")
    scale = max(frobenius(h), np.finfo(np.float64).tiny)
    h_dagger = h.conj().T
    if frobenius(h - h_dagger) > _HERM_TOL * scale:
        raise ValidationError("H is not self-adjoint within tolerance")
    with _EIGENVALUE_ITERATION:
        _, psi = np.linalg.eigh(0.5 * (h + h_dagger))
    _phase_canonical_columns(psi)
    return AntilinearOp(matrix=psi @ psi.T)
