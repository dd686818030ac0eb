"""Unit tests for the antilinear operator machinery."""

import numpy as np
import pytest

from symfact import oracle
from symfact.antisym import (
    AntilinearOp,
    CoefficientSet,
    SpectrumPairing,
    Unpairable,
    apply,
    build_T,
    build_antilinear_symmetry,
    canonical_T,
    canonical_T_selfadjoint,
    canonicalize,
    check_commutes,
    check_involution,
    check_pseudo_hermitian,
    is_hermitian,
    spectrum_pairing,
    transform_basis,
    transform_coeffs,
)
from symfact.eigen import biorthonormal_system
from symfact.matcore import ToleranceConfig, ValidationError, frobenius

CFG = ToleranceConfig()


def _random_coeffs(rng, system):
    blocks = []
    for lv in system.levels:
        k = lv.multiplicity
        while True:
            g = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
            g = 0.5 * (g + g.T)
            s = np.linalg.svd(g, compute_uv=False)
            if s[-1] > 0.05 * max(s[0], 1e-12):
                break
        blocks.append(g)
    return CoefficientSet(blocks=tuple(blocks))


def _random_diagonalizable(seed, dim):
    """Dense diagonalizable (generally non-normal) operator with a spread spectrum."""
    rng = np.random.default_rng(seed + 1000)
    values = np.array(
        [complex(i + 0.3 * rng.uniform(-1, 1), rng.uniform(-1.5, 1.5)) for i in range(dim)]
    )
    while True:
        s = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
        if np.linalg.cond(s) < 50:
            break
    return s @ np.diag(values) @ np.linalg.inv(s)


def test_apply_examples():
    assert np.allclose(apply(AntilinearOp(np.eye(2)), [1j, 1]), [-1j, 1])
    swap = AntilinearOp(np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.allclose(apply(swap, [1, 1j]), [-1j, 1])
    z = np.array([0.3 + 0.7j, -1.2j])
    ident = AntilinearOp(np.eye(2))
    assert np.allclose(apply(ident, apply(ident, z)), z)


def test_apply_is_antilinear():
    rng = np.random.default_rng(41)
    m = AntilinearOp(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    x, y = 0.3 - 2j, 1.1 + 0.4j
    u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    lhs = apply(m, x * u + y * v)
    rhs = np.conj(x) * apply(m, u) + np.conj(y) * apply(m, v)
    assert np.allclose(lhs, rhs)


def test_is_hermitian_examples():
    assert is_hermitian(AntilinearOp(np.eye(2)))
    assert not is_hermitian(AntilinearOp(np.array([[0, 1], [-1, 0]], dtype=complex)))
    assert is_hermitian(AntilinearOp(np.array([[1, 2 + 1j], [2 + 1j, 3j]])))


def test_build_T_identity_coefficients():
    system = biorthonormal_system(np.diag([1.0, 2.0]), CFG)
    op = build_T(system, CoefficientSet.identity_for(system))
    assert np.allclose(op.matrix, np.eye(2))


@pytest.mark.parametrize("kind, dim, seed", [("PairedSpectrum", 16, 1), ("PairedSpectrum", 6, 0),
                                             ("DenseSymmetric", 9, 4)])
def test_canonical_T_is_build_T_with_identity_blocks(kind, dim, seed):
    # PairedSpectrum n=6 seed 0 has a repeated real level
    system = biorthonormal_system(oracle.gen(oracle.GeneratorSpec(dim=dim, seed=seed, kind=kind)), CFG)
    reference = build_T(system, CoefficientSet.identity_for(system)).matrix  # one product per level
    m = canonical_T(system).matrix
    phi = system.phi_matrix()
    # summed in another order: rounding of n products of |phi|-sized terms
    tol = 4 * dim * np.finfo(np.float64).eps * frobenius(phi) ** 2
    assert frobenius(m - reference) <= tol
    assert frobenius(m - m.T) <= tol


def test_canonical_T_does_not_validate_its_own_blocks(monkeypatch):
    import symfact.antisym as antisym

    def refuse(system, coeffs):
        raise AssertionError("identity blocks validated")

    monkeypatch.setattr(antisym, "_validate_coeffs", refuse)
    system = biorthonormal_system(np.diag([1.0, 2.0, 2.0]), CFG)
    assert np.allclose(canonical_T(system).matrix, np.eye(3))
    with pytest.raises(AssertionError):
        build_T(system, CoefficientSet.identity_for(system))  # caller's blocks are still checked


def test_build_T_swap_coefficients_on_degenerate_level():
    system = biorthonormal_system(np.eye(2), CFG)
    assert len(system.levels) == 1 and system.levels[0].multiplicity == 2
    phi = system.phi_matrix()
    c = np.array([[0, 1], [1, 0]], dtype=complex)
    op = build_T(system, CoefficientSet(blocks=(c,)))
    assert np.allclose(op.matrix, phi @ c @ phi.T)


def test_build_T_pipeline_upper_triangular():
    h = np.array([[1, 1], [0, 2]], dtype=complex)
    system = biorthonormal_system(h, CFG)
    op = build_T(system, CoefficientSet.identity_for(system))
    phi = system.phi_matrix()
    assert np.allclose(op.matrix, phi @ phi.T, atol=1e-12)
    assert check_pseudo_hermitian(h, op) <= 1e-9
    assert is_hermitian(op)


def test_build_T_validates_blocks():
    system = biorthonormal_system(np.diag([1.0, 2.0]), CFG)
    with pytest.raises(ValidationError):
        build_T(system, CoefficientSet(blocks=(np.eye(2),)))  # multiplicity mismatch
    with pytest.raises(ValidationError):
        build_T(system, CoefficientSet(blocks=(np.array([[1.0]]), np.array([[0.0]]))))  # singular


def test_check_pseudo_hermitian_examples():
    h = np.diag([1.0, 2.0])
    assert check_pseudo_hermitian(h, AntilinearOp(np.eye(2))) <= 1e-15

    # the swap operator commutes with diag(i, -i) but is NOT a pseudo-Hermiticity
    # witness for it: H^dagger M - M conj(H) = [[0, -2i], [2i, 0]]
    hh = np.diag([1j, -1j])
    swap = AntilinearOp(np.array([[0, 1], [1, 0]], dtype=complex))
    res = check_pseudo_hermitian(hh, swap)
    assert res == pytest.approx(np.linalg.norm([[0, -2j], [2j, 0]]) / 2.0)
    assert check_commutes(hh, swap) <= 1e-15
    # the diagonal operator is the pseudo-Hermiticity witness instead
    assert check_pseudo_hermitian(hh, AntilinearOp(np.eye(2))) <= 1e-15

    jordan = np.array([[0, 1], [0, 0]], dtype=complex)
    res2 = check_pseudo_hermitian(jordan, AntilinearOp(np.eye(2)))
    assert res2 == pytest.approx(np.sqrt(2) / (np.sqrt(2) * 1.0))  # normalized defect 1


def test_check_pseudo_hermitian_linear_kind():
    h = np.array([[1, 1j], [0, 2]], dtype=complex)
    g = np.eye(2)
    res = check_pseudo_hermitian(h, g, kind="linear")
    direct = frobenius(h.conj().T - h) / (frobenius(h) * frobenius(g))
    assert res == pytest.approx(direct)
    with pytest.raises(ValidationError):
        check_pseudo_hermitian(h, np.zeros((2, 2)))


def test_pseudo_hermiticity_of_built_T_random():
    rng = np.random.default_rng(42)
    for seed in range(10):
        dim = 2 + seed % 6
        h = _random_diagonalizable(seed, dim)
        system = biorthonormal_system(h, CFG)
        coeffs = _random_coeffs(rng, system)
        op = build_T(system, coeffs)
        assert check_pseudo_hermitian(h, op) <= 1e-8
        assert frobenius(op.matrix - op.matrix.T) <= 1e-10 * frobenius(op.matrix)


def test_transform_basis_identity_and_scalar():
    h = _random_diagonalizable(3, 4)
    system = biorthonormal_system(h, CFG)
    eyes = [np.eye(lv.multiplicity) for lv in system.levels]
    same = transform_basis(system, eyes)
    assert np.allclose(same.phi_matrix(), system.phi_matrix())
    doubled = transform_basis(system, [2.0 * np.eye(lv.multiplicity) for lv in system.levels])
    assert np.allclose(doubled.phi_matrix(), 2.0 * system.phi_matrix())
    psi, phi = doubled.psi_matrix(), doubled.phi_matrix()
    assert frobenius(phi.conj().T @ psi - np.eye(4)) <= 1e-10


def test_transform_basis_preserves_biorthonormality():
    rng = np.random.default_rng(43)
    h = np.eye(3)  # one level of multiplicity 3
    system = biorthonormal_system(h, CFG)
    v = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    new = transform_basis(system, [v])
    psi, phi = new.psi_matrix(), new.phi_matrix()
    assert frobenius(phi.conj().T @ psi - np.eye(3)) <= 1e-10


def test_transform_coeffs_examples():
    c = CoefficientSet(blocks=(np.array([[4.0]]),))
    out = transform_coeffs(c, [np.array([[2.0]])])
    assert out.blocks[0][0, 0] == pytest.approx(1.0)
    same = transform_coeffs(c, [np.array([[1.0]])])
    assert same.blocks[0][0, 0] == pytest.approx(4.0)


def test_transform_roundtrip_identity():
    # c = v c' v^T must hold after transforming
    rng = np.random.default_rng(44)
    c = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    c = 0.5 * (c + c.T) + np.eye(2)
    v = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) + 2 * np.eye(2)
    out = transform_coeffs(CoefficientSet(blocks=(c,)), [v]).blocks[0]
    assert frobenius(v @ out @ v.T - c) <= 1e-10 * frobenius(c)


def test_covariance_of_T_under_basis_change():
    rng = np.random.default_rng(45)
    for seed in range(8):
        dim = 2 + seed % 5
        h = _random_diagonalizable(seed, dim)
        system = biorthonormal_system(h, CFG)
        coeffs = _random_coeffs(rng, system)
        v_set = []
        for lv in system.levels:
            k = lv.multiplicity
            while True:
                v = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
                if np.linalg.cond(v) < 1e3:
                    break
            v_set.append(v)
        m0 = build_T(system, coeffs).matrix
        m1 = build_T(transform_basis(system, v_set), transform_coeffs(coeffs, v_set)).matrix
        assert frobenius(m1 - m0) <= 1e-9 * frobenius(m0)


def test_canonicalize_scalar_level():
    system = biorthonormal_system(np.diag([1.0, 2.0]), CFG)
    coeffs = CoefficientSet(blocks=(np.array([[4.0]]), np.array([[1.0]])))
    new_system, op = canonicalize(system, coeffs, CFG)
    m_before = build_T(system, coeffs).matrix
    assert frobenius(op.matrix - m_before) <= 1e-9 * frobenius(m_before)


def test_canonicalize_raises_when_a_block_factor_misses_verify_tol():
    # a symmetric 2x2 Jordan block at 1: its factor misses verify_tol by
    # orders of magnitude, and the operator built on it would be off by as much
    system = biorthonormal_system(np.eye(2), CFG)
    coeffs = CoefficientSet(blocks=(np.array([[1 - 1j, 1], [1, 1 + 1j]]),))
    with pytest.raises(ValidationError, match="coefficient block 0 misses verify_tol"):
        canonicalize(system, coeffs, CFG)


def test_canonicalize_swap_level_and_idempotence():
    system = biorthonormal_system(np.eye(2), CFG)
    coeffs = CoefficientSet(blocks=(np.array([[0, 1], [1, 0]], dtype=complex),))
    new_system, op = canonicalize(system, coeffs, CFG)
    m_before = build_T(system, coeffs).matrix
    assert frobenius(op.matrix - m_before) <= 1e-9 * frobenius(m_before)
    # coefficients transported by the factor become the identity
    from symfact.factor import factor_symmetric

    v_set = [factor_symmetric(b, CFG).V for b in coeffs.blocks]
    transported = transform_coeffs(coeffs, v_set)
    assert frobenius(transported.blocks[0] - np.eye(2)) <= 1e-10
    # canonicalizing an already canonical set changes nothing
    again_system, again_op = canonicalize(new_system, CoefficientSet.identity_for(new_system), CFG)
    assert frobenius(again_op.matrix - op.matrix) <= 1e-9 * max(frobenius(op.matrix), 1.0)


def test_spectrum_pairing_examples():
    got = spectrum_pairing([(1.0, 1), (2.0, 1), (3.0, 1)], tol=1e-8)
    assert isinstance(got, SpectrumPairing)
    assert got.mapping == (0, 1, 2)
    assert all(got.real_levels)

    got2 = spectrum_pairing([(1 + 1j, 1), (1 - 1j, 1), (5.0, 1)], tol=1e-8)
    assert got2.mapping == (1, 0, 2)
    assert got2.real_levels == (False, False, True)

    got3 = spectrum_pairing([(1 + 1j, 1), (2.0, 1)], tol=1e-8)
    assert isinstance(got3, Unpairable)
    assert got3.offenders == (1 + 1j,)


def test_spectrum_pairing_multiplicity_must_match():
    got = spectrum_pairing([(1 + 1j, 2), (1 - 1j, 1)], tol=1e-8)
    assert isinstance(got, Unpairable)


def test_build_antilinear_symmetry_examples():
    system = biorthonormal_system(np.diag([1.0, 2.0]), CFG)
    pairing = spectrum_pairing(system, tol=1e-8)
    op = build_antilinear_symmetry(system, pairing)
    assert np.allclose(op.matrix, np.eye(2))

    h = np.diag([1j, -1j])
    system2 = biorthonormal_system(h, CFG)
    pairing2 = spectrum_pairing(system2, tol=1e-8)
    op2 = build_antilinear_symmetry(system2, pairing2)
    assert np.allclose(np.abs(op2.matrix), [[0, 1], [1, 0]], atol=1e-12)
    assert check_commutes(h, op2) <= 1e-12
    prod = h @ op2.matrix
    assert np.allclose(np.abs(prod), [[0, 1], [1, 0]], atol=1e-12)


def test_antilinear_symmetry_paired_spectrum_suite():
    for seed in range(15):
        dim = 2 + seed % 8
        h = oracle.gen(oracle.GeneratorSpec(dim=dim, seed=seed, kind="PairedSpectrum"))
        system = biorthonormal_system(h, CFG)
        tol = 1e-8 * max(1.0, max(abs(lv.value) for lv in system.levels))
        pairing = spectrum_pairing(system, tol=tol)
        assert isinstance(pairing, SpectrumPairing)
        op = build_antilinear_symmetry(system, pairing)
        assert check_commutes(h, op) <= 1e-8
        s = np.linalg.svd(op.matrix, compute_uv=False)
        assert s[0] / s[-1] <= 1e6


def test_check_commutes_examples():
    assert check_commutes(np.eye(2), AntilinearOp(np.eye(2))) == 0.0
    assert check_commutes(np.diag([1.0, 2.0]), AntilinearOp(np.eye(2))) <= 1e-15
    res = check_commutes(np.diag([1j, 1.0]), AntilinearOp(np.eye(2)))
    assert res > 0.5  # defect diag(2i, 0)


def test_check_involution_examples():
    assert check_involution(AntilinearOp(np.eye(3))) == 0.0
    assert check_involution(AntilinearOp(np.array([[0, 1], [1, 0]], dtype=complex))) == 0.0
    res = check_involution(AntilinearOp(2.0 * np.eye(3)))
    assert res == pytest.approx(3.0 * np.sqrt(3))


def test_canonical_T_selfadjoint_examples():
    op = canonical_T_selfadjoint(np.diag([1.0, 2.0]), CFG)
    assert np.allclose(op.matrix, np.eye(2))

    op2 = canonical_T_selfadjoint(np.array([[0, 1], [1, 0]], dtype=float), CFG)
    assert np.allclose(op2.matrix, np.eye(2), atol=1e-12)  # real orthogonal eigenbasis

    h = np.array([[2, 1j], [-1j, 2]], dtype=complex)
    op3 = canonical_T_selfadjoint(h, CFG)
    m = op3.matrix
    assert frobenius(m - m.T) <= 1e-10 * frobenius(m)
    assert frobenius(m @ m.conj().T - np.eye(2)) <= 1e-10  # unitary
    assert check_involution(op3) <= 1e-10
    assert check_commutes(h, op3) <= 1e-10
    assert check_pseudo_hermitian(h, op3) <= 1e-10


def test_canonical_T_selfadjoint_rejects_non_hermitian():
    with pytest.raises(ValidationError):
        canonical_T_selfadjoint(np.array([[0, 1], [0, 0]], dtype=complex), CFG)


def test_unpaired_spectra_have_no_invertible_commutant():
    rng = np.random.default_rng(46)
    for seed in range(10):
        dim = 2 + seed % 3
        values = np.array([complex(i, 0.7 + 0.31 * i) for i in range(dim)])  # never conjugate-closed
        while True:
            s = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            if np.linalg.cond(s) < 100:
                break
        h = s @ np.diag(values) @ np.linalg.inv(s)
        meta = [(v, 1) for v in values]
        assert isinstance(spectrum_pairing(meta, tol=1e-8), Unpairable)
        # vectorized commutation operator: N solves H N = N conj(H) iff K vec(N) = 0
        k = np.kron(np.eye(dim), h) - np.kron(h.conj().T, np.eye(dim))
        svals = np.linalg.svd(k, compute_uv=False)
        assert np.min(svals) > 1e-8 * np.max(svals)  # trivial null space: only N = 0
