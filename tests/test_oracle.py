"""Unit tests for the LDL^T oracle and the seeded generators."""

import numpy as np
import pytest

from symfact.factor import factor_symmetric, verify_factorization
from symfact.matcore import ToleranceConfig, ValidationError, frobenius
from symfact.oracle import (
    ALL_KINDS,
    Breakdown,
    GeneratorSpec,
    factor_via_ldlt,
    gen,
    gen_complex_orthogonal,
    ldlt_symmetric,
)

CFG = ToleranceConfig()


def test_ldlt_two_by_two_example():
    lower, d = ldlt_symmetric(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(lower, [[1, 0], [0.5, 1]])
    assert np.allclose(d, [2.0, 1.5])


def test_ldlt_identity():
    lower, d = ldlt_symmetric(np.eye(3))
    assert np.allclose(lower, np.eye(3))
    assert np.allclose(d, 1.0)


def test_ldlt_breakdown_on_zero_diagonal():
    got = ldlt_symmetric(np.array([[0, 1], [1, 0]], dtype=complex))
    assert isinstance(got, Breakdown)
    assert got.step == 0


def test_ldlt_product_identity_with_pivoting():
    rng = np.random.default_rng(51)
    for _ in range(10):
        g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        c = 0.5 * (g + g.T)
        got = ldlt_symmetric(c)
        if isinstance(got, Breakdown):
            continue
        lower, d = got
        assert frobenius(lower @ np.diag(d) @ lower.T - c) <= 1e-10 * frobenius(c)


def test_ldlt_requires_symmetry():
    with pytest.raises(ValidationError):
        ldlt_symmetric(np.array([[0, 1], [0, 0]], dtype=complex))


def test_factor_via_ldlt_examples():
    v = factor_via_ldlt(np.diag([4.0, 9.0]))
    # pivoting may permute the columns (a gauge change); the product is exact
    assert np.allclose(v @ v.T, np.diag([4.0, 9.0]))
    assert sorted(np.abs(v[np.nonzero(v)])) == [2.0, 3.0]
    c = np.array([[2.0, 1.0], [1.0, 2.0]])
    v2 = factor_via_ldlt(c)
    assert frobenius(v2 @ v2.T - c) <= 1e-12
    assert isinstance(factor_via_ldlt(np.array([[0, 1], [1, 0]], dtype=complex)), Breakdown)


def test_ldlt_handles_zero_tail():
    c = np.diag([4.0, 9.0, 0.0])
    lower, d = ldlt_symmetric(c)
    assert np.allclose(lower @ np.diag(d) @ lower.T, c)


def test_generators_are_deterministic():
    for kind in ALL_KINDS:
        a = gen(GeneratorSpec(dim=5, seed=9, kind=kind))
        b = gen(GeneratorSpec(dim=5, seed=9, kind=kind))
        assert np.array_equal(a, b)
        c = gen(GeneratorSpec(dim=5, seed=10, kind=kind))
        assert not np.array_equal(a, c)


def test_dense_symmetric_is_exactly_symmetric():
    c = gen(GeneratorSpec(dim=6, seed=0, kind="DenseSymmetric"))
    assert frobenius(c - c.T) == 0.0


def test_hermitian_dense_is_hermitian():
    c = gen(GeneratorSpec(dim=6, seed=0, kind="HermitianDense"))
    assert frobenius(c - c.conj().T) <= 1e-15 * frobenius(c)


def test_isotropic_lambda_zero_annihilates_its_vector():
    # rank-1 construction: C = e e^T with isotropic e, so C e = (e^T e) e ~ 0
    c = gen(GeneratorSpec(dim=5, seed=2, kind="IsotropicLambdaZero"))
    w, v = np.linalg.eig(c)
    assert np.max(np.abs(w)) <= 1e-7 * frobenius(c)  # nilpotent to rounding


def test_isotropic_lambda_zero_nilpotent_variant_breaks_ldlt():
    c = gen(GeneratorSpec(dim=6, seed=3, kind="IsotropicLambdaZero"))
    assert np.max(np.abs(np.diag(c))) <= 1e-14 * frobenius(c)
    assert isinstance(factor_via_ldlt(c), Breakdown)
    assert frobenius(c @ c) <= 1e-13 * frobenius(c) ** 2  # squares to zero


def test_isotropic_lambda_nonzero_eigen_relation():
    for seed in (0, 1, 4, 5):
        c = gen(GeneratorSpec(dim=5, seed=seed, kind="IsotropicLambdaNonzero"))
        w = np.linalg.eigvals(c)
        lam = w[np.argmax(np.abs(w))]
        assert abs(lam) >= 0.4
        # the dominant eigenvalue is doubly degenerate with isotropic members
        assert sorted(np.abs(w))[-2] == pytest.approx(abs(lam), rel=1e-8)


def test_paired_spectrum_is_conjugation_closed():
    for seed in range(8):
        c = gen(GeneratorSpec(dim=6, seed=seed, kind="PairedSpectrum"))
        w = np.linalg.eigvals(c)
        for v in w:
            assert min(abs(v.conjugate() - u) for u in w) <= 1e-6


def test_rank_deficient_has_deficient_rank():
    c = gen(GeneratorSpec(dim=6, seed=1, kind="RankDeficient"))
    s = np.linalg.svd(c, compute_uv=False)
    assert s[-1] <= 1e-10 * s[0]
    z = gen(GeneratorSpec(dim=4, seed=5, kind="RankDeficient"))
    assert frobenius(z) == 0.0  # rank-0 member of the family


def test_generator_coverage_forcing():
    zero_hit = nonzero_hits = set()
    zero_hit = set()
    for seed in range(24):
        r = factor_symmetric(gen(GeneratorSpec(dim=2 + seed % 7, seed=seed, kind="IsotropicLambdaZero")), CFG)
        assert r.relative_residual <= 1e-8
        zero_hit |= set(r.trace.branches())
        r2 = factor_symmetric(gen(GeneratorSpec(dim=2 + seed % 7, seed=seed, kind="IsotropicLambdaNonzero")), CFG)
        assert r2.relative_residual <= 1e-8
        nonzero_hits = set(r2.trace.branches()) | nonzero_hits
    assert "CaseII_LambdaZero" in zero_hit
    assert "CaseII_Degenerate" in nonzero_hits
    assert "CaseII_General" in nonzero_hits


def test_gen_complex_orthogonal():
    assert np.allclose(gen_complex_orthogonal(1, 0), [[1.0]])
    for seed in range(10):
        for dim in (2, 3, 6, 16, 32, 64):
            o = gen_complex_orthogonal(dim, seed)
            assert frobenius(o.T @ o - np.eye(dim)) <= 1e-10
            assert np.max(np.abs(o.imag)) > 0 or dim == 1  # genuinely complex draws


def test_generator_validation():
    with pytest.raises(ValidationError):
        GeneratorSpec(dim=0, seed=1, kind="DenseSymmetric")
    with pytest.raises(ValidationError):
        GeneratorSpec(dim=3, seed=1, kind="NoSuchKind")
    with pytest.raises(ValidationError):
        gen(GeneratorSpec(dim=1, seed=1, kind="IsotropicLambdaZero"))


def test_ldlt_agreement_with_main_factorization():
    agree = 0
    for seed in range(30):
        dim = 2 + seed % 9
        c = gen(GeneratorSpec(dim=dim, seed=seed, kind="DenseSymmetric"))
        got = factor_via_ldlt(c)
        if isinstance(got, Breakdown):
            continue
        agree += 1
        assert verify_factorization(c, got, CFG).passed
        assert factor_symmetric(c, CFG).relative_residual <= 1e-8
    assert agree >= 25  # dense draws essentially never break down
