"""Unit tests for the V V^T factorization."""

import sys

import numpy as np
import pytest

from symfact import oracle
from symfact.eigen import EigenPair, eigenpair
from symfact.factor import (
    ALL_BRANCHES,
    AllZeroSignal,
    BRANCH_CASE_I,
    BRANCH_CASE_II_DEGENERATE,
    BRANCH_CASE_II_GENERAL,
    BRANCH_CASE_II_LAMBDA_ZERO,
    NotSymmetricError,
    build_D,
    choose_x,
    dispatch_case,
    factor_antidiagonal,
    factor_symmetric,
    orthogonal_gauge,
    reduce_case_i,
    reduce_case_ii,
    verify_factorization,
)
from symfact.matcore import (
    ToleranceConfig,
    ValidationError,
    bilinear,
    complement_basis_within,
    determinant,
    frobenius,
    solve_linear,
)

CFG = ToleranceConfig()


def _unit(v):
    v = np.asarray(v, dtype=complex)
    return v / np.linalg.norm(v)


def _isotropic_core(seed, n):
    """Unit isotropic e and C = lam (e e* + conj(e) e^T), which has C e = lam e."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, 2)))
    e = (q[:, 0] + 1j * q[:, 1]) / np.sqrt(2)
    lam = 1.1 * np.exp(0.4j)
    return e, lam, lam * (np.outer(e, e.conj()) + np.outer(e.conj(), e))


def test_factor_scalar_base_case():
    r = factor_symmetric(np.array([[4.0]]))
    assert np.allclose(r.V, [[2.0]])
    assert r.trace.branches() == ["Base"]


def test_factor_identity_contract():
    r = factor_symmetric(np.eye(3))
    assert r.relative_residual <= 1e-12
    assert r.V.shape == (3, 3)


def test_factor_antidiagonal_2x2():
    c = np.array([[0, 1], [1, 0]], dtype=complex)
    r = factor_symmetric(c)
    assert r.relative_residual <= 1e-12
    # both eigenvectors of this matrix are non-isotropic, so the first split
    # is necessarily the non-isotropic branch
    assert r.trace.branches()[0] == BRANCH_CASE_I


def test_factor_rank_one_isotropic():
    c = np.array([[1, 1j], [1j, -1]], dtype=complex)
    r = factor_symmetric(c)
    assert r.relative_residual <= 1e-12
    assert r.trace.branches()[0] == BRANCH_CASE_II_LAMBDA_ZERO
    # rank-one outer factor: first column is (1, i) up to an overall sign,
    # second column vanishes
    sign = 1.0 if abs(r.V[0, 0] - 1) < 1 else -1.0
    assert np.allclose(sign * r.V, [[1, 0], [1j, 0]], atol=1e-10)


def test_factor_zero_matrix_shortcut():
    r = factor_symmetric(np.zeros((4, 4)))
    assert np.allclose(r.V, 0)
    assert r.trace.branches() == ["ZeroMatrix"]
    assert r.residual == 0.0


def test_factor_rejects_non_symmetric():
    with pytest.raises(NotSymmetricError):
        factor_symmetric([[0, 1], [0, 0]])


def test_factor_dimensions_decrease_by_one():
    c = oracle.gen(oracle.GeneratorSpec(dim=7, seed=5, kind="DenseSymmetric"))
    r = factor_symmetric(c)
    dims = [lv.dim for lv in r.trace.levels]
    assert dims[0] == 7
    assert all(a - b == 1 for a, b in zip(dims, dims[1:]))


def test_dispatch_case_examples():
    c = np.diag([2.0, 3.0])
    pair = EigenPair(value=3.0, vector=np.array([0, 1], dtype=complex), residual=0.0)
    assert dispatch_case(c, pair, CFG) == BRANCH_CASE_I

    c2 = np.array([[1, 1j], [1j, -1]], dtype=complex)
    pair2 = EigenPair(value=0.0, vector=_unit([1, 1j]), residual=0.0)
    assert dispatch_case(c2, pair2, CFG) == BRANCH_CASE_II_LAMBDA_ZERO


def test_dispatch_case_threshold():
    eps = 1e-5
    e = _unit([1.0, eps * 1j])
    c = np.outer(e, e)  # any symmetric carrier; only the vector matters for the split
    pair = EigenPair(value=complex(np.dot(e, np.conj(e))), vector=e, residual=0.0)
    assert abs(bilinear(e, e)) > CFG.iso_tol
    assert dispatch_case(c, pair, CFG) == BRANCH_CASE_I


def test_reduce_case_i_diagonal():
    c = np.diag([2.0, 3.0])
    pair = EigenPair(value=3.0, vector=np.array([0, 1], dtype=complex), residual=0.0)
    a, ct, mu = reduce_case_i(c, pair, CFG)
    assert ct.shape == (1, 1)
    assert ct[0, 0] == pytest.approx(2.0)
    assert mu == pytest.approx(3.0)
    block = a.T @ c @ a
    assert abs(block[0, 1]) < 1e-12 and abs(block[1, 0]) < 1e-12


def test_reduce_case_i_antidiagonal():
    c = np.array([[0, 1], [1, 0]], dtype=complex)
    pair = EigenPair(value=1.0, vector=_unit([1, 1]), residual=0.0)
    a, ct, mu = reduce_case_i(c, pair, CFG)
    assert ct[0, 0] == pytest.approx(-1.0)
    assert mu == pytest.approx(1.0)


def test_reduce_case_i_structural_zeros_random():
    rng = np.random.default_rng(31)
    for n in (3, 5, 8):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        c = 0.5 * (g + g.T)
        pair = eigenpair(c, CFG)
        if abs(bilinear(pair.vector, pair.vector)) <= CFG.iso_tol:
            continue
        a, ct, mu = reduce_case_i(c, pair, CFG)
        block = a.T @ c @ a
        off = max(frobenius(block[:-1, -1]), frobenius(block[-1, :-1]))
        assert off <= 1e-10 * frobenius(c)
        assert frobenius(ct - ct.T) <= 1e-13 * max(frobenius(ct), 1.0)


def test_assemble_case_i_full_pipeline_diag():
    c = np.diag([2.0, 3.0])
    r = factor_symmetric(c)
    assert r.residual <= 1e-12


def test_reduce_case_ii_structure():
    c = np.array([[1, 1j], [1j, -1]], dtype=complex)
    pair = EigenPair(value=0.0, vector=_unit([1, 1j]), residual=0.0)
    a_prime, c_prime, ct_prime, alpha = reduce_case_ii(c, pair, CFG)
    assert alpha == pytest.approx(1.0)
    assert abs(c_prime[1, 1]) < 1e-12          # e^T C e = lambda e^T e = 0
    assert abs(c_prime[0, 1]) < 1e-12          # lambda = 0 here
    assert ct_prime.shape == (1, 1)
    # C = 2 e e^T here, so conj(e)^T C conj(e) = 2 (conj(e)^T e)^2 = 2
    assert abs(ct_prime[0, 0] - 2.0) < 1e-12


def test_reduce_case_ii_structural_zeros_general():
    rng = np.random.default_rng(32)
    for dim in (4, 6):
        c = oracle.gen(oracle.GeneratorSpec(dim=dim, seed=17, kind="IsotropicLambdaNonzero"))
        pair = eigenpair(c, CFG)
        e = pair.vector
        if abs(bilinear(e, e)) > CFG.iso_tol:
            # the eigensolver may land on a non-isotropic mix; construct the
            # isotropic member directly from the generator's eigenvalue
            continue
        a_prime, c_prime, ct_prime, alpha = reduce_case_ii(c, pair, CFG)
        n = dim - 1
        assert np.max(np.abs(c_prime[: n - 1, n])) <= 1e-10 * frobenius(c)
        assert abs(c_prime[n, n]) <= 1e-10 * frobenius(c)


def test_reduce_case_ii_rejects_non_isotropic():
    c = np.eye(2)
    pair = EigenPair(value=1.0, vector=np.array([1.0, 0.0], dtype=complex), residual=0.0)
    with pytest.raises(ValidationError):
        reduce_case_ii(c, pair, CFG)


def test_choose_x_allzero():
    assert isinstance(choose_x(np.zeros((3, 3)), 1.0, CFG), AllZeroSignal)


def test_choose_x_corner_entry():
    ct = np.zeros((2, 2), dtype=complex)
    ct[1, 1] = 3.0
    la = 2.0
    got = choose_x(ct, la, CFG)
    assert got.strategy == "zero"
    assert got.det_d == pytest.approx(-(la ** -2) * 3.0)
    assert got.x[-1] == pytest.approx(-1 / la)


def test_choose_x_linear_term():
    ct = np.zeros((2, 2), dtype=complex)
    ct[0, 1] = ct[1, 0] = 0.5  # corner and diagonal vanish, coupling row does not
    got = choose_x(ct, 1.0, CFG)
    assert not isinstance(got, AllZeroSignal)
    x, det_d = got.x, got.det_d
    y = ct @ x
    assert det_d == pytest.approx(-(x @ y))
    assert abs(det_d) >= CFG.det_tol


def test_build_D_shape_and_determinant():
    d = build_D([2.0], [3.0])
    assert np.allclose(d, [[1, 2], [3, 0]])
    assert determinant(d) == pytest.approx(-6.0)
    assert determinant(build_D([0, 0], [1, 1])) == pytest.approx(0.0)


def test_build_D_determinant_matches_closed_form_random():
    rng = np.random.default_rng(33)
    for _ in range(10):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        ct = 0.5 * (g + g.T)
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        y = ct @ x
        closed = -complex(x @ y)
        assert abs(determinant(build_D(x, y)) - closed) <= 1e-12 * max(1.0, abs(closed))


def test_factor_antidiagonal_closed_form():
    m = factor_antidiagonal(1.0)
    assert np.allclose(m, [[1, 0.5], [1j, -0.5j]])
    assert np.allclose(m.T @ m, [[0, 1], [1, 0]], atol=1e-15)
    m2 = factor_antidiagonal(2.0)
    assert np.allclose(m2.T @ m2, [[0, 2], [2, 0]], atol=1e-15)
    with pytest.raises(ValidationError):
        factor_antidiagonal(0.0)


def test_assemble_case_ii_degenerate_pipeline():
    c = oracle.gen(oracle.GeneratorSpec(dim=5, seed=4, kind="IsotropicLambdaNonzero"))
    r = factor_symmetric(c)
    assert r.relative_residual <= 1e-10
    assert BRANCH_CASE_II_DEGENERATE in r.trace.branches()


def test_assemble_case_ii_lambda_zero_pipeline():
    c = oracle.gen(oracle.GeneratorSpec(dim=5, seed=4, kind="IsotropicLambdaZero"))
    r = factor_symmetric(c)
    assert r.relative_residual <= 1e-10
    assert BRANCH_CASE_II_LAMBDA_ZERO in r.trace.branches()


def test_assemble_case_ii_general_pipeline():
    c = oracle.gen(oracle.GeneratorSpec(dim=5, seed=3, kind="IsotropicLambdaNonzero"))
    r = factor_symmetric(c)
    assert r.relative_residual <= 1e-8
    assert BRANCH_CASE_II_GENERAL in r.trace.branches()


def test_assemble_case_ii_direct_call():
    from symfact.factor import _first_sound_plan

    for seed in (2, 3):  # one degenerate-core and one bulk-enriched instance
        c = oracle.gen(oracle.GeneratorSpec(dim=4, seed=seed, kind="IsotropicLambdaNonzero"))
        plan = _first_sound_plan(c, CFG, 0, 1.0)
        assert plan.record.branch in (BRANCH_CASE_II_DEGENERATE, BRANCH_CASE_II_GENERAL)
        b = plan.b.copy()
        if plan.sub is not None:  # any factor of the next block completes B
            b[:-1, :-1] = factor_symmetric(plan.sub, CFG).V.T
        assert verify_factorization(c, solve_linear(plan.a.T, b.T), CFG).passed


def test_dispatch_case_agrees_with_executed_plan():
    # a coupling block of 3e-10 scores well only with x amplified by 1e7;
    # the bordered transform built from it is singular, so the level drops it
    e, lam, c = _isotropic_core(7, 5)
    c = c + 3e-10 * np.outer(e, e)
    pair = EigenPair(value=lam, vector=e, residual=0.0)
    assert dispatch_case(c, pair, CFG) == BRANCH_CASE_II_DEGENERATE
    from symfact.factor import _plan

    plan = _plan(c, pair, CFG, 0)
    assert plan.record.x_strategy == "dropped" and plan.sub is None
    assert verify_factorization(c, solve_linear(plan.a.T, plan.b.T), CFG).passed


def test_factor_stack_depth_does_not_grow_with_dimension():
    c = oracle.gen(oracle.GeneratorSpec(dim=40, seed=1, kind="DenseSymmetric"))
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 60)
    try:
        r = factor_symmetric(c, CFG)
    finally:
        sys.setrecursionlimit(limit)
    assert r.relative_residual <= CFG.verify_tol
    assert len(r.trace.levels) == 40


def test_orthogonal_gauge_identity_and_permutation():
    v = np.array([[1, 2], [3, 4]], dtype=complex)
    assert np.allclose(orthogonal_gauge(v, np.eye(2)), v)
    p = np.array([[0, 1], [1, 0]], dtype=complex)
    assert np.allclose(orthogonal_gauge(v, p), v[:, ::-1])


def test_orthogonal_gauge_complex_rotation():
    theta = 0.3 + 0.2j
    o = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    v = np.array([[1, 2], [3, 4]], dtype=complex)
    w = orthogonal_gauge(v, o)
    assert frobenius(w @ w.T - v @ v.T) <= 1e-10 * frobenius(v @ v.T)


def test_orthogonal_gauge_rejects_non_orthogonal():
    with pytest.raises(ValidationError):
        orthogonal_gauge(np.eye(2), [[1, 1], [0, 1]])


def test_gauge_invariance_many_seeds():
    rng = np.random.default_rng(34)
    for seed in range(20):
        n = 2 + seed % 5
        v = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        o = oracle.gen_complex_orthogonal(n, seed)
        w = orthogonal_gauge(v, o)
        prod = v @ v.T
        assert frobenius(w @ w.T - prod) <= 1e-9 * frobenius(prod)


def test_verify_factorization_examples():
    c = np.array([[0, 1], [1, 0]], dtype=complex)
    good = factor_symmetric(c).V
    assert verify_factorization(c, good, CFG).passed
    bad = verify_factorization(c, np.eye(2), CFG)
    assert not bad.passed
    # C - I = [[-1, 1], [1, -1]] has Frobenius norm 2
    assert bad.residual == pytest.approx(2.0)
    exact = verify_factorization(np.eye(2), np.eye(2), CFG)
    assert exact.residual == 0.0


def test_soundness_over_seeded_dense_suite():
    for seed in range(40):
        dim = 1 + seed % 10
        c = oracle.gen(oracle.GeneratorSpec(dim=dim, seed=seed, kind="DenseSymmetric"))
        r = factor_symmetric(c)
        assert r.residual <= CFG.verify_tol * max(frobenius(c), 1.0)
        assert r.V.shape == c.shape


def test_branch_labels_are_known():
    for seed in range(20):
        dim = 2 + seed % 8
        for kind in ("DenseSymmetric", "IsotropicLambdaZero", "IsotropicLambdaNonzero", "RankDeficient"):
            c = oracle.gen(oracle.GeneratorSpec(dim=dim, seed=seed, kind=kind))
            r = factor_symmetric(c)
            assert set(r.trace.branches()) <= set(ALL_BRANCHES)


def test_factor_is_scale_invariant():
    base = oracle.gen(oracle.GeneratorSpec(dim=6, seed=11, kind="IsotropicLambdaNonzero"))
    for scale in (1e-10, 1e-4, 1.0, 1e4, 1e10):
        c = scale * base
        r = factor_symmetric(c, CFG)
        assert r.residual <= 1e-9 * frobenius(c)


def test_choose_x_magnitude_sweep_for_weak_coupling():
    # coupling block far smaller than lambda*alpha: only amplified free
    # components give a well-conditioned transform
    ct = np.zeros((3, 3), dtype=complex)
    ct[0, 0] = 1e-9
    ct[1, 1] = 2e-9
    la = 1.0
    got = choose_x(ct, la, CFG)
    assert not isinstance(got, AllZeroSignal)
    assert got.score >= 1e-3
    assert "*" in got.strategy  # a swept magnitude, not a bare unit/random draw


def test_weak_cross_coupling_is_dropped_not_bungled():
    # cross-coupling with vanishing diagonals admits no well-conditioned
    # bordered transform; when negligible it must go through the closed form
    e, _, c = _isotropic_core(35, 5)
    s = np.zeros((3, 3), dtype=complex)
    s[0, 1] = s[1, 0] = 1e-9  # pure cross coupling
    c = c + complement_basis_within(e) @ s @ complement_basis_within(e).T
    r = factor_symmetric(c, CFG)
    assert r.residual <= 1e-8 * frobenius(c)


def test_negligible_coupling_is_dropped_even_when_the_ladder_scores_well():
    # the magnitude sweep accepts x amplified by 1e3 here, a score earned on
    # rounding noise; the level must drop the coupling instead
    e, _, c = _isotropic_core(4, 8)
    s = np.zeros((6, 6), dtype=complex)
    s[0, 0] = 1e-9
    c = c + complement_basis_within(e) @ s @ complement_basis_within(e).T
    r = factor_symmetric(c, CFG)
    assert r.relative_residual <= CFG.verify_tol
    first = r.trace.levels[0]
    assert (first.branch, first.x_strategy) == (BRANCH_CASE_II_DEGENERATE, "dropped")


def test_ldlt_agreement_when_it_succeeds():
    for seed in range(25):
        dim = 2 + seed % 8
        c = oracle.gen(oracle.GeneratorSpec(dim=dim, seed=seed, kind="DenseSymmetric"))
        alt = oracle.factor_via_ldlt(c)
        if isinstance(alt, oracle.Breakdown):
            continue
        assert verify_factorization(c, alt, CFG).passed
        assert verify_factorization(c, factor_symmetric(c).V, CFG).passed
