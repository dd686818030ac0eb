"""Unit tests for the V V^T factorization."""

import sys

import numpy as np
import pytest

from symfact import factor, oracle
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
    assert factor_symmetric(np.diag([2.0, 3.0]), CFG).trace.branches() == [BRANCH_CASE_I, "Base"]
    c2 = np.array([[1, 1j], [1j, -1]], dtype=complex)
    assert factor_symmetric(c2, CFG).trace.branches() == [BRANCH_CASE_II_LAMBDA_ZERO, "Base"]


def test_dispatch_case_threshold():
    eps = 1e-5
    e = _unit([1.0, eps * 1j])
    assert abs(bilinear(e, e)) > CFG.iso_tol
    assert factor_symmetric(np.outer(e, e), CFG).trace.branches()[0] == BRANCH_CASE_I


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
    a_prime, c_prime, ct_prime = reduce_case_ii(c, pair, CFG)
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
        a_prime, c_prime, ct_prime = reduce_case_ii(c, pair, CFG)
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
    assert np.linalg.det(d) == pytest.approx(-6.0)
    assert np.linalg.det(build_D([0, 0], [1, 1])) == pytest.approx(0.0)


def test_build_D_determinant_matches_closed_form_random():
    rng = np.random.default_rng(33)
    for _ in range(10):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        ct = 0.5 * (g + g.T)
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        y = ct @ x
        closed = -complex(x @ y)
        assert abs(np.linalg.det(build_D(x, y)) - closed) <= 1e-12 * max(1.0, abs(closed))


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
        plan = _first_sound_plan(c, CFG, 0)
        assert plan.record.branch in (BRANCH_CASE_II_DEGENERATE, BRANCH_CASE_II_GENERAL)
        b = plan.b.copy()
        if plan.sub is not None:  # any factor of the next block completes B
            b[:-1, :-1] = factor_symmetric(plan.sub, CFG).V.T
        assert verify_factorization(c, solve_linear(plan.a.T, b.T), CFG).passed


def test_dispatch_case_agrees_with_executed_plan():
    # a coupling block of 3e-10 scores well only with x amplified by 1e7;
    # the bordered transform built from it is singular, so the level drops it
    # (the walk defers this near-defective pair, so the plan is asked directly)
    from symfact.factor import _plan

    e, lam, c = _isotropic_core(7, 5)
    c = c + 3e-10 * np.outer(e, e)
    plan = _plan(c, EigenPair(value=lam, vector=e, residual=0.0), CFG, 0)
    assert (plan.record.branch, plan.record.x_strategy) == (BRANCH_CASE_II_DEGENERATE, "dropped")
    assert plan.sub is None
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


def _scaled_values(trace, s):
    return [None if lv.value is None else s * lv.value for lv in trace.levels]


def test_trace_values_are_in_the_input_units():
    # every level works at exactly unit norm, so a power-of-4 scale (exact in
    # binary floating point) scales V by the power of 2 and every trace value
    # by the power of 4, bit for bit, in every family
    for kind in ("DenseSymmetric", "RankDeficient", "IsotropicLambdaZero", "IsotropicLambdaNonzero"):
        for seed in range(8):
            c = oracle.gen(oracle.GeneratorSpec(dim=2 + seed % 9, seed=seed, kind=kind))
            plain = factor_symmetric(c, CFG)
            for k in (-10, 12):
                scaled = factor_symmetric(4.0**k * c, CFG)
                assert np.array_equal(scaled.V, 2.0**k * plain.V)
                assert [lv.value for lv in scaled.trace.levels] == _scaled_values(plain.trace, 4.0**k)
    # any other scale rounds the unit-norm blocks differently; on the isotropic
    # families that can pick another (equally valid) isotropic line, so only
    # the families without isotropic levels keep their values to 1e-6
    for kind in ("DenseSymmetric", "RankDeficient"):
        for seed in range(8):
            c = oracle.gen(oracle.GeneratorSpec(dim=2 + seed % 9, seed=seed, kind=kind))
            plain = factor_symmetric(c, CFG).trace
            scaled = factor_symmetric(1e5 * c, CFG).trace
            assert scaled.branches() == plain.branches()
            floor = 1e-6 * frobenius(1e5 * c)  # null levels record rounding-level values
            for hi, want in zip(scaled.levels, _scaled_values(plain, 1e5)):
                assert hi.value == pytest.approx(want, rel=1e-6, abs=floor)


def test_nilpotent_blocks_factor_to_their_null_directions():
    # nilpotent cores: the SVD of the block finds its null space, not the
    # perturbed ~5e-9 eigenvalues, and the whole null space leaves at once
    for seed in (47, 299, 3611):
        c = oracle.gen(oracle.GeneratorSpec(dim=4, seed=seed, kind="IsotropicLambdaZero"))
        assert factor_symmetric(c, CFG).relative_residual <= 1e-13


def test_rank_one_isotropic_inputs_split_their_null_space_in_one_level():
    # C = e e^T with e^T e = 0 has an (n-1)-dimensional null space: one
    # unitary split leaves a 1x1 block
    for n in (6, 16, 32):
        for seed in (0, 1, 2):
            c = oracle.gen(oracle.GeneratorSpec(dim=n, seed=seed, kind="IsotropicLambdaZero"))
            r = factor_symmetric(c, CFG)
            assert r.trace.branches() == [BRANCH_CASE_II_LAMBDA_ZERO, "Base"]
            assert r.relative_residual <= 1e-13


def _expm(a):
    """Matrix exponential by scaling and squaring of a Taylor series."""
    s = max(0, int(np.ceil(np.log2(max(np.linalg.norm(a, 1), 1e-300)))) + 1)
    a = a / 2.0**s
    term = np.eye(a.shape[0], dtype=np.complex128)
    out = term.copy()
    for j in range(1, 20):
        term = term @ a / j
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


def _clustered(seed, gap, complex_q):
    """C = Q diag(d) Q^T, n=10: five eigenvalue pairs (a, a + gap), Q real
    orthogonal or complex orthogonal (expm of a complex skew-symmetric)."""
    rng = np.random.default_rng(seed)
    base = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    d = np.concatenate([base, base + gap])
    if complex_q:
        k = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
        q = _expm(0.3 * (k - k.T))
    else:
        q, _ = np.linalg.qr(rng.standard_normal((10, 10)))
    c = q @ np.diag(d) @ q.T
    return 0.5 * (c + c.T)


def test_clustered_spectra_factor_within_verify_tol():
    # pairs straddle the simple-eigenvalue gap (1e-6 |C|_F): the wide ones
    # take LAPACK's eigenvectors, the close ones an SVD of C - lambda*I
    for seed in range(6):
        for gap in (1e-3, 1e-5, 1e-6, 3e-7, 1e-8, 1e-11, 0.0):
            for complex_q in (False, True):
                c = _clustered(seed, gap, complex_q)
                assert factor_symmetric(c, CFG).relative_residual <= CFG.verify_tol


def _count_calls(monkeypatch, module, name):
    calls = []
    inner = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_simple_eigenvalues_skip_inverse_iteration_and_the_upgrade(monkeypatch):
    svds = _count_calls(monkeypatch, np.linalg, "svd")
    upgraded = _count_calls(monkeypatch, factor, "_isotropic_upgrade")
    c = oracle.gen(oracle.GeneratorSpec(dim=10, seed=1, kind="DenseSymmetric"))
    assert factor_symmetric(c, CFG).relative_residual <= CFG.verify_tol
    assert (svds, upgraded) == ([], [])
    # a nilpotent core has a near-zero, clustered candidate: one SVD of the block
    c = oracle.gen(oracle.GeneratorSpec(dim=4, seed=299, kind="IsotropicLambdaZero"))
    assert factor_symmetric(c, CFG).relative_residual <= CFG.verify_tol
    assert svds


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
