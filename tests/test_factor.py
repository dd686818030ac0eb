"""Unit tests for the V V^T factorization."""

import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from symfact import factor, oracle
from symfact.eigen import EigenPair, eigenpair
from symfact.factor import (
    ALL_BRANCHES,
    BRANCH_CASE_I,
    BRANCH_CASE_II_DEGENERATE,
    BRANCH_CASE_II_GENERAL,
    BRANCH_CASE_II_LAMBDA_ZERO,
    BRANCH_TAKAGI,
    NotSymmetricError,
    choose_x,
    factor_symmetric,
    orthogonal_gauge,
    verify_factorization,
)
from symfact.matcore import (
    ToleranceConfig,
    ValidationError,
    complement_basis_within,
    frobenius,
    solve_linear,
)

CFG = ToleranceConfig()


def _unit(v):
    v = np.asarray(v, dtype=complex)
    return v / np.linalg.norm(v)


def _canonical(e):
    """e made unit and phase-canonical, as the factor path hands an isotropic level its vector."""
    return factor.eigen._phase_canonical(np.asarray(e, dtype=complex) / np.linalg.norm(e))


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
    assert abs(e @ e) > CFG.iso_tol
    assert factor_symmetric(np.outer(e, e), CFG).trace.branches()[0] == BRANCH_CASE_I


def test_assemble_case_i_full_pipeline_diag():
    c = np.diag([2.0, 3.0])
    r = factor_symmetric(c)
    assert r.residual <= 1e-12


def test_reduce_case_ii_structure():
    c = np.array([[1, 1j], [1j, -1]], dtype=complex)
    a_prime, c_prime = factor._reduce_case_ii(c, _canonical([1, 1j]))
    ct_prime = c_prime[:-1, :-1]
    assert abs(c_prime[1, 1]) < 1e-12          # e^T C e = lambda e^T e = 0
    assert abs(c_prime[0, 1]) < 1e-12          # lambda = 0 here
    assert ct_prime.shape == (1, 1)
    # C = 2 e e^T here, so conj(e)^T C conj(e) = 2 (conj(e)^T e)^2 = 2
    assert abs(ct_prime[0, 0] - 2.0) < 1e-12


def test_reduce_case_ii_structural_zeros_general():
    rng = np.random.default_rng(32)
    for dim in (4, 6):
        c = oracle.gen(oracle.GeneratorSpec(dim=dim, seed=17, kind="IsotropicLambdaNonzero"))
        e = _canonical(eigenpair(c, CFG).vector)
        if abs(e @ e) > CFG.iso_tol:
            # the eigensolver may land on a non-isotropic mix; construct the
            # isotropic member directly from the generator's eigenvalue
            continue
        a_prime, c_prime = factor._reduce_case_ii(c, e)
        n = dim - 1
        assert np.max(np.abs(c_prime[: n - 1, n])) <= 1e-10 * frobenius(c)
        assert abs(c_prime[n, n]) <= 1e-10 * frobenius(c)


def test_choose_x_allzero():
    # whether a coupling block is worth bordering is _plan's decision; on an all-zero block every
    # rung scores 0, and the first, zero, is returned as a fallback with det D = 0
    got = choose_x(np.zeros((3, 3)), 2.0)
    assert (got.strategy, got.det_d, got.score) == ("fallback:zero", 0.0, 0.0)
    assert np.array_equal(got.x, [0.0, 0.0, -0.5])


def test_choose_x_corner_entry():
    ct = np.zeros((2, 2), dtype=complex)
    ct[1, 1] = 3.0
    la = 2.0
    got = choose_x(ct, la)
    assert got.strategy == "zero"
    assert got.det_d == pytest.approx(-(la ** -2) * 3.0)
    assert got.x[-1] == pytest.approx(-1 / la)


def test_choose_x_linear_term():
    ct = np.zeros((2, 2), dtype=complex)
    ct[0, 1] = ct[1, 0] = 0.5  # corner and diagonal vanish, coupling row does not
    got = choose_x(ct, 1.0)
    x, det_d = got.x, got.det_d
    y = ct @ x
    assert det_d == pytest.approx(-(x @ y))


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
        plan = _first_sound_plan(c, CFG)
        assert plan.records[0].branch in (BRANCH_CASE_II_DEGENERATE, BRANCH_CASE_II_GENERAL)
        assert verify_factorization(c, _level_v(plan), CFG).passed


def test_dispatch_case_agrees_with_executed_plan():
    # a coupling block of 3e-10 scores well only with x amplified by 1e7;
    # the bordered transform built from it is singular, so the level drops it
    # (the walk defers this near-defective pair, so the plan is asked directly)
    e, lam, c = _isotropic_core(7, 5)
    c = c + 3e-10 * np.outer(e, e)
    plan = _isotropic_plan(c, EigenPair(value=lam, vector=e, residual=0.0))
    assert (plan.records[0].branch, plan.records[0].x_strategy) == (BRANCH_CASE_II_DEGENERATE, "dropped")
    assert plan.sub is None
    assert verify_factorization(c, plan.left @ plan.b.T, CFG).passed


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


def test_factor_memory_is_quadratic_in_the_dimension():
    # a reflector level keeps B's last row, not an m x m B: the peak is a few
    # n x n arrays (0.25 MiB each here), not the sum of m^2 over the levels
    c = oracle.gen(oracle.GeneratorSpec(dim=128, seed=1, kind="DenseSymmetric"))
    tracemalloc.start()
    try:
        r = factor_symmetric(c, CFG)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r.relative_residual <= 1e-13
    assert peak <= 6 * 2**20, f"peak {peak / 2**20:.1f} MiB"


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


def _takagi_reference(c):
    """V = U Sigma^1/2 of the Autonne-Takagi factorization C = U Sigma U^T (U unitary, Sigma >= 0): the
    columns u = x + iy of the eigenvectors [x; y] of [[Re C, Im C], [Im C, -Re C]] at its m largest
    eigenvalues sigma, the map u -> C conj(u) on real and imaginary parts."""
    m = len(c)
    sigma, w = np.linalg.eigh(np.block([[c.real, c.imag], [c.imag, -c.real]]))
    return (w[:m, m:] + 1j * w[m:, m:]) * np.sqrt(np.clip(sigma[m:], 0.0, None))


@pytest.mark.parametrize("kind", ["DenseSymmetric", "IsotropicLambdaNonzero"])
def test_two_factors_of_an_invertible_block_differ_by_a_complex_orthogonal_gauge(kind):
    # the paper's uniqueness: V V^T = W W^T with W invertible makes o = W^-1 V complex orthogonal.  W is
    # a Takagi factor local to this test, and no input here takes the library's Takagi terminal
    checked = 0
    for seed in range(40):
        c = oracle.gen(oracle.GeneratorSpec(dim=2 + seed % 9, seed=seed, kind=kind))
        s = np.linalg.svd(c, compute_uv=False)
        if s[-1] <= 1e-6 * s[0]:  # a singular C: V is unique only up to its null space
            continue
        r = factor_symmetric(c, CFG)
        assert BRANCH_TAKAGI not in r.trace.branches()
        w = _takagi_reference(c)
        assert verify_factorization(c, w, CFG).relative_residual <= 1e-14
        o = np.linalg.solve(w, r.V)
        assert frobenius(o.T @ o - np.eye(len(c))) <= 1e-13 * max(frobenius(o) ** 2, 1.0), seed
        assert frobenius(orthogonal_gauge(w, o) - r.V) <= 1e-13 * frobenius(r.V), seed
        checked += 1
    assert checked >= 20


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


def test_verify_factorization_prescales_far_from_unit_scale():
    # |C|_F^2 overflows at 1e160 and the residual's squares underflow at 1e-160; both norms
    # are taken on C/4^k and V/2^k (pytest turns an overflow RuntimeWarning into an error)
    c = oracle.gen(oracle.GeneratorSpec(dim=4, seed=1, kind="DenseSymmetric"))
    for scale in (1e160, 1e-160):
        good = factor_symmetric(scale * c, CFG).V
        assert verify_factorization(scale * c, good, CFG).passed
        bad = verify_factorization(scale * c, good * (1.0 + 1e-7), CFG)
        assert bad.residual == pytest.approx(2e-7 * scale * frobenius(c), rel=1e-3)
        if scale > 1.0:
            assert not bad.passed
            assert bad.relative_residual == pytest.approx(2e-7, rel=1e-3)
        else:  # max(|C|_F, 1) = 1 makes the contract absolute: only a residual above verify_tol fails
            assert bad.passed
            assert not verify_factorization(scale * c, good + 1e-4 * np.eye(4), CFG).passed
    in_band = factor_symmetric(c, CFG).V * (1.0 + 1e-7)
    assert verify_factorization(c, in_band, CFG).residual == frobenius(c - in_band @ in_band.T)


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
    # C = V V^T is homogeneous and a power-of-4 scale is exact in binary
    # floating point (an isotropic level's block over its norm stays bit for
    # bit the same), so it scales V by the power of 2 and every trace value
    # by the power of 4, bit for bit, in every family
    for kind in ("DenseSymmetric", "RankDeficient", "IsotropicLambdaZero", "IsotropicLambdaNonzero"):
        for seed in range(8):
            c = oracle.gen(oracle.GeneratorSpec(dim=2 + seed % 9, seed=seed, kind=kind))
            plain = factor_symmetric(c, CFG)
            for k in (-10, 12):
                scaled = factor_symmetric(4.0**k * c, CFG)
                assert np.array_equal(scaled.V, 2.0**k * plain.V)
                assert [lv.value for lv in scaled.trace.levels] == _scaled_values(plain.trace, 4.0**k)
    # any other scale rounds the blocks differently; on the isotropic
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


def test_inputs_near_the_ends_of_the_float_range_factor_by_an_exact_prescale():
    # |C|_F^2 overflows from |C|_F ~ 1.3e154 on (and underflows at the other
    # end); such inputs factor as 4^-k C, so V(4^k C) = 2^k V(C) bit for bit
    for kind in ("DenseSymmetric", "RankDeficient", "IsotropicLambdaZero", "IsotropicLambdaNonzero"):
        for seed in range(4):
            c = oracle.gen(oracle.GeneratorSpec(dim=2 + seed % 9, seed=seed, kind=kind))
            plain = factor_symmetric(c, CFG)
            for k in (-270, 270):
                scaled = factor_symmetric(4.0**k * c, CFG)
                assert np.array_equal(scaled.V, 2.0**k * plain.V), (kind, seed, k)
                assert [lv.value for lv in scaled.trace.levels] == _scaled_values(plain.trace, 4.0**k)
                assert scaled.residual == 4.0**k * plain.residual
    c = oracle.gen(oracle.GeneratorSpec(dim=4, seed=1, kind="DenseSymmetric"))
    for scale in (1e160, 1e-160, 1e300):
        r = factor_symmetric(scale * c, CFG)
        assert r.trace.branches() == [BRANCH_CASE_I] * 3 + ["Base"]
        assert r.relative_residual <= 1e-15
    # an entry whose modulus overflows though its parts are finite: the prescale reads the parts
    assert factor_symmetric([[1.7e308 + 1.7e308j]], CFG).relative_residual <= 1e-15


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


def _reference_visits(vals, scale):
    """Candidates the walk visits, by the whole-spectrum rule: an m x m gap
    matrix and a keep mask, where a candidate that is not simple is dropped
    when an earlier kept one lies within 1e-12*scale.  A near-zero candidate
    is None (its SVD is of the matrix itself, whichever candidate it is)."""
    dist = np.abs(vals[:, None] - vals[None, :])
    np.fill_diagonal(dist, np.inf)
    simple = dist.min(axis=1) > factor.eigen._SIMPLE_GAP * scale
    keep = np.ones(len(vals), dtype=bool)
    for i in np.flatnonzero(~simple):
        keep[i] = not np.any((dist[:i, i] <= 1e-12 * scale) & keep[:i])
    return [None if abs(vals[i]) <= factor.eigen._NEAR_ZERO * scale else int(i) for i in np.flatnonzero(keep)]


class _WalkSpy:
    """Candidates ``_candidate_pairs`` visits on diag(vals), vals in its own candidate order,
    read off the work it does: the Rayleigh pair of the unit vector e_i for a simple
    candidate i, eig's unit vectors of a cluster for ``_semisimple_cluster``, else one SVD,
    of diag(vals - vals[i]) (exactly zero at i and its exact repeats) or, near zero, of the
    matrix itself.  A candidate is its first position among exact repeats, as in the SVD."""

    def __init__(self, monkeypatch):
        self.svd, self.rayleigh = np.linalg.svd, factor.eigen._rayleigh_pair
        self.cluster = factor.eigen._semisimple_cluster
        monkeypatch.setattr(np.linalg, "svd", self._svd)
        monkeypatch.setattr(factor.eigen, "_rayleigh_pair", self._rayleigh)
        monkeypatch.setattr(factor.eigen, "_semisimple_cluster", self._cluster)

    def visits(self, vals, scale):
        self.vals, self.matrix, self.seen = vals, np.diag(vals), []
        self.after_svd = self.in_cluster = self.cluster_missed = False
        for _ in factor.eigen._candidate_pairs(self.matrix, CFG, scale):
            pass
        return self.seen

    def _first(self, v):
        return int(np.flatnonzero(self.vals == self.vals[np.argmax(np.abs(v))])[0])

    def _svd(self, m, *args, **kwargs):
        if not self.cluster_missed:  # a missed cluster's SVD belongs to the visit recorded with the cluster
            self.seen.append(None if m is self.matrix else int(np.flatnonzero(np.diag(m) == 0)[0]))
        self.after_svd, self.cluster_missed = True, False
        return self.svd(m, *args, **kwargs)

    def _cluster(self, a, cfg, vecs, near, i, scale):
        self.seen.append(self._first(vecs[:, i]))
        self.in_cluster = True
        found = self.cluster(a, cfg, vecs, near, i, scale)
        self.in_cluster, self.cluster_missed = False, found is None
        return found

    def _rayleigh(self, m, v, av=None):
        if not (self.after_svd or self.in_cluster):  # an SVD's or a cluster's pair belongs to the visit recorded there
            self.seen.append(self._first(v))
        self.after_svd = False
        return self.rayleigh(m, v, av)


def _candidate_order(vals):
    """vals in ``_candidate_pairs``' order: largest modulus first, ties by the (real, imag) sort."""
    order = np.lexsort((vals.imag, vals.real))
    return vals[order[np.argsort(-np.abs(vals[order]), kind="stable")]]


def _candidate_spectra():
    """(label, vals in candidate order) around every cut of the walk, at |A|_F = 1."""
    for d in (1e-13, 6e-13, 1e-12, 1e-11):  # chains of pairs around the 1e-12 dedupe cut
        vals = np.array([3.0, 2.0, 2.0 + d, 2.0 + 2 * d, 1.0j, 1.0j + d, 1.0j + d * 1j, 0.5, 0.5 + 3 * d])
        yield f"cut {d:g}", _candidate_order(vals.astype(complex))
    vals = np.array([2.0, 1.5, 1.5, 1.5, -1.0, -1.0, 1e-7, 1e-7, 0.0, 0.0], dtype=complex)
    yield "exact repeats", _candidate_order(vals)
    spectra = [(f"clustered {seed} {gap:g} {cq}", _clustered(seed, gap, cq))
               for seed in range(4) for gap in (1e-3, 1e-5, 1e-6, 3e-7, 1e-8, 1e-11, 0.0) for cq in (False, True)]
    spectra += [(f"{kind} {seed}", oracle.gen(oracle.GeneratorSpec(dim=2 + seed % 9, seed=seed, kind=kind)))
                for kind in ("IsotropicLambdaZero", "IsotropicLambdaNonzero") for seed in range(40)]
    for label, c in spectra:
        c = c / frobenius(c)
        yield label, _candidate_order(np.linalg.eigvals(c))


def test_candidate_walk_visits_the_candidates_of_the_whole_spectrum_rule(monkeypatch):
    # the walk builds one gap row per candidate as it reaches it; it must
    # visit and absorb the candidates that the whole gap matrix picked
    spectra = list(_candidate_spectra())
    spy = _WalkSpy(monkeypatch)
    for label, vals in spectra:
        assert spy.visits(vals, 1.0) == _reference_visits(vals, 1.0), label


def _boosted(n, t, seed):
    """C = Q diag(d) Q^T with Q = R blockdiag(G, ..., G, 1) (the 1 for odd n only), R real
    orthogonal and G = [[cosh t, i sinh t], [-i sinh t, cosh t]] complex orthogonal:
    Q's column norms^2 are cosh 2t (1 for the odd column), so no eigenvector of C but the
    odd column's is safely non-isotropic (|e^T e| = 1/cosh 2t < 3e-3 for t >= 5)."""
    rng = np.random.default_rng(seed)
    r, _ = np.linalg.qr(rng.standard_normal((n, n)))
    d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    g = np.array([[np.cosh(t), 1j * np.sinh(t)], [-1j * np.sinh(t), np.cosh(t)]])
    blocks = np.eye(n, dtype=complex)
    blocks[: n - n % 2, : n - n % 2] = np.kron(np.eye(n // 2), g)
    q = r @ blocks
    c = q @ np.diag(d) @ q.T
    return 0.5 * (c + c.T)


@pytest.mark.parametrize(
    "n, t, seed",
    [(n, t, seed) for n in (2, 4, 6, 8) for t in (5.0, 5.5, 6.0) for seed in range(5)]
    + [(10, 5.5, 4), (9, 6.0, 9), (9, 6.5, 3)],
)
def test_boosted_inputs_factor_within_verify_tol(n, t, seed):
    # no eigenvector is safely non-isotropic from t = 5 on: 57 of the 60 even inputs and all three
    # odd ones end in the Takagi terminal
    assert factor_symmetric(_boosted(n, t, seed), CFG).relative_residual <= CFG.verify_tol


@pytest.mark.parametrize("lam", [1.0, 2.0, 1j, -3 + 0.5j])
def test_two_by_two_jordan_blocks_factor_within_verify_tol(lam):
    # lam I + [[-i, 1], [1, i]] is a symmetric 2x2 Jordan block at lam: eig splits the pair ~sqrt(eps)
    # apart, its eigenvectors are near-isotropic, and no candidate has a sound route
    c = lam * np.eye(2) + np.array([[-1j, 1], [1, 1j]])
    assert factor_symmetric(c, CFG).relative_residual <= CFG.verify_tol


def test_a_block_without_a_sound_candidate_ends_in_the_takagi_terminal(monkeypatch):
    # the Jordan block's candidates all defer; with no candidate at all, any block takes the terminal:
    # one level for the whole block, V = U Sigma^1/2 itself, and no next block
    jordan = factor_symmetric(np.eye(2) + np.array([[-1j, 1], [1, 1j]]), CFG)
    assert jordan.trace.branches() == [BRANCH_TAKAGI]
    assert BRANCH_TAKAGI not in ALL_BRANCHES
    monkeypatch.setattr(factor.eigen, "_candidate_pairs", lambda *args: iter(()))
    for kind in ("DenseSymmetric", "RankDeficient", "IsotropicLambdaZero"):
        c = factor._symmetrized(oracle.gen(oracle.GeneratorSpec(dim=7, seed=2, kind=kind)))  # as the loop takes it
        plan = factor._first_sound_plan(c, CFG)
        assert [(lv.dim, lv.branch, lv.value) for lv in plan.records] == [(7, BRANCH_TAKAGI, None)]
        assert plan.sub is None and np.array_equal(plan.b, np.eye(7))
        r = factor_symmetric(c, CFG)
        assert r.trace.branches() == [BRANCH_TAKAGI]
        assert r.relative_residual <= 1e-14
        assert np.array_equal(r.V, plan.left)


@pytest.mark.parametrize("t", [4.0, 4.5, 5.0])
def test_far_from_normal_inputs_at_n_64_factor_within_verify_tol(t):
    # |C|_F is 1.7e4 at t = 4 against eigenvalues of modulus 0.06 to 2.5: t = 4 and 4.5 end in the
    # Takagi terminal, t = 5 in a null split
    assert factor_symmetric(_boosted(64, t, 1), CFG).relative_residual <= CFG.verify_tol


def _integer_diagonal(seed):
    """diag(d), n in 2..13, d of small complex integers: exact repeats, which the cluster route takes."""
    rng = np.random.default_rng(seed)
    n = rng.integers(2, 14)
    return np.diag(rng.integers(-2, 3, n) + 1j * rng.integers(-1, 2, n))


@pytest.mark.parametrize("seed", range(300))
def test_small_integer_complex_diagonals_factor_within_verify_tol(seed):
    assert factor_symmetric(_integer_diagonal(seed), CFG).relative_residual <= CFG.verify_tol


@pytest.mark.parametrize("n", [32, 64])
@pytest.mark.parametrize("t", [1.0, 2.0, 2.5, 3.0])
def test_far_from_normal_chains_keep_their_accuracy(n, t):
    # every eigenvector of these has |e^T e| = 1/cosh 2t, so the products
    # M = A^T C A and V = A^-T R round relative to |A|^2; a chain walked by
    # reflectors (a route since deleted) read up to 5.1e-12 at t = 3, one congruence by the
    # eigenvector matrix 1.3e-13, and with the coupling fold 3.9e-16
    for seed in range(4):
        c = _boosted(n, t, seed)
        r = factor_symmetric(c, CFG)
        assert set(r.trace.branches()) == {BRANCH_CASE_I, "Base"}
        assert r.relative_residual <= 1e-14, seed


def _level_v(plan, cfg=CFG):
    """The plan's V = A^-T B^T, with an arbitrary factor of its next block in B."""
    b = plan.b.copy()
    if plan.sub is not None:
        b[: len(plan.sub), : len(plan.sub)] = factor_symmetric(plan.sub, cfg).V.T
    return plan.left @ b.T


def test_svd_pair_takes_a_reflector_level_of_its_own():
    from symfact.factor import _first_sound_plan

    c = _clustered(0, 1e-8, False)
    c = c / frobenius(c)
    _, basis, _, _ = next(factor.eigen._candidate_pairs(c, CFG))
    assert basis is not None  # the top pair is clustered, so it comes from an SVD
    plan = _first_sound_plan(c, CFG)
    assert frobenius(plan.left.T @ plan.left - np.eye(10)) <= 1e-14  # a panel: A is Q, its own A^-T
    assert [lv.branch for lv in plan.records] == [BRANCH_CASE_I]  # a panel of one level
    assert plan.sub.shape == (9, 9)
    assert verify_factorization(c, _level_v(plan), CFG).passed


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


def _jordan_family(m, seed):
    """C = lam (e conj(e)^T + conj(e) e^T) + G S G^T with e unit isotropic, e^T G = 0 and
    |G S G^T|_F = |lam|/4: G's columns keep a part along e, so lam is a defective double eigenvalue."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((m, 2)))
    e = (q[:, 0] + 1j * q[:, 1]) / np.sqrt(2.0)
    lam = complex(rng.standard_normal(), rng.standard_normal())
    x = rng.standard_normal((m, m - 1)) + 1j * rng.standard_normal((m, m - 1))
    g = x - np.outer(e.conj(), e @ x)
    s = rng.standard_normal((m - 1, m - 1)) + 1j * rng.standard_normal((m - 1, m - 1))
    gsg = g @ (s + s.T) @ g.T
    c = lam * (np.outer(e, e.conj()) + np.outer(e.conj(), e)) + gsg * (abs(lam) / 4 / frobenius(gsg))
    return 0.5 * (c + c.T)


def test_a_semisimple_cluster_takes_eigs_own_vectors_without_an_svd(monkeypatch):
    # the isotropic eigenvalue's eigenspace is two-dimensional, and eig's two unit vectors
    # of it are a well-conditioned basis: the upgrade searches them, and no SVD runs
    c = oracle.gen(oracle.GeneratorSpec(dim=8, seed=1, kind="IsotropicLambdaNonzero"))
    svds = _count_calls(monkeypatch, np.linalg, "svd")
    r = factor_symmetric(c, CFG)
    assert svds == []
    assert r.trace.branches()[0] == BRANCH_CASE_II_GENERAL
    assert r.relative_residual <= 1e-14
    pair, basis, rest, complement = next(factor.eigen._candidate_pairs(c, CFG))
    assert basis.shape[1] == 2 and rest is None and complement is None
    assert frobenius(c @ basis - pair.value * basis) <= 1e-14 * frobenius(c)


@pytest.mark.parametrize("m", [2, 3, 4, 6, 10])
def test_the_jordan_family_factors_within_verify_tol(m):
    # eig splits the defective pair ~sqrt(eps) apart, and its eigenvectors are near-isotropic: the
    # pair's block ends in the Takagi terminal
    assert factor_symmetric(_jordan_family(m, 0), CFG).relative_residual <= CFG.verify_tol


def test_defective_clusters_keep_the_svd(monkeypatch):
    # eig's two vectors of a Jordan pair lie ~sqrt(eps) apart: the Gram gate rejects them,
    # and the candidate takes its SVD as before
    svds = _count_calls(monkeypatch, np.linalg, "svd")
    jordan = [lam * np.eye(2) + np.array([[-1j, 1], [1, 1j]]) for lam in (1.0, 2.0, 1j, -3 + 0.5j)]
    for c in jordan + [_jordan_family(m, 0) for m in (2, 4, 6)]:
        vals, vecs = np.linalg.eig(c)
        gaps = np.abs(vals[:, None] - vals)
        np.fill_diagonal(gaps, np.inf)
        i = int(gaps.min(axis=1).argmin())  # a member of the Jordan pair
        near = gaps[i] <= factor.eigen._SIMPLE_GAP * frobenius(c)
        assert near.any()
        near[i] = True
        assert factor.eigen._semisimple_cluster(c, CFG, vecs, near, i, frobenius(c)) is None
        svds.clear()
        factor_symmetric(c, CFG)
        assert svds


def test_a_null_split_takes_its_complement_from_the_svd(monkeypatch):
    # the SVD that finds N holds R: [R | N] is its unitary right factor, and no QR completes N
    for n in (4, 6, 10, 32):
        for seed in range(3):
            c = oracle.gen(oracle.GeneratorSpec(dim=n, seed=seed, kind="IsotropicLambdaZero"))
            qrs = _count_calls(monkeypatch, np.linalg, "qr")
            plan = factor._first_sound_plan(c, CFG)
            assert plan.records[0].branch == BRANCH_CASE_II_LAMBDA_ZERO
            assert frobenius(plan.left.conj().T @ plan.left - np.eye(n)) <= 1e-14
            r = factor_symmetric(c, CFG)
            assert qrs == []
            assert r.relative_residual <= 1e-14


def test_choose_x_magnitude_sweep_for_weak_coupling():
    # coupling block far smaller than lambda*alpha: only amplified free
    # components give a well-conditioned transform
    ct = np.zeros((3, 3), dtype=complex)
    ct[0, 0] = 1e-9
    ct[1, 1] = 2e-9
    la = 1.0
    got = choose_x(ct, la)
    assert got.score >= 0.1
    assert np.linalg.norm(got.x[:-1]) > 1e4  # scaled to 1/sqrt(|c_tilde' d|)


def test_choose_x_pairs_a_zero_diagonal_cross_coupling():
    # every unit vector gives det D = 0 here; the 2x2 pivot on the largest
    # off-diagonal entry, e_0 + e_1, does not
    ct = _coupling(3, {(0, 1): 1e-3})
    got = choose_x(ct, 1.0)
    assert got.strategy == "pair:0+1"
    assert got.score >= 0.1
    assert got.det_d == pytest.approx(-(got.x @ ct @ got.x))


def test_choose_x_falls_back_when_no_rung_is_well_conditioned():
    # a coupling to the corner alone: det D = -2 x_0 x_n c_01 scores at most sqrt(|c_01|), whatever x_0's scale
    got = choose_x(_coupling(2, {(0, 1): 1e-9}), 1.0)
    assert got.strategy.startswith("fallback:") and got.score < 1e-3


def test_weak_cross_coupling_is_dropped_not_bungled():
    # a negligible cross coupling with vanishing diagonals must go through
    # the closed form, not a bordered transform built on it
    e, _, c = _isotropic_core(35, 5)
    s = np.zeros((3, 3), dtype=complex)
    s[0, 1] = s[1, 0] = 1e-9  # pure cross coupling
    c = c + complement_basis_within(e) @ s @ complement_basis_within(e).T
    r = factor_symmetric(c, CFG)
    assert r.residual <= 1e-8 * frobenius(c)


def test_negligible_coupling_is_dropped_even_when_the_ladder_scores_well():
    # the unit rung scaled to 1/sqrt(|c_tilde' d|) scores well here, a score
    # earned on rounding noise; the level must drop the coupling instead
    e, _, c = _isotropic_core(4, 8)
    s = np.zeros((6, 6), dtype=complex)
    s[0, 0] = 1e-9
    c = c + complement_basis_within(e) @ s @ complement_basis_within(e).T
    r = factor_symmetric(c, CFG)
    assert r.relative_residual <= CFG.verify_tol
    first = r.trace.levels[0]
    assert (first.branch, first.x_strategy) == (BRANCH_CASE_II_DEGENERATE, "dropped")


def test_choose_x_runs_only_on_a_coupling_worth_bordering(monkeypatch):
    # _plan judges the coupling block before any rung is scored: a CaseII_Degenerate level
    # (allzero or dropped) never calls choose_x, and a CaseII_General level calls it once
    calls = _count_calls(monkeypatch, factor, "choose_x")
    inner, seen = factor._plan, {}

    def plan(*args):
        before = len(calls)
        out = inner(*args)
        key = (out.records[0].branch, len(calls) - before)
        seen[key] = seen.get(key, 0) + 1
        return out

    monkeypatch.setattr(factor, "_plan", plan)
    for seed in range(36):
        for kind in ("IsotropicLambdaZero", "IsotropicLambdaNonzero"):
            factor_symmetric(oracle.gen(oracle.GeneratorSpec(dim=2 + seed % 9, seed=seed, kind=kind)), CFG)
    assert set(seen) <= {(BRANCH_CASE_II_LAMBDA_ZERO, 0), (BRANCH_CASE_II_DEGENERATE, 0), (BRANCH_CASE_II_GENERAL, 1)}
    assert seen.get((BRANCH_CASE_II_DEGENERATE, 0), 0) >= 10 and seen.get((BRANCH_CASE_II_GENERAL, 1), 0) >= 10


def _flat_coupling(m, fraction):
    """(C, pair, e^T e) of an isotropic level whose coupling block c_tilde' is flat on V': every entry
    of its leading (m - 2) x (m - 2) block has modulus ``fraction`` * _ALLZERO_CUT * |lambda*alpha|, and
    its conj(e) row is zero, so C e = lambda e and C conj(e) = lambda conj(e) exactly.
    C = conj(A') C' A'^H for the A' that the level builds from the chosen unit, phase-canonical e, so
    its C' = A'^T C A' is this one."""
    rng = np.random.default_rng(m)
    q, _ = np.linalg.qr(rng.standard_normal((m, 2)))
    e = factor.eigen._phase_canonical((q[:, 0] + 1j * q[:, 1]) / np.sqrt(2.0))
    e /= np.linalg.norm(e)
    a_prime = np.column_stack([factor._complement_basis_within(e), e.conj(), e])
    la = 1.3 * np.exp(0.7j)
    theta = rng.uniform(0.0, 2.0 * np.pi, (m - 2, m - 2))
    c_prime = np.zeros((m, m), dtype=complex)
    c_prime[:-2, :-2] = fraction * factor._ALLZERO_CUT * abs(la) * np.exp(1j * (theta + theta.T))
    c_prime[-2, -1] = c_prime[-1, -2] = la
    c = a_prime.conj() @ c_prime @ a_prime.conj().T
    return 0.5 * (c + c.T), EigenPair(value=la, vector=e, residual=0.0), complex(e @ e)


def test_a_flat_coupling_under_the_all_zero_cut_takes_the_closed_form(monkeypatch):
    # at m = 96, a flat c_tilde' at 0.9 times the all-zero cut has |c_tilde'|_F above the drop cut:
    # the max-entry rule alone sends it to the closed form, and no rung is scored
    c, pair, ete = _flat_coupling(96, 0.9)
    ct = factor._reduce_case_ii(c, pair.vector)[1][:-1, :-1]
    assert frobenius(ct) > factor._DROP_CUT * frobenius(c)
    calls = _count_calls(monkeypatch, factor, "choose_x")
    plan = factor._plan(c, pair, ete)
    assert (plan.records[0].branch, plan.records[0].x_strategy) == (BRANCH_CASE_II_DEGENERATE, "allzero")
    assert calls == []
    assert verify_factorization(c, _level_v(plan), CFG).passed


@pytest.mark.xfail(strict=True, reason="the max-entry coupling rule drops up to (m - 2) * 1e-10 * |lambda*alpha| "
                                       "in Frobenius norm, above verify_tol from m ~ 150: a flat c_tilde' at "
                                       "m = 160 is dropped as allzero and reads 1.06e-8")
def test_a_flat_coupling_dropped_as_allzero_at_m_160_factors_within_verify_tol():
    c, pair, ete = _flat_coupling(160, 0.95)
    plan = factor._plan(c, pair, ete)
    assert plan.records[0].x_strategy == "allzero"
    assert verify_factorization(c, _level_v(plan), CFG).relative_residual <= CFG.verify_tol


_CORNER_COUPLING = pytest.mark.xfail(
    strict=True, reason="a coupling to the corner alone admits no well-conditioned bordered transform: rung unit:0 "
                        "scores 1.1e-3 to 2.0e-3, just above the 1e-3 soundness cut, and misses by up to 1.1e-5")


@pytest.mark.parametrize("g", [3e-7, pytest.param(1e-6, marks=_CORNER_COUPLING),
                               pytest.param(3e-6, marks=_CORNER_COUPLING), 1e-5])
@pytest.mark.parametrize("n", [3, 4, 6, 8])
def test_a_weak_coupling_of_the_bulk_to_the_corner_alone_factors_within_verify_tol(n, g):
    # w = conj(v) for a column v of the joint complement of e and conj(e): g (w e^T + e w^T)
    # couples the bulk to the corner alone, the case that test_choose_x_falls_back_when_no_rung_is_well_conditioned
    # builds on c_tilde' directly
    for seed in range(5):
        e, _, c = _isotropic_core(seed, n)
        w = complement_basis_within(e)[:, 0].conj()
        c = c + g * (np.outer(w, e) + np.outer(e, w))
        assert factor_symmetric(c, CFG).relative_residual <= CFG.verify_tol, seed


def test_isotropic_in_subspace_takes_a_negligible_diagonal_or_the_root_on_the_two_largest():
    s = np.array([[2.0, 1.0, 0.5], [1.0, 1e-15, 0.3], [0.5, 0.3, 1.0]], dtype=complex)
    assert np.array_equal(factor._isotropic_in_subspace(s), [0.0, 1.0, 0.0])
    s[1, 1] = 1.0
    s[2, 2] = 3.0
    z = factor._isotropic_in_subspace(s)  # on coordinates 2 and 0, the two largest diagonal entries
    assert z[1] == 0.0 and z[2] == 1.0
    assert abs(z @ s @ z) <= 1e-15
    # a two-column eigenspace: a negligible entry on either side (the first when both are), then equal diagonals
    s = np.array([[1e-15, 0.7 + 0.2j], [0.7 + 0.2j, 2.0 - 1.0j]])
    assert np.array_equal(factor._isotropic_in_subspace(s), [1.0, 0.0])
    assert np.array_equal(factor._isotropic_in_subspace(s[::-1, ::-1].copy()), [0.0, 1.0])
    assert np.array_equal(factor._isotropic_in_subspace(np.zeros((2, 2), dtype=complex)), [1.0, 0.0])
    s[0, 0] = s[1, 1]
    z = factor._isotropic_in_subspace(s)
    assert z[0] == 1.0 and abs(z @ s @ z) <= 1e-15


def _isotropic_candidates(c, cfg=CFG):
    """(pair, e^T e) of every isotropic candidate of C, as ``_first_sound_plan`` takes them."""
    scale = frobenius(c)
    for pair, basis, _, _ in factor.eigen._candidate_pairs(c, cfg, scale):
        ete = complex(pair.vector @ pair.vector)
        if abs(ete) <= cfg.iso_tol:
            yield pair, ete
        elif basis is not None and (upgraded := factor._isotropic_upgrade(c, pair, basis, scale)) is not None:
            yield upgraded


def test_the_factor_path_hands_the_reduction_a_unit_phase_canonical_e():
    # the factor path hands its unit, phase-canonical e, whose e^T e its candidate test measured, to
    # the reduction, which takes it as given
    seen = 0
    for kind in ("IsotropicLambdaZero", "IsotropicLambdaNonzero"):
        for seed in range(12):
            c = oracle.gen(oracle.GeneratorSpec(dim=2 + seed % 9, seed=seed, kind=kind))
            for pair, ete in _isotropic_candidates(c):
                e = pair.vector
                peak = e[np.argmax(np.abs(e))]
                assert np.linalg.norm(e) == pytest.approx(1.0, abs=1e-15)
                assert peak.real > 0.0 and abs(peak.imag) <= 1e-15  # phase-canonical up to rounding
                assert ete == complex(e @ e) and abs(ete) <= CFG.iso_tol
                seen += 1
    assert seen >= 20


def test_an_isotropic_level_phase_fixes_its_e_once(monkeypatch):
    # the pair's e is phase-canonical from its candidate test (or the upgrade); the level takes it
    # as it is rather than fixing its phase again: one call returns a multiple of e
    plans, calls = [], []
    inner_plan, inner_phase = factor._plan, factor.eigen._phase_canonical

    def plan(c, pair, *args):
        plans.append(pair.vector)
        return inner_plan(c, pair, *args)

    def phase(v):
        out = inner_phase(v)
        calls.append(out.copy())
        return out

    monkeypatch.setattr(factor, "_plan", plan)
    monkeypatch.setattr(factor.eigen, "_phase_canonical", phase)
    for n in (4, 6, 8):
        for seed in range(1, 5):
            c = oracle.gen(oracle.GeneratorSpec(dim=n, seed=seed, kind="IsotropicLambdaNonzero"))
            plans.clear()
            calls.clear()
            assert factor_symmetric(c, CFG).relative_residual <= CFG.verify_tol
            assert plans
            for e in plans:
                assert sum(len(out) == len(e) and abs(np.vdot(out, e)) >= (1.0 - 1e-12) * np.linalg.norm(out)
                           for out in calls) == 1


def test_ldlt_agreement_when_it_succeeds():
    for seed in range(25):
        dim = 2 + seed % 8
        c = oracle.gen(oracle.GeneratorSpec(dim=dim, seed=seed, kind="DenseSymmetric"))
        alt = oracle.factor_via_ldlt(c)
        if isinstance(alt, oracle.Breakdown):
            continue
        assert verify_factorization(c, alt, CFG).passed
        assert verify_factorization(c, factor_symmetric(c).V, CFG).passed


@pytest.mark.parametrize("n", [10, 64])
def test_a_dense_factorization_takes_one_eigendecomposition(monkeypatch, n):
    # every carried candidate passes the walk's tests, so one panel takes the
    # whole chain as one congruence by the eigenvector matrix, without walking
    eigs = _count_calls(monkeypatch, np.linalg, "eig")
    walks = _count_calls(monkeypatch, factor, "_walk")
    c = oracle.gen(oracle.GeneratorSpec(dim=n, seed=1, kind="DenseSymmetric"))
    r = factor_symmetric(c, CFG)
    assert r.relative_residual <= 1e-13
    assert r.trace.branches() == [BRANCH_CASE_I] * (n - 1) + ["Base"]
    assert len(eigs) == 1
    assert walks == []
    vals, vecs = np.linalg.eig(c)
    values = np.array([lv.value for lv in r.trace.levels])
    assert np.abs(np.sort_complex(values) - np.sort_complex(vals)).max() <= 1e-10 * frobenius(c)
    for lv in r.trace.levels[1:-1]:  # e^T e of the phase-canonical unit eigenvector, in input coordinates
        e = factor.eigen._phase_canonical(vecs[:, np.argmin(np.abs(vals - lv.value))])
        assert lv.ete == pytest.approx(e @ e, abs=1e-10)


def _isotropic_route(kind, n, seed):
    """(route, branches, eig calls, SVD calls) of the isotropic mix's input, by the generator's rule."""
    if kind == "IsotropicLambdaZero":
        if n >= 4 and seed % 4 == 3:  # a rank-2 nilpotent core: its 2 x 2 range is a reflector level
            return "rank-2 core", [BRANCH_CASE_II_LAMBDA_ZERO, BRANCH_CASE_I, "Base"], 2, 1
        return "rank 1", [BRANCH_CASE_II_LAMBDA_ZERO, "Base"], 1, 1
    if n >= 3 and seed % 2 == 1:  # a bulk on the joint complement of e and conj(e): one chain below the level
        return "with bulk", [BRANCH_CASE_II_GENERAL] + [BRANCH_CASE_I] * (n - 2) + ["Base"], 2, 0
    return "no bulk", [BRANCH_CASE_II_DEGENERATE], 1, 0


def test_each_route_of_the_isotropic_mix_keeps_its_shape_and_its_lapack_calls(monkeypatch):
    # the benchmark's isotropic mix, both families at n = 2 + s % 9: each input takes one of four
    # routes, with a fixed trace and a fixed number of LAPACK calls (a null space takes its SVD,
    # a cluster eig's own vectors, and every plan one eig of its own block)
    eigs = _count_calls(monkeypatch, np.linalg, "eig")
    svds = _count_calls(monkeypatch, np.linalg, "svd")
    routes = {}
    for kind in ("IsotropicLambdaZero", "IsotropicLambdaNonzero"):
        for seed in range(144):
            n = 2 + seed % 9
            c = oracle.gen(oracle.GeneratorSpec(dim=n, seed=seed, kind=kind))
            eigs.clear()
            svds.clear()
            r = factor_symmetric(c, CFG)
            route, branches, eig_calls, svd_calls = _isotropic_route(kind, n, seed)
            assert (r.trace.branches(), len(eigs), len(svds)) == (branches, eig_calls, svd_calls), (kind, n, seed)
            assert r.relative_residual <= 1e-14, (kind, n, seed)
            routes[route] = routes.get(route, 0) + 1
    assert routes == {"rank 1": 116, "rank-2 core": 28, "no bulk": 80, "with bulk": 64}


def _frozen(a):
    """A read-only copy of ``a``: a write to it raises."""
    a = np.array(a, dtype=complex)
    a.setflags(write=False)
    return a


def _same(x, y):
    """Whether two results of a public entry point agree bit for bit, field by field."""
    if isinstance(x, np.ndarray):
        return isinstance(y, np.ndarray) and x.shape == y.shape and x.tobytes() == y.tobytes()
    if isinstance(x, (tuple, list)):
        return type(x) is type(y) and len(x) == len(y) and all(map(_same, x, y))
    if hasattr(x, "__dataclass_fields__"):
        return type(x) is type(y) and all(_same(getattr(x, f), getattr(y, f)) for f in x.__dataclass_fields__)
    return x == y


def _outcome(call, *args):
    """What ``call`` returns on ``args``, or the type and message of what it raises."""
    try:
        return call(*args)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


def test_public_entry_points_never_write_to_their_arguments():
    # every entry point takes its array arguments read-only: called on read-only copies it returns
    # what it returns on writable ones, bit for bit, so no in-place update reaches a caller's array
    from symfact import antisym, eigen

    checked = 0
    for kind in ("DenseSymmetric", "RankDeficient", "IsotropicLambdaZero", "IsotropicLambdaNonzero"):
        for seed in range(60):
            c = oracle.gen(oracle.GeneratorSpec(dim=2 + seed % 9, seed=seed, kind=kind))
            r = factor_symmetric(c.copy(), CFG)
            assert _same(factor_symmetric(_frozen(c), CFG), r), (kind, seed)
            verified = verify_factorization(c.copy(), r.V.copy(), CFG)
            assert _same(verify_factorization(_frozen(c), _frozen(r.V), CFG), verified), (kind, seed)
            assert _same(_outcome(eigenpair, _frozen(c), CFG), _outcome(eigenpair, c.copy(), CFG)), (kind, seed)
            checked += 1
    for seed in range(40):
        n = 2 + seed % 9
        e, lam, c = _isotropic_core(seed, n)
        rng = np.random.default_rng(seed)
        ct = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        ct = ct + ct.T
        assert _same(choose_x(_frozen(ct), lam), choose_x(ct.copy(), lam)), seed
        assert _same(complement_basis_within(_frozen(e)), complement_basis_within(e.copy())), seed
    for seed in range(20):
        h = oracle.gen(oracle.GeneratorSpec(dim=2 + seed % 9, seed=seed, kind="PairedSpectrum"))
        assert _same(_outcome(eigen.biorthonormal_system, _frozen(h), CFG),
                     _outcome(eigen.biorthonormal_system, h.copy(), CFG)), seed
        h = oracle.gen(oracle.GeneratorSpec(dim=2 + seed % 9, seed=seed, kind="HermitianDense"))
        assert _same(antisym.canonical_T_selfadjoint(_frozen(h), CFG), antisym.canonical_T_selfadjoint(h.copy(), CFG))
        checked += 2
    assert checked == 240 + 40


def test_reflector_level_is_a_similarity_and_a_congruence():
    # the pair 1, 1 + 1e-8 is not simple, so no chain is built: the panel is one
    # reflector level, and its Q is a congruence and a similarity
    rng = np.random.default_rng(3)
    o, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    s = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    q = _expm(0.2 * (s - s.T)) @ o  # complex orthogonal
    c = q @ np.diag([4.0, 3.0j, -2.0, 1.0, 1.0 + 1e-8, 0.5]) @ q.T
    c = 0.5 * (c + c.T) / frobenius(c)
    pair, basis, rest, _ = next(factor.eigen._candidate_pairs(c, CFG))
    assert basis is None
    plan = factor._panel(c, pair, complex(np.dot(pair.vector, pair.vector)), rest, CFG)
    assert [lv.dim for lv in plan.records] == [6]
    q = plan.left
    assert frobenius(q.T @ q - np.eye(6)) <= 1e-14
    m = q.T @ c @ q
    assert plan.sub.shape == (5, 5)
    assert frobenius(m[:5, :5] - plan.sub) <= 1e-14
    assert frobenius(m[:5, 5]) <= CFG.eig_tol  # the corner couples to the block above it by rounding only
    assert [lv.value for lv in plan.records] == pytest.approx([m[5, 5]], abs=1e-15)
    assert frobenius(c - _level_v(plan) @ _level_v(plan).T) <= 1e-14  # V = Q R, no solve


def test_rank_deficient_noise_tail_is_one_zero_matrix_level(monkeypatch):
    # the last carried eigenvalues lie at the rounding-noise floor: the range
    # levels are one congruence by the rectangular eigenvector matrix, with no
    # walk, and the null tail is one exact ZeroMatrix level
    walks = _count_calls(monkeypatch, factor, "_walk")
    for seed in range(3600, 3612):
        c = oracle.gen(oracle.GeneratorSpec(dim=10, seed=seed, kind="RankDeficient"))
        rank = np.linalg.matrix_rank(c, tol=1e-10 * frobenius(c))
        r = factor_symmetric(c, CFG)
        assert walks == []
        assert r.trace.branches() == [BRANCH_CASE_I] * rank + ["ZeroMatrix"]
        assert r.relative_residual <= 1e-13
        vals, vecs = np.linalg.eig(c)
        nonzero = np.abs(vals) > 1e-10 * frobenius(c)
        values = np.array([lv.value for lv in r.trace.levels[:-1]])
        assert np.abs(np.sort_complex(values) - np.sort_complex(vals[nonzero])).max(initial=0.0) <= 1e-10 * frobenius(c)
        for lv in r.trace.levels[:-1]:  # eig's e^T e, of the phase-canonical unit eigenvector
            e = factor.eigen._phase_canonical(vecs[:, np.argmin(np.abs(vals - lv.value))])
            assert lv.ete == pytest.approx(e @ e, abs=1e-10)


def test_a_nilpotent_tail_is_tried_rejected_and_walked(monkeypatch):
    # blockdiag(diag(lam), s e e^T) with e isotropic, rotated by a real orthogonal Q: the
    # nilpotent block's eigenvalues sit under the noise floor, so each range level with two
    # levels or more ahead of the tail is tried as one congruence with a null tail, but what it
    # leaves out of C is the block itself, far above the floor; each range level is then one
    # reflector, and the block it leaves takes a fresh eig.  A tail of one level is its reflector
    # from the start.  The nilpotent block leaves through a null split or, on a rank-1 2 x 2
    # rest, through one more reflector, whose noise block is recorded as ZeroMatrix
    built, chains, walks = [], [], _count_calls(monkeypatch, factor, "_walk")
    inner, checked = factor._whole_chain, factor._chain

    def spied(*args):
        chain = inner(*args)
        built.append(chain is not None and chain[0].shape[1] < args[2].shape[0])
        return chain

    def taken(*args):
        n = len(built)
        chain = checked(*args)
        if len(built) > n:
            chains.append((args[0].shape[0], built[-1], chain is not None))
        return chain

    monkeypatch.setattr(factor, "_whole_chain", spied)
    monkeypatch.setattr(factor, "_chain", taken)
    null_split = [BRANCH_CASE_I] * 3 + [BRANCH_CASE_II_LAMBDA_ZERO]
    expected = [null_split + [BRANCH_CASE_I, "ZeroMatrix"], null_split + ["Base"], [BRANCH_CASE_I] * 5 + ["ZeroMatrix"]]
    for seed in range(3):
        c = np.zeros((6, 6), dtype=complex)
        c[:3, :3] = np.diag([3.0, -2.0 + 1.0j, 1.0j])
        c[3:5, 3:5] = 1e-7 * np.outer([1.0, 1.0j], [1.0, 1.0j])
        q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((6, 6)))
        c = q @ c @ q.T
        built.clear()
        chains.clear()
        walks.clear()
        r = factor_symmetric(0.5 * (c + c.T), CFG)
        assert all(rectangular for _, rectangular, _ in chains)  # every A built was rectangular
        assert [(m, ok) for m, _, ok in chains] == [(6, False), (5, False)]  # and rejected
        assert len(walks) == (4, 3, 4)[seed]
        assert r.trace.branches() == expected[seed]
        assert r.relative_residual <= CFG.verify_tol


@pytest.mark.parametrize("seed", range(4))
def test_a_nilpotent_block_without_an_exact_null_row_factors_within_verify_tol(seed):
    # the input of the test above without its exact-null row: blockdiag(diag(lam), eps e e^T),
    # 5 x 5, rotated by a real orthogonal Q.  The block's eigenvalues, ~sqrt(u |C| |N|), clear the
    # near-zero cut of its own norm, and its eigenvectors are near-isotropic: it ends in the Takagi terminal
    c = np.zeros((5, 5), dtype=complex)
    c[:3, :3] = np.diag([3.0, -2.0 + 1.0j, 1.0j])
    c[3:, 3:] = 1e-7 * np.outer([1.0, 1.0j], [1.0, 1.0j])
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((5, 5)))
    c = q @ c @ q.T
    assert factor_symmetric(0.5 * (c + c.T), CFG).relative_residual <= CFG.verify_tol


def test_a_square_chain_that_misses_c_by_more_than_the_floor_is_walked(monkeypatch):
    # every chain's L is checked against C, whatever A's shape: an L spoiled by 1e-6, which
    # M = A^T C A and its re-check do not see, leaves C - L M L^T far above the floor, and each
    # level takes one reflector instead; taken and folded, the chain would read ~1e-12
    walks = _count_calls(monkeypatch, factor, "_walk")
    inner = factor._whole_chain

    def spoiled(*args):
        a, left, etes = inner(*args)
        return a, left * (1.0 + 1e-6), etes

    monkeypatch.setattr(factor, "_whole_chain", spoiled)
    c = oracle.gen(oracle.GeneratorSpec(dim=10, seed=1, kind="DenseSymmetric"))
    r = factor_symmetric(c, CFG)
    assert walks
    assert r.trace.branches() == [BRANCH_CASE_I] * 9 + ["Base"]
    assert r.relative_residual <= 1e-14


def _off_workload_inputs():
    """The small integer diagonals, ``_clustered`` and the boosted test grid: inputs whose CaseI
    levels take reflectors as well as chains."""
    inputs = [_integer_diagonal(seed) for seed in range(300)]
    inputs += [_clustered(seed, gap, cq) for seed in range(6)
               for gap in (1e-3, 1e-5, 1e-6, 3e-7, 1e-8, 1e-11, 0.0) for cq in (False, True)]
    inputs += [_boosted(n, t, seed) for n in (2, 4, 6, 8) for t in (5.0, 5.5, 6.0) for seed in range(5)]
    return inputs + [_boosted(10, 5.5, 4), _boosted(9, 6.0, 9), _boosted(9, 6.5, 3)]


def test_every_plan_takes_one_eigendecomposition_of_its_own_block(monkeypatch):
    # no plan hands eigenpairs to the next: the block a reflector level leaves, say
    # before a repeated eigenvalue, takes one fresh eig, and no plan takes a second
    eigs = _count_calls(monkeypatch, np.linalg, "eig")
    plans = _count_calls(monkeypatch, factor, "_first_sound_plan")
    inputs = _off_workload_inputs()
    total = 0
    for i, c in enumerate(inputs):
        eigs.clear()
        plans.clear()
        factor_symmetric(c, CFG)
        assert len(eigs) == len(plans), i
        total += len(plans)
    assert total > len(inputs)


def test_every_case_i_plan_not_built_by_a_chain_is_one_reflector_level(monkeypatch):
    # a panel takes a whole chain or one reflector: where no chain is built, or it fails its
    # checks, the panel splits off one level, and the block it leaves takes the next plan
    walks = _count_calls(monkeypatch, factor, "_walk")
    panel = factor._panel
    walked = []

    def counted(*args):
        walks.clear()
        plan = panel(*args)
        if walks:
            walked.append(len(plan.records))
        return plan

    monkeypatch.setattr(factor, "_panel", counted)
    for c in _off_workload_inputs():
        factor_symmetric(c, CFG)
    assert walked and set(walked) == {1}


def test_drifted_carried_spectrum_reanchors(monkeypatch):
    # carried eigenvectors perturbed far beyond eig_tol: the check on M finds
    # the second level's corner coupled and rejects every chain for one reflector level,
    # the next block takes its own fresh eigendecomposition, as every plan
    # does, and the factorization takes the same branches within verify_tol
    c = oracle.gen(oracle.GeneratorSpec(dim=10, seed=2, kind="DenseSymmetric"))
    clean = factor_symmetric(c, CFG)
    inner, panel = factor.eigen._candidate_pairs, factor._panel
    rng = np.random.default_rng(0)

    def drifted(*args):
        for pair, basis, rest, complement in inner(*args):
            if rest is not None:
                vals, vecs = rest
                noise = rng.standard_normal(vecs.shape) + 1j * rng.standard_normal(vecs.shape)
                rest = (vals, vecs + 1e-6 * noise)
            yield pair, basis, rest, complement

    lengths = []

    def counted(*args):
        plan = panel(*args)
        lengths.append(len(plan.records))
        return plan

    monkeypatch.setattr(factor.eigen, "_candidate_pairs", drifted)
    monkeypatch.setattr(factor, "_panel", counted)
    eigs = _count_calls(monkeypatch, np.linalg, "eig")
    r = factor_symmetric(c, CFG)
    assert len(eigs) == 9  # one per level of dimension >= 2
    assert lengths == [1] * 9
    assert r.trace.branches() == clean.trace.branches()
    assert r.relative_residual <= CFG.verify_tol


@pytest.mark.parametrize(
    "c",
    [
        np.diag([2.0, 3.0]),
        np.diag([3.0, -1.0, 2.0j, 0.5]),
        np.diag([1.0, 2.0, 3.0])[::-1, ::-1],
        np.array([[5.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]),
    ],
)
def test_coordinate_eigenvectors_factor_without_warnings(c):
    # u = f - s*e_j vanishes for a coordinate eigenvector f = e_j and the
    # wrong sign; the reflector never takes that sign
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = factor_symmetric(c, CFG)
    assert r.relative_residual <= 1e-15
    assert set(r.trace.branches()) <= {BRANCH_CASE_I, "Base"}


@pytest.mark.parametrize(
    "kind, bound",
    [("DenseSymmetric", 5e-15), ("RankDeficient", 1e-13), ("IsotropicLambdaZero", 1e-13),
     ("IsotropicLambdaNonzero", 1e-13)],
)
def test_residual_stays_bounded_as_n_grows(kind, bound):
    for n in (16, 32, 64):
        for seed in range(4):
            c = oracle.gen(oracle.GeneratorSpec(dim=n, seed=seed, kind=kind))
            assert factor_symmetric(c, CFG).relative_residual <= bound, (n, seed)


def _coupling(n, entries):
    ct = np.zeros((n, n), dtype=complex)
    for (i, j), value in entries.items():
        ct[i, j] = ct[j, i] = value
    return ct


def _loop_choose_x(ct, la):
    """(strategy, score) of choose_x, scoring its rungs one at a time."""
    k = len(ct) - 1
    unit = np.eye(k)
    rungs = [("zero", np.zeros(k))] + [(f"unit:{i}", unit[i]) for i in range(k)]
    if k > 1:
        i, j = max(((i, j) for i in range(k) for j in range(i + 1, k)), key=lambda p: abs(ct[p]))
        rungs += [(f"pair:{i}+{j}", unit[i] + unit[j]), (f"pair:{i}-{j}", unit[i] - unit[j])]
    best = None
    for label, d in rungs:
        weight = np.linalg.norm(ct[:, :k] @ d)
        scale = min(weight ** -0.5, 1e8) if factor._ALLZERO_CUT * abs(la) < weight < 1.0 else 1.0
        x = np.append(scale * d, -1 / la)
        y = ct @ x
        det_d = -(x @ y)
        score = abs(det_d) / (1.0 + np.linalg.norm(x) * np.linalg.norm(y))
        if best is None or score > best[1]:
            best = label, score
    label, score = best
    return (label if score >= 1e-3 else f"fallback:{label}"), score


def test_choose_x_picks_what_a_loop_over_its_rungs_picks():
    rng = np.random.default_rng(9)
    for n in (1, 2, 3, 5, 8):
        for weight in (1.0, 1e-4, 1e-8):
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            twin = np.outer(a[0], a[0])  # rank one, with columns 0 and 1 equal: a pair rung with c d = 0
            twin[:, 1 % n], twin[1 % n] = twin[:, 0], twin[0]
            for ct in (weight * (a + a.T), weight * np.diag(np.diag(a)), weight * twin):
                la = complex(rng.standard_normal(), rng.standard_normal())
                got = choose_x(ct, la)
                strategy, score = _loop_choose_x(ct, la)
                assert got.strategy == strategy, (n, weight)
                assert got.score == pytest.approx(score, rel=1e-12)
                assert got.det_d == pytest.approx(-(got.x @ ct @ got.x), rel=1e-12)


def test_choose_x_still_rejects_non_finite_and_non_square_blocks():
    for bad in (np.full((3, 3), np.nan), np.diag([1.0, np.inf, 1.0]), np.ones((2, 3)), np.ones(3)):
        with pytest.raises(ValidationError):
            choose_x(bad, 1.0)


def _near_isotropic(seed, n, ete):
    """Unit e with e^T e close to -ete: (q0 + i(1 + ete) q1)/|.| for orthonormal real q0, q1."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, 2)))
    return _unit(q[:, 0] + 1j * (1.0 + ete) * q[:, 1])


def _isotropic_plan(c, pair):
    """``factor._plan`` of an isotropic pair, its vector made unit and phase-canonical and its
    e^T e measured, as the factor path hands them over."""
    e = _canonical(pair.vector)
    return factor._plan(c, EigenPair(value=pair.value, vector=e, residual=pair.residual), complex(e @ e))


def _random_b(plan):
    """The level's B, completed by an arbitrary factor of the next block."""
    b = plan.b.copy()
    if plan.sub is not None:
        r = len(plan.sub)
        b[:r, :r] = np.random.default_rng(r).standard_normal((r, r))
    return b


def _product_and_solve(c, pair, plan):
    """An isotropic level's V = A^-T B^T by its product and by a solve with its A' (B from ``_random_b``)."""
    b = _random_b(plan)
    return plan.left @ b.T, solve_linear(factor._reduce_case_ii(c, _canonical(pair.vector))[0].T, b.T)


def test_unitary_levels_assemble_by_a_product_that_matches_the_solve():
    from symfact.factor import _first_sound_plan

    c = oracle.gen(oracle.GeneratorSpec(dim=6, seed=1, kind="IsotropicLambdaZero"))
    c = c / frobenius(c)
    levels = [(c, _first_sound_plan(c, CFG))]  # null splits, then a lone null vector
    eye = np.eye(4, dtype=complex)
    for d, null, r in (([0.0, 3.0, 0.0, 2.0], eye[:, [0, 2]], eye[:, [1, 3]]),
                       ([3.0, 2.0, 1.0, 0.0], eye[:, [3]], eye[:, :3])):
        c = np.diag(d).astype(complex)
        pair = EigenPair(value=0.0, vector=null[:, 0], residual=0.0)
        levels.append((c, factor._null_split(c, pair, null, r, CFG)))
    e, lam, c = _isotropic_core(6, 6)
    isotropic = [(c, EigenPair(value=lam, vector=e, residual=0.0))]  # CaseII_Degenerate
    w = complement_basis_within(e)
    s = np.random.default_rng(6).standard_normal((4, 4))
    isotropic.append((w @ (s + s.T) @ w.T, EigenPair(value=0.0, vector=e, residual=0.0)))
    # near-isotropic e: A' is unitary but for e^T e, which G^-T corrects
    e = _near_isotropic(9, 6, 1e-9)
    assert 5e-10 < abs(complex(e @ e)) < 2e-9
    c = lam * (np.outer(e, e.conj()) + np.outer(e.conj(), e))
    isotropic.append((c, EigenPair(value=lam, vector=e, residual=0.0)))
    levels += [(c, _isotropic_plan(c, pair)) for c, pair in isotropic]
    kinds = [(p.records[0].branch, p.sub is None) for _, p in levels]
    assert kinds == [(BRANCH_CASE_II_LAMBDA_ZERO, False), (BRANCH_CASE_II_LAMBDA_ZERO, False),
                     (BRANCH_CASE_I, False), (BRANCH_CASE_II_DEGENERATE, True),
                     (BRANCH_CASE_II_LAMBDA_ZERO, False), (BRANCH_CASE_II_DEGENERATE, True)]
    for _, plan in levels[:3]:  # a null split's A = conj(left) is unitary
        assert frobenius(plan.left.conj().T @ plan.left - np.eye(len(plan.left))) <= 1e-14
    for c, plan in levels[:-1]:  # the last level drops the O(e^T e) entries of its C'
        assert verify_factorization(c, _level_v(plan), CFG).relative_residual <= 1e-14
    for (c, pair), (_, plan) in zip(isotropic, levels[3:]):
        got, want = _product_and_solve(c, pair, plan)
        assert frobenius(got - want) <= 1e-14 * frobenius(want)


def test_a_raised_iso_tol_is_assembled_through_the_gram_correction():
    cfg = ToleranceConfig(iso_tol=1e-4)
    e = _near_isotropic(3, 7, 2e-5)
    assert 1e-5 < abs(complex(e @ e)) < 4e-5
    w = factor._complement_basis_within(e)
    s = np.random.default_rng(3).standard_normal((5, 5))
    c = w @ (s + s.T) @ w.T  # C e = 0, so the level is a lambda = 0 congruence
    pair = EigenPair(value=0.0, vector=e, residual=0.0)
    plan = _isotropic_plan(c, pair)
    assert plan.records[0].branch == BRANCH_CASE_II_LAMBDA_ZERO
    got, want = _product_and_solve(c, pair, plan)
    assert frobenius(got - want) <= 1e-14 * frobenius(want)
    uncorrected = factor._reduce_case_ii(c, _canonical(e))[0].conj() @ _random_b(plan).T  # A' taken as unitary
    assert frobenius(uncorrected - want) > 1e-6 * frobenius(want)
    assert verify_factorization(c, _level_v(plan, cfg), cfg).relative_residual <= 1e-14
    for seed in range(6):  # whole factorizations under the raised cut
        c = oracle.gen(oracle.GeneratorSpec(dim=7, seed=seed, kind="IsotropicLambdaNonzero"))
        assert factor_symmetric(c, cfg).relative_residual <= cfg.verify_tol


def test_the_smallest_iso_tol_factors_the_isotropic_family():
    # at iso_tol = 1e-12, the guarantee of an isotropic vector found in an eigenspace,
    # every such vector still counts as isotropic; below it, the config is rejected
    cfg = ToleranceConfig(iso_tol=1e-12)
    for seed in range(200):
        c = oracle.gen(oracle.GeneratorSpec(dim=2 + seed % 9, seed=seed, kind="IsotropicLambdaNonzero"))
        assert factor_symmetric(c, cfg).relative_residual <= cfg.verify_tol, seed


def test_the_factorization_path_never_solves(monkeypatch):
    # each planner builds its level's A^-T, so assembly is one product per level
    assert not hasattr(factor, "solve_linear")
    solves = [_count_calls(monkeypatch, np.linalg, name) for name in ("solve", "inv")]
    seen = []
    for kind, n, seed in (("IsotropicLambdaZero", 6, 1), ("IsotropicLambdaZero", 7, 3), ("RankDeficient", 8, 2),
                          ("IsotropicLambdaNonzero", 6, 0), ("IsotropicLambdaNonzero", 8, 2),
                          ("IsotropicLambdaNonzero", 5, 1), ("IsotropicLambdaNonzero", 6, 463),
                          ("IsotropicLambdaNonzero", 8, 3)):
        c = oracle.gen(oracle.GeneratorSpec(dim=n, seed=seed, kind=kind))
        r = factor_symmetric(c, CFG)
        assert r.relative_residual <= CFG.verify_tol
        seen += r.trace.branches()
    assert {BRANCH_CASE_I, BRANCH_CASE_II_LAMBDA_ZERO, BRANCH_CASE_II_DEGENERATE, BRANCH_CASE_II_GENERAL} <= set(seen)
    assert solves == [[], []]


def _bordered(x, y):
    """D = [[I, x], [y^T, 0]]."""
    d = np.eye(len(x) + 1, dtype=complex)
    d[:-1, -1] = x
    d[-1, :-1] = y
    d[-1, -1] = 0.0
    return d


def test_a_bordered_level_carries_the_inverse_transpose_of_its_transform():
    e, lam, c = _isotropic_core(7, 6)
    w = complement_basis_within(e)
    rng = np.random.default_rng(7)
    s = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    c = c + w @ (s + s.T) @ w.T
    pair = EigenPair(value=lam, vector=e, residual=0.0)
    plan = _isotropic_plan(c, pair)
    assert plan.records[0].branch == BRANCH_CASE_II_GENERAL
    a_prime, c_prime = factor._reduce_case_ii(c / frobenius(c), _canonical(e))
    ct_prime = c_prime[:-1, :-1]
    x = choose_x(ct_prime, c_prime[-2, -1]).x
    a = a_prime @ _bordered(x, ct_prime @ x)  # the level's congruence A = A' D
    assert frobenius(plan.left.T @ a - np.eye(6)) <= 1e-13
    assert verify_factorization(c, _level_v(plan), CFG).relative_residual <= 1e-14


def test_the_bordered_condition_formula_matches_numpy():
    rng = np.random.default_rng(12)
    for k in (1, 2, 3, 5, 8):
        for spread in (1.0, 1e-4, 1e4):
            x = spread * (rng.standard_normal(k) + 1j * rng.standard_normal(k))
            y = rng.standard_normal(k) + 1j * rng.standard_normal(k)
            near = y.copy()
            near[-1] -= (x @ y) * (1.0 - 1e-6) / x[-1]  # x^T y shrunk a millionfold: D nearly singular
            for yy in (y, near):
                want = np.linalg.cond(_bordered(x, yy), "fro")
                assert factor._bordered_cond(x, yy, complex(x @ yy)) == pytest.approx(want, rel=1e-6)
    assert factor._bordered_cond(np.ones(2), np.array([1.0, -1.0]), 0j) == np.inf


def _reference_chain_taken(c, pair, ete, rest, cfg, floor):
    """Whether ``factor._chain`` takes the chain on ``pair`` and ``rest``, by a slow walk level by
    level: eigen's tests at the Schur bound of each level's block choose r, then the congruence of
    the eigenvectors C e / lambda, normalised bilinearly, is checked against C and, level by level,
    at the norm of M = A^T C A's leading block, with the coupling |M[:q, q]| of its corner q."""
    m = c.shape[0]
    vals, vecs = rest

    def passes(i, norm):
        gap = min((abs(vals[i] - vals[j]) for j in range(i + 1, m - 1)), default=np.inf)
        simple, near_zero = factor.eigen._simple_and_near_zero(gap, abs(vals[i]), norm)
        return norm > floor and simple and not near_zero

    def schur(i):
        return np.sqrt(sum(abs(v) ** 2 for v in vals[i:]))

    r = next((i for i in range(m - 1) if not passes(i, schur(i))), m - 1)
    if not ((r == m - 1 and m > 2) or (0 < r < m - 1 and schur(r) <= floor)):
        return False
    if any(abs(v @ v) / np.linalg.norm(v) ** 2 < factor._ETE_DANGER for v in vecs[:, :r].T):
        return False
    cols = [c @ vecs[:, j] / vals[j] for j in reversed(range(r))] + [c @ pair.vector / pair.value]
    a = np.column_stack([f / np.sqrt(f @ f + 0j) for f in cols])
    left = a @ (2.0 * np.eye(r + 1) - a.T @ a)
    mm = a.T @ c @ a
    if np.linalg.norm(c - left @ mm @ left.T) > floor:
        return False
    full = np.zeros((m, m), dtype=complex)
    full[m - r - 1 :, m - r - 1 :] = mm
    for level in range(1, min(r + 1, m - 1)):  # the levels after the first, on corners m-2, m-3, ...
        q = m - 1 - level
        norm = np.linalg.norm(full[: q + 1, : q + 1])
        if not passes(level - 1, norm) or np.linalg.norm(full[:q, q]) > cfg.eig_tol * norm:
            return False
    return True


def _close_pair(n, position, gap, seed):
    """Q diag(d) Q^T, Q real orthogonal, whose eigenvalues at ``position`` and the next in the candidate
    order (largest modulus first) lie ``gap`` * |C|_F apart."""
    rng = np.random.default_rng(seed)
    d = np.sort(rng.uniform(1.0, 3.0, n))[::-1] * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n))
    d[position + 1] = abs(d[position]) * (1.0 - 1e-9) * np.exp(1j * np.angle(d[position]))
    d[position + 1] -= gap * np.linalg.norm(d) * np.exp(1j * np.angle(d[position]))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    c = q @ np.diag(d) @ q.T
    return 0.5 * (c + c.T)


def _chain_cases():
    for seed in range(12):
        yield "dense", oracle.gen(oracle.GeneratorSpec(dim=3 + seed % 8, seed=seed, kind="DenseSymmetric")), False
    for seed in range(3600, 3612):
        c = oracle.gen(oracle.GeneratorSpec(dim=10, seed=seed, kind="RankDeficient"))
        if c.any():  # the generator's rank-0 case is the zero matrix
            yield "tail", c, False
    for position in (1, 4, 7):
        for gap in (0.5e-6, 2e-6):
            yield f"gap {gap:g} at {position}", _close_pair(10, position, gap, position), False
    for seed in range(3):
        yield "drifted", oracle.gen(oracle.GeneratorSpec(dim=8, seed=seed, kind="DenseSymmetric")), True


def test_the_chain_decides_as_a_walk_over_its_levels():
    # the chain's vectorized pre-check, its check against C and its re-check on M decide as one
    # level at a time would: the Schur bounds choose r, M's leading blocks re-check each level
    decided = {}
    rng = np.random.default_rng(0)
    for label, c, drift in _chain_cases():
        scale = frobenius(c)
        floor = factor.eigen._EIGENSPACE_CUT * scale
        pair, basis, rest, _ = next(factor.eigen._candidate_pairs(c, CFG, scale))
        assert basis is None and rest is not None  # the simple route, which tries a chain
        if drift:  # one eigenvector drifted past eig_tol: the re-check finds its corner coupled
            vals, vecs = rest
            vecs = vecs.copy()
            vecs[:, 2] += 1e-8 * (rng.standard_normal(len(vecs)) + 1j * rng.standard_normal(len(vecs)))
            rest = (vals, vecs)
        ete = complex(pair.vector @ pair.vector)
        taken = factor._chain(c, pair, ete, rest, CFG, floor) is not None
        assert taken == _reference_chain_taken(c, pair, ete, rest, CFG, floor), label
        decided.setdefault(label.split(" at ")[0], set()).add(taken)
    assert decided["dense"] == decided["tail"] == {True}
    assert decided["drifted"] == {False}
    assert decided["gap 2e-06"] == {True} and False in decided["gap 5e-07"]


def test_the_slotted_records_keep_their_dataclass_contract():
    # frozen, replaceable and picklable: the prescaled trace replaces a level's value, and the
    # benchmark's checks replace a result's V
    import dataclasses
    import pickle

    c = oracle.gen(oracle.GeneratorSpec(dim=6, seed=1, kind="DenseSymmetric"))
    result = factor_symmetric(c, CFG)
    level = result.trace.levels[0]
    pair = eigenpair(c, CFG)
    plan = factor._first_sound_plan(c, CFG)
    for record, field in ((level, "value"), (pair, "value"), (plan, "sub"), (result, "V")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, field, None)
    assert dataclasses.replace(level, value=2.0) == factor.LevelRecord(level.dim, level.branch, 2.0, level.ete)
    assert dataclasses.replace(pair, residual=0.0).residual == 0.0
    assert pickle.loads(pickle.dumps(level)) == level
    assert pickle.loads(pickle.dumps(result.trace)) == result.trace
    # a field holding an array compares elementwise, so these compare field by field
    copy = pickle.loads(pickle.dumps(pair))
    assert (copy.value, copy.residual) == (pair.value, pair.residual) and np.array_equal(copy.vector, pair.vector)
    copy = pickle.loads(pickle.dumps(result))
    assert np.array_equal(copy.V, result.V) and copy.trace == result.trace
    assert (copy.residual, copy.relative_residual) == (result.residual, result.relative_residual)
