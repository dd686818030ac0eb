"""Unit tests for the dense complex substrate."""

import numpy as np
import pytest

from symfact.matcore import (
    SingularMatrixError,
    ToleranceConfig,
    ValidationError,
    bilinear,
    complement_basis_within,
    frobenius,
    principal_sqrt,
    solve_linear,
)


def test_bilinear_examples():
    assert bilinear([1, 0], [0, 1]) == 0
    assert abs(bilinear([1, 1j], [1, 1j])) == 0  # isotropic: 1 + i^2
    assert bilinear([1, 1j], [2, 3]) == pytest.approx(2 + 3j)


def test_bilinear_symmetric_property():
    rng = np.random.default_rng(11)
    for _ in range(20):
        u = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        assert bilinear(u, v) == pytest.approx(bilinear(v, u))


def test_inner_products_reject_mismatch_and_nonfinite():
    with pytest.raises(ValidationError):
        bilinear([1, 2], [1, 2, 3])
    with pytest.raises(ValidationError):
        bilinear([np.nan, 0], [1, 0])
    with pytest.raises(ValidationError):
        bilinear([1, 0], [np.inf, 0])


def test_complement_basis_within_small_cases():
    e = np.array([1, 1j, 0]) / np.sqrt(2)
    w = complement_basis_within(e)
    assert w.shape == (3, 1)
    assert abs(abs(w[2, 0]) - 1) < 1e-12  # only the third axis survives
    assert complement_basis_within(np.array([1, 1j]) / np.sqrt(2)).shape == (2, 0)


def test_complement_basis_within_dim4():
    rng = np.random.default_rng(14)
    g = rng.standard_normal((4, 2))
    q, _ = np.linalg.qr(g)
    e = (q[:, 0] + 1j * q[:, 1]) / np.sqrt(2)
    w = complement_basis_within(e)
    assert w.shape == (4, 2)
    assert np.allclose(w.conj().T @ w, np.eye(2), atol=1e-13)
    assert np.max(np.abs(e.conj() @ w)) < 1e-12   # w^* e = 0 columnwise
    assert np.max(np.abs(e @ w)) < 1e-12          # w^* conj(e) = 0 columnwise


def test_complement_basis_within_rejects_non_isotropic():
    with pytest.raises(ValidationError):
        complement_basis_within([1.0, 0.0])


def test_solve_linear_examples():
    b = np.array([[1, 2], [3, 4]], dtype=complex)
    assert np.allclose(solve_linear(np.eye(2), b), b)
    assert np.allclose(solve_linear([[2, 0], [0, 4]], np.eye(2)), np.diag([0.5, 0.25]))
    assert np.allclose(solve_linear([[1, 1], [0, 1]], [1, 1]), [0, 1])


def test_solve_linear_random_roundtrip():
    rng = np.random.default_rng(15)
    for n in (2, 4, 7):
        for _ in range(5):
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            if np.linalg.cond(a) > 1e6:
                continue
            b = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
            x = solve_linear(a, b)
            assert frobenius(a @ x - b) <= 1e-10 * frobenius(a) * max(frobenius(x), 1.0)


def test_solve_linear_singular_raises():
    with pytest.raises(SingularMatrixError):
        solve_linear([[1, 2], [2, 4]], [1, 1])


def test_solve_linear_rejects_rank_deficient_with_rounding_noise():
    # rank 2 of 6, condition ~3e17: LAPACK meets no exact zero pivot and,
    # unchecked, would return a solution with entries ~1e16
    rng = np.random.default_rng(0)
    u = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
    with pytest.raises(SingularMatrixError):
        solve_linear(u @ u.T, np.ones(6))


def test_principal_sqrt_branch():
    assert principal_sqrt(4) == pytest.approx(2)
    assert principal_sqrt(-4) == pytest.approx(2j)
    assert principal_sqrt(2j) == pytest.approx(1 + 1j)
    assert principal_sqrt(complex(-4, -0.0)) == pytest.approx(2j)  # tie rule on the cut


def test_principal_sqrt_squares_back_on_grid():
    re = np.linspace(-5, 5, 33)
    im = np.linspace(-5, 5, 33)
    for a in re:
        for b in im:
            z = complex(a, b)
            w = principal_sqrt(z)
            assert w.real >= 0 or (w.real == 0 and w.imag >= 0)
            if z != 0:
                assert abs(w * w - z) <= 1e-14 * abs(z)


def test_tolerance_config_validation():
    with pytest.raises(ValidationError):
        ToleranceConfig(iso_tol=-1.0)
    cfg = ToleranceConfig()
    assert cfg.iso_tol == 1e-8


@pytest.mark.parametrize("complex_entries", [True, False])
def test_frobenius_is_numpy_norm_bit_for_bit(complex_entries):
    # entries over 16 decades, so a different summation order shows in the last bits
    rng = np.random.default_rng(12)
    a = rng.standard_normal((9, 11)) * 10.0 ** rng.uniform(-8, 8, (9, 11))
    if complex_entries:
        a = a + 1j * rng.standard_normal((9, 11)) * 10.0 ** rng.uniform(-8, 8, (9, 11))
    layouts = [a, np.asfortranarray(a), a.T, a[::2, 1::3], a.T[1:, ::2], a[:, 4], a.ravel()[::3], a[:0]]
    for x in layouts:
        assert frobenius(x).hex() == float(np.linalg.norm(x)).hex()
