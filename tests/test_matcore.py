"""Unit tests for the dense complex substrate."""

import numpy as np
import pytest

from symfact.matcore import (
    SingularMatrixError,
    ToleranceConfig,
    ValidationError,
    as_scalar,
    complement_basis_within,
    frobenius,
    principal_sqrt,
    solve_linear,
)


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


def _householder(x):
    """Unitary I - 2 v v^* whose first column is a unit multiple of x."""
    x = x / np.linalg.norm(x)
    v = x.copy()
    v[0] += x[0] / abs(x[0]) if abs(x[0]) > 0.0 else 1.0
    v /= np.linalg.norm(v)
    return np.eye(len(x)) - 2.0 * np.outer(v, v.conj())


def test_complement_basis_within_is_the_two_reflector_product_at_m_2_to_12():
    # the basis is P1[:, 1:] P2[:, 1:], P1 the reflector of conj(e), P2 that of e's other
    # coordinates in P1's basis: formed as two rank-1 terms, it is the same matrix
    for m in range(2, 13):
        for seed in range(10):
            rng = np.random.default_rng(100 * m + seed)
            q, _ = np.linalg.qr(rng.standard_normal((m, 2)))
            e = (q[:, 0] + 1j * q[:, 1]) / np.sqrt(2.0) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
            w = complement_basis_within(3.0 * e)  # any norm; the basis is of e/|e|
            assert w.shape == (m, m - 2)
            assert frobenius(w.conj().T @ w - np.eye(m - 2)) <= 1e-14
            assert np.abs(e @ w).max(initial=0.0) <= 1e-15 and np.abs(e.conj() @ w).max(initial=0.0) <= 1e-15
            p1 = _householder(e.conj())
            p2 = _householder((p1.conj().T @ e)[1:])
            reference = p1[:, 1:] @ p2[:, 1:]
            assert frobenius(w - reference) <= 1e-14
            assert frobenius(w @ w.conj().T - reference @ reference.conj().T) <= 1e-14


def test_as_scalar_rejects_nan_or_inf_in_either_part():
    assert as_scalar(np.complex128(1.5 - 2j)) == complex(1.5, -2.0)
    assert as_scalar(3) == 3.0
    for bad in (complex(np.nan, 0.0), complex(0.0, np.nan), complex(1.0, np.nan), complex(np.inf, 1.0),
                complex(1.0, -np.inf), float("nan")):
        with pytest.raises(ValidationError):
            as_scalar(bad)
    with pytest.raises(ValidationError):
        principal_sqrt(complex(4.0, np.nan))


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
    # a bool is an int to isinstance, but True is no tolerance and no seed
    for name in ("eig_tol", "iso_tol", "verify_tol", "seed"):
        with pytest.raises(ValidationError, match=name):
            ToleranceConfig(**{name: True})
    with pytest.raises(ValidationError, match="seed"):
        ToleranceConfig(seed=False)
    cfg = ToleranceConfig()
    assert cfg.iso_tol == 1e-8


@pytest.mark.parametrize("iso_tol", [3e-3, 0.5, 1.0, 2.0])
def test_iso_tol_must_be_below_one(iso_tol):
    # a reflector level takes |e^T e| >= 3e-3, so iso_tol stays under that cut
    # (at 0.1, corpus inputs already miss verify_tol)
    with pytest.raises(ValidationError, match="iso_tol must be below 0.003"):
        ToleranceConfig(iso_tol=iso_tol)
    assert ToleranceConfig(iso_tol=2.9e-3).iso_tol == 2.9e-3


@pytest.mark.parametrize("iso_tol", [1e-13, 1e-16])
def test_iso_tol_must_be_at_least_the_isotropic_floor(iso_tol):
    # an isotropic vector found in an eigenspace is only guaranteed |e^T e| <= 1e-12,
    # so a smaller iso_tol would reject it as not isotropic on valid inputs
    with pytest.raises(ValidationError, match=r"\[1e-12, 0.003\)"):
        ToleranceConfig(iso_tol=iso_tol)
    assert ToleranceConfig(iso_tol=1e-12).iso_tol == 1e-12


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
