"""Unit tests for the dense eigensolver."""

import itertools
import json

import numpy as np
import pytest

from symfact import oracle
from symfact.cli import EXIT_NUMERIC_FAILURE, format_matrix, main
from symfact.eigen import (
    ConvergenceError,
    DefectiveOperatorError,
    _candidate_pairs,
    _phase_canonical,
    biorthonormal_system,
    eigenpair,
    eigenvalues,
)
from symfact.matcore import ToleranceConfig, ValidationError, frobenius


def _random_complex(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _charpoly_roots(a):
    """Closed-form characteristic polynomial roots for n <= 3 (independent route)."""
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    if n == 1:
        return [a[0, 0]]
    if n == 2:
        tr, det = a[0, 0] + a[1, 1], a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
        return list(np.roots([1.0, -tr, det]))
    tr = np.trace(a)
    minors = sum(
        a[i, i] * a[j, j] - a[i, j] * a[j, i] for i, j in itertools.combinations(range(3), 2)
    )
    det = (
        a[0, 0] * (a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1])
        - a[0, 1] * (a[1, 0] * a[2, 2] - a[1, 2] * a[2, 0])
        + a[0, 2] * (a[1, 0] * a[2, 1] - a[1, 1] * a[2, 0])
    )
    return list(np.roots([1.0, -tr, minors, -det]))


def _multiset_distance(xs, ys):
    """Best-match distance between equal-size multisets of complex numbers."""
    best = np.inf
    for perm in itertools.permutations(range(len(ys))):
        d = max(abs(x - ys[j]) for x, j in zip(xs, perm))
        best = min(best, d)
    return best


def test_eigenvalues_diagonal():
    vals = eigenvalues(np.diag([1.0, 2.0j, -3.0]))
    assert _multiset_distance(vals, [1, 2j, -3]) < 1e-12


def test_eigenvalues_antidiagonal():
    vals = eigenvalues([[0, 1], [1, 0]])
    assert _multiset_distance(vals, [1, -1]) < 1e-12


def test_eigenvalues_nilpotent_symmetric():
    vals = eigenvalues([[1, 1j], [1j, -1]])
    assert max(abs(v) for v in vals) < 1e-7  # double zero of a nonzero nilpotent


def test_eigenvalues_match_characteristic_polynomial_roots():
    rng = np.random.default_rng(22)
    for n in (1, 2, 3):
        for _ in range(25):
            a = _random_complex(rng, n)
            got = eigenvalues(a)
            want = _charpoly_roots(a)
            assert _multiset_distance(got, want) <= 1e-8 * (1.0 + frobenius(a))


def test_eigenvalues_determinant_smallness():
    rng = np.random.default_rng(23)
    a = _random_complex(rng, 5)
    for lam in eigenvalues(a):
        m = a - lam * np.eye(5)
        assert np.min(np.linalg.svd(m, compute_uv=False)) <= 1e-9 * frobenius(a)


def test_eigenpair_dominant_diagonal():
    pair = eigenpair(np.diag([5.0, 1.0]))
    assert pair.value == pytest.approx(5.0, abs=1e-10)
    assert np.allclose(pair.vector, [1, 0], atol=1e-10)
    assert pair.residual <= 1e-12


def test_eigenpair_nilpotent_unique_direction():
    pair = eigenpair([[1, 1j], [1j, -1]])
    assert abs(pair.value) <= 1e-10
    # the direction is unique; its phase is not, as both entries tie in modulus
    assert abs(np.vdot(np.array([1, 1j]) / np.sqrt(2), pair.vector)) == pytest.approx(1.0, abs=1e-10)


def test_eigenpair_antidiagonal_selection_rule():
    pair = eigenpair([[0, 1], [1, 0]])
    # modulus tie broken by the (real, imag) sort: -1 comes first
    assert pair.value == pytest.approx(-1.0, abs=1e-12)
    assert np.allclose(pair.vector, np.array([1, -1]) / np.sqrt(2), atol=1e-10)


def test_eigenpair_residual_invariant_random():
    rng = np.random.default_rng(24)
    cfg = ToleranceConfig()
    for n in (2, 3, 5, 8):
        for _ in range(5):
            a = _random_complex(rng, n)
            pair = eigenpair(a, cfg)
            assert np.linalg.norm(a @ pair.vector - pair.value * pair.vector) <= cfg.eig_tol * frobenius(a)
            assert np.linalg.norm(pair.vector) == pytest.approx(1.0)


def test_eigenpair_rejects_zero_matrix():
    with pytest.raises(ValidationError):
        eigenpair(np.zeros((3, 3)))


def test_biorthonormal_diagonal():
    system = biorthonormal_system(np.diag([1.0, 2.0]))
    assert [lv.value for lv in system.levels] == [1.0, 2.0]
    assert [lv.multiplicity for lv in system.levels] == [1, 1]
    assert np.allclose(system.psi_matrix(), np.eye(2))
    assert np.allclose(system.phi_matrix(), np.eye(2))


def test_biorthonormal_upper_triangular():
    h = np.array([[1, 1], [0, 2]], dtype=complex)
    system = biorthonormal_system(h)
    psi = system.psi_matrix()
    phi = system.phi_matrix()
    assert np.allclose(np.abs(psi[:, 0]), [1, 0], atol=1e-12)
    assert np.allclose(psi[:, 1], np.array([1, 1]) / np.sqrt(2), atol=1e-12)
    assert frobenius(phi.conj().T @ psi - np.eye(2)) <= 1e-12


def test_biorthonormal_jordan_block_is_defective():
    with pytest.raises(DefectiveOperatorError):
        biorthonormal_system(np.array([[0, 1], [0, 0]], dtype=complex))


def test_biorthonormal_residuals_random():
    rng = np.random.default_rng(25)
    for _ in range(10):
        h = _random_complex(rng, 6)
        system = biorthonormal_system(h)
        psi, phi = system.psi_matrix(), system.phi_matrix()
        d = system.eigenvalue_matrix()
        assert frobenius(phi.conj().T @ psi - np.eye(6)) <= 1e-9
        assert frobenius(h @ psi - psi @ d) <= 1e-8 * frobenius(h)


def test_adjoint_spectrum_is_conjugate():
    rng = np.random.default_rng(26)
    for _ in range(10):
        h = _random_complex(rng, 6)
        direct = eigenvalues(h)
        adjoint = eigenvalues(h.conj().T)
        conj = [v.conjugate() for v in direct]
        adjoint_sorted = sorted(adjoint, key=lambda z: (z.real, z.imag))
        conj_sorted = sorted(conj, key=lambda z: (z.real, z.imag))
        for x, y in zip(adjoint_sorted, conj_sorted):
            assert abs(x - y) <= 1e-8 * (1.0 + frobenius(h))


def test_lapack_non_convergence_is_a_convergence_error(tmp_path, monkeypatch, capsys):
    def fail(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", fail)
    with pytest.raises(ConvergenceError):
        eigenvalues(np.eye(3))
    # analyze takes its spectrum from the eigensystem's one eig call, and
    # calls eigvals only for a defective operator
    monkeypatch.setattr(np.linalg, "eig", fail)
    path = tmp_path / "h.mat"
    path.write_text("2 2\n1 0\n0 2\n", encoding="utf-8")
    assert main(["analyze", str(path)]) == EXIT_NUMERIC_FAILURE
    assert json.loads(capsys.readouterr().out)["status"] == "error"


def test_eigenvector_non_convergence_is_a_convergence_error(tmp_path, monkeypatch, capsys):
    def fail(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eig", fail)
    with pytest.raises(ConvergenceError):
        eigenpair(np.diag([1.0, 2.0]))
    path = tmp_path / "c.mat"
    path.write_text("2 2\n1 0,5\n0,5 2\n", encoding="utf-8")
    assert main(["factor", str(path)]) == EXIT_NUMERIC_FAILURE
    assert json.loads(capsys.readouterr().out)["result"]["error"] == "ConvergenceError"


# ---------------------------------------------------------------- eigensystem paths

def _count_lapack(monkeypatch):
    """Count np.linalg calls by name; an SVD counts only when it returns
    singular vectors (cond(Psi) and the invertibility checks take values only)."""
    counts = {"eig": 0, "eigvals": 0, "eigh": 0, "svd": 0}
    for name in counts:
        real = getattr(np.linalg, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            if _name != "svd" or kwargs.get("compute_uv", True):
                counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts


def _write_matrix(tmp_path, name, h):
    path = tmp_path / name
    path.write_text(format_matrix(h), encoding="utf-8")
    return str(path)


def test_simple_spectrum_takes_one_eig_and_no_eigenvector_svd(tmp_path, monkeypatch, capsys):
    h = oracle.gen(oracle.GeneratorSpec(dim=6, seed=3, kind="PairedSpectrum"))
    path = _write_matrix(tmp_path, "h.mat", h)
    counts = _count_lapack(monkeypatch)
    system = biorthonormal_system(h)
    assert [lv.multiplicity for lv in system.levels] == [1] * 6
    assert counts == {"eig": 1, "eigvals": 0, "eigh": 0, "svd": 0}
    for argv in (["analyze", path], ["canonical", path]):
        for name in counts:
            counts[name] = 0
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "pass"
        assert counts == {"eig": 1, "eigvals": 0, "eigh": 0, "svd": 0}, argv


def test_candidates_come_largest_modulus_first_then_by_real_and_imaginary_part():
    # one three-key lexsort is the two-step order it replaced: (real, imag), then a stable sort
    # by modulus; pinned on equal moduli and equal real parts, exact repeats included
    rng = np.random.default_rng(5)
    for _ in range(200):
        vals = rng.choice([2.0, -2.0, 2j, -2j, 1 + 1j, 1 - 1j, -1 + 1j, 1.0, 1j, 0.0], size=rng.integers(1, 12))
        two_step = np.lexsort((vals.imag, vals.real))
        two_step = two_step[np.argsort(-np.abs(vals[two_step]), kind="stable")]
        assert np.array_equal(np.lexsort((vals.imag, vals.real, -np.abs(vals))), two_step)
    # and the candidate walk yields them so: a diagonal C's eigenvalues are its entries
    diag = np.array([1 - 1j, 2j, -2.0, 1 + 1j, -2j, 2.0, 1.0, -1 + 1j])
    walked = [pair.value for pair, *_ in _candidate_pairs(np.diag(diag), ToleranceConfig())]
    vals = np.linalg.eigvals(np.diag(diag))
    order = np.lexsort((vals.imag, vals.real))
    order = order[np.argsort(-np.abs(vals[order]), kind="stable")]
    assert walked == list(vals[order])
    assert walked == [-2.0, -2j, 2j, 2.0, -1 + 1j, 1 - 1j, 1 + 1j, 1.0]


def test_simple_levels_take_the_phase_fixed_lapack_eigenvector():
    h = oracle.gen(oracle.GeneratorSpec(dim=6, seed=3, kind="PairedSpectrum"))
    vals, vecs = np.linalg.eig(h)
    for lv in biorthonormal_system(h).levels:
        i = int(np.argmin(np.abs(vals - lv.value)))
        assert lv.value == vals[i]
        expected = _phase_canonical(vecs[:, i] / np.linalg.norm(vecs[:, i]))
        assert np.allclose(lv.psi[:, 0], expected, rtol=0.0, atol=1e-15)
        k = int(np.argmax(np.abs(lv.psi[:, 0])))
        assert lv.psi[k, 0].imag == 0.0 and lv.psi[k, 0].real > 0.0


def _check_system(h, system):
    n = h.shape[0]
    psi, phi, d = system.psi_matrix(), system.phi_matrix(), system.eigenvalue_matrix()
    assert frobenius(phi.conj().T @ psi - np.eye(n)) <= 1e-10
    assert frobenius(h @ psi - psi @ d) <= 1e-10 * frobenius(h)
    for lv in system.levels:  # every repeated level's block is orthonormal
        assert frobenius(lv.psi.conj().T @ lv.psi - np.eye(lv.multiplicity)) <= 1e-12


def test_repeated_levels_take_one_svd_each(tmp_path, monkeypatch, capsys):
    h_diag = np.diag([1.0, 1.0, 2.0]).astype(complex)
    h_paired = oracle.gen(oracle.GeneratorSpec(dim=6, seed=0, kind="PairedSpectrum"))
    counts = _count_lapack(monkeypatch)
    system = biorthonormal_system(h_diag)
    assert [(lv.value, lv.multiplicity) for lv in system.levels] == [(1.0, 2), (2.0, 1)]
    assert counts["eig"] == 1 and counts["svd"] == 1
    _check_system(h_diag, system)
    counts["eig"] = counts["svd"] = 0
    system = biorthonormal_system(h_paired)
    repeated = [lv for lv in system.levels if lv.multiplicity > 1]
    assert len(repeated) == 1 and repeated[0].multiplicity == 2 and abs(repeated[0].value.imag) < 1e-12
    assert counts["eig"] == 1 and counts["svd"] == 1
    _check_system(h_paired, system)
    path = _write_matrix(tmp_path, "h.mat", h_paired)
    assert main(["analyze", path]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["diagonalizable"] and result["pairing"]["paired"]
    assert sorted(e["multiplicity"] for e in result["eigenvalues"]) == [1, 1, 1, 1, 2]


def test_jordan_blocks_stay_defective(tmp_path, capsys):
    for h in ([[0, 1], [0, 0]], [[1, 1, 0], [0, 1, 0], [0, 0, 2]], [[0, 1], [1e-20, 0]]):
        with pytest.raises(DefectiveOperatorError):
            biorthonormal_system(np.array(h, dtype=complex))
    path = _write_matrix(tmp_path, "j.mat", np.array([[1, 1, 0], [0, 1, 0], [0, 0, 2]], dtype=complex))
    assert main(["analyze", path]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["diagonalizable"] is False
    assert result["eigenvalues"] == [{"multiplicity": 2, "value": [1, 0]}, {"multiplicity": 1, "value": [2, 0]}]


def test_canonical_selfadjoint_is_an_involution_to_rounding(tmp_path, monkeypatch, capsys):
    rng = np.random.default_rng(27)
    q, _ = np.linalg.qr(_random_complex(rng, 3))
    inputs = [q @ np.diag([1.0, 1.0, 2.0]) @ q.conj().T]
    inputs += [oracle.gen(oracle.GeneratorSpec(dim=n, seed=s, kind="HermitianDense"))
               for n in (16, 32) for s in range(3)]
    counts = _count_lapack(monkeypatch)
    for k, h in enumerate(inputs):
        path = _write_matrix(tmp_path, f"h{k}.mat", h)
        counts["eig"] = counts["eigh"] = 0
        assert main(["canonical", "--selfadjoint", path]) == 0
        assert (counts["eig"], counts["eigh"]) == (0, 1)
        result = json.loads(capsys.readouterr().out)["result"]
        # |M conj(M) - I|_F per unit of |I|_F = sqrt(n), as the benchmark checks it
        assert result["involution_residual"] / np.sqrt(h.shape[0]) <= 1e-14, (k, result["involution_residual"])
        assert result["hermiticity_residual"] <= 1e-14
