"""The package's public surface: adding or removing an export is a visible API change."""

import symfact

#: ``symfact.__all__``, by module of definition
PUBLIC = {
    "__version__",
    # matcore
    "ToleranceConfig", "ValidationError", "SingularMatrixError", "complement_basis_within", "solve_linear",
    "principal_sqrt", "frobenius",
    # eigen
    "ConvergenceError", "DefectiveOperatorError", "EigenPair", "EigenLevel", "BiorthonormalSystem",
    "eigenvalues", "eigenpair", "biorthonormal_system",
    # factor
    "ALL_BRANCHES", "FactorizationResult", "NotSymmetricError", "RecursionTrace", "factor_symmetric",
    "verify_factorization", "orthogonal_gauge",
    # antisym
    "AntilinearOp", "CoefficientSet", "SpectrumPairing", "Unpairable", "build_T", "check_pseudo_hermitian",
    "transform_basis", "transform_coeffs", "canonicalize", "spectrum_pairing", "build_antilinear_symmetry",
    "check_commutes", "check_involution", "canonical_T", "canonical_T_selfadjoint",
    # oracle
    "Breakdown", "GeneratorSpec", "ldlt_symmetric", "factor_via_ldlt", "gen", "gen_complex_orthogonal",
}


def test_the_public_surface_is_pinned():
    assert len(symfact.__all__) == len(set(symfact.__all__))
    assert set(symfact.__all__) == PUBLIC


def test_every_export_resolves():
    for name in symfact.__all__:
        assert getattr(symfact, name, None) is not None, name
    namespace = {}
    exec("from symfact import *", namespace)
    assert PUBLIC <= set(namespace)
