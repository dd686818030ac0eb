"""Constructive V V^T factorization of complex symmetric matrices.

The construction is an induction on the dimension.  Each level takes one
eigenpair (lambda, e) of the current symmetric block C and branches on
whether e is isotropic (e^T e = 0, possible only over the complex field):

* ``CaseI``               non-isotropic e: congruence by [complement | e]
                          splits off a 1x1 corner, recurse on the rest.
* ``CaseII_LambdaZero``   lambda = 0: the null space leaves in one unitary
                          split (a lone null vector with e^T e != 0 is
                          recorded as ``CaseI``).
* ``CaseII_General``      isotropic e, lambda != 0, coupling block nonzero:
                          an extra bordered transform D restores the CaseI
                          shape; the free entries of D are chosen so that
                          det D is safely nonzero.
* ``CaseII_Degenerate``   isotropic e, lambda != 0, coupling block zero or
                          negligible: the remaining 2x2 antidiagonal core is
                          factored in closed form.
* ``Base`` / ``ZeroMatrix`` terminate the recursion.

``_plan`` is the one place where a level's branch is decided.  It returns
the level's congruence A, the next block, and the part of B (with
B^T B = A^T C A) known at this level.  ``factor_symmetric`` walks the
blocks down in a loop, keeping each level's A and B, then assembles
V = solve(A^T, B^T) bottom-up, so the Python stack does not grow with the
dimension.

Every returned factor satisfies |C - V V^T|_F <= verify_tol * max(|C|_F, 1).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import eigen
from .matcore import (
    ToleranceConfig,
    ValidationError,
    as_matrix,
    as_scalar,
    bilinear,
    complement_basis,
    complement_basis_within,
    frobenius,
    principal_sqrt,
    solve_linear,
)

BRANCH_BASE = "Base"
BRANCH_CASE_I = "CaseI"
BRANCH_CASE_II_LAMBDA_ZERO = "CaseII_LambdaZero"
BRANCH_CASE_II_GENERAL = "CaseII_General"
BRANCH_CASE_II_DEGENERATE = "CaseII_Degenerate"
BRANCH_ZERO_MATRIX = "ZeroMatrix"

ALL_BRANCHES = (
    BRANCH_BASE,
    BRANCH_CASE_I,
    BRANCH_CASE_II_LAMBDA_ZERO,
    BRANCH_CASE_II_GENERAL,
    BRANCH_CASE_II_DEGENERATE,
    BRANCH_ZERO_MATRIX,
)

#: |lambda*alpha| below this multiple of |C|_F is treated as lambda = 0
#: (dropping a corner this small costs at most sqrt(2)*1e-10 relative residual,
#: while feeding it to the bordered transform would divide by it)
_LAMBDA_ZERO_CUT = 1e-10
#: coupling block with max-entry below this multiple of |lambda*alpha| counts as zero
_ALLZERO_CUT = 1e-10
#: symmetry defect tolerated (and symmetrized away) on input
_SYM_BAND = 1e-12
#: |e^T e| below this makes the non-isotropic rescale too ill-conditioned;
#: the recursion then looks for a better eigenvalue candidate first
_ETE_DANGER = 3e-3
#: an isotropic eigenvector with 0 < |lambda| below this fraction of |C|_F
#: drives the bordered transform (x_n = -1/(lambda*alpha)) toward singularity;
#: such candidates are deferred the same way
_LAMBDA_DANGER = 1e-4
#: coupling block with |c_tilde'|_F below this multiple of |C|_F is dropped
#: through the closed form: that costs at most its own norm, far under
#: verify_tol, while a bordered transform built on it scores rounding noise
_DROP_CUT = 5e-9


class NotSymmetricError(ValueError):
    """Input matrix is not symmetric within the accepted band."""


class AllZeroSignal:
    """Returned by choose_x when the coupling block vanishes identically."""

    def __repr__(self):  # pragma: no cover - cosmetic
        return "AllZeroSignal()"


@dataclass(frozen=True)
class ChosenX:
    x: np.ndarray
    det_d: complex
    strategy: str
    score: float = 1.0  # |det D| relative to the size of D, a 1/cond proxy


@dataclass(frozen=True)
class LevelRecord:
    """One level of the trace.  ``value`` (the eigenvalue, lambda*alpha on
    the isotropic branches, the entry at Base) is in the input's units."""

    dim: int
    branch: str
    value: complex | None = None
    ete: complex | None = None
    det_d: complex | None = None
    x_strategy: str | None = None


@dataclass(frozen=True)
class LevelPlan:
    """One level, decided but not yet assembled.

    The level's factor is V = solve(A^T, B^T).  ``b`` is B with its leading
    r x r block left zero for the transposed factor of ``sub``, the next
    block (r x r); ``sub`` is None when this level ends the chain.
    ``sound`` is False only for a bordered transform that scored
    ill-conditioned: some coupling blocks (a cross coupling with vanishing
    diagonal that is small but not negligible, say) admit no
    well-conditioned transform at all, and another eigenvalue candidate is
    then preferable.
    """

    record: LevelRecord
    a: np.ndarray
    sub: np.ndarray | None
    b: np.ndarray
    sound: bool = True


@dataclass(frozen=True)
class RecursionTrace:
    levels: tuple

    def branches(self) -> list:
        return [lv.branch for lv in self.levels]


@dataclass(frozen=True)
class FactorizationResult:
    V: np.ndarray
    residual: float
    relative_residual: float
    trace: RecursionTrace


@dataclass(frozen=True)
class VerifyResult:
    residual: float
    relative_residual: float
    passed: bool


def verify_factorization(c, v, cfg: ToleranceConfig | None = None) -> VerifyResult:
    """Frobenius residual of C - V V^T, relative to max(|C|_F, 1)."""
    c = as_matrix(c, square=True, name="C")
    v = as_matrix(v, square=True, name="V")
    cfg = cfg or ToleranceConfig()
    if v.shape != c.shape:
        raise ValidationError(f"shape mismatch: C is {c.shape}, V is {v.shape}")
    residual = frobenius(c - v @ v.T)
    relative = residual / max(frobenius(c), 1.0)
    return VerifyResult(residual=residual, relative_residual=relative, passed=relative <= cfg.verify_tol)


def orthogonal_gauge(v, o, tol: float = 1e-10) -> np.ndarray:
    """Apply the gauge freedom V -> V o for complex orthogonal o (o^T o = I)."""
    v = as_matrix(v, name="V")
    o = as_matrix(o, square=True, name="o")
    if o.shape[0] != v.shape[1]:
        raise ValidationError(f"gauge matrix {o.shape} does not conform to V {v.shape}")
    defect = frobenius(o.T @ o - np.eye(o.shape[0]))
    if defect > tol * max(frobenius(o) ** 2, 1.0):
        raise ValidationError(f"gauge matrix is not orthogonal: |o^T o - I| = {defect:.3g}")
    return v @ o


def factor_antidiagonal(lambda_alpha) -> np.ndarray:
    """Closed-form 2x2 factor m with m^T m = [[0, la], [la, 0]]."""
    la = as_scalar(lambda_alpha, "lambda_alpha")
    if la == 0.0:
        raise ValidationError("lambda_alpha must be nonzero")
    return np.array([[1.0, la / 2.0], [1.0j, -1.0j * la / 2.0]], dtype=np.complex128)


def build_D(x, y) -> np.ndarray:
    """Bordered matrix [[I, x], [y^T, 0]]; det = -sum_i x_i y_i."""
    x = np.asarray(x, dtype=np.complex128).ravel()
    y = np.asarray(y, dtype=np.complex128).ravel()
    if x.shape != y.shape or x.size == 0:
        raise ValidationError("x and y must be nonempty vectors of equal length")
    n = x.size
    d = np.eye(n + 1, dtype=np.complex128)
    d[:n, n] = x
    d[n, :n] = y
    d[n, n] = 0.0
    return d


def choose_x(c_tilde_prime, lambda_alpha, cfg: ToleranceConfig | None = None, depth: int = 0):
    """Pick the free entries of the bordered transform D.

    x_n is pinned to -1/(lambda*alpha); the free components walk a
    deterministic ladder (zero, unit vectors, seeded random draws) until
    |det D| clears det_tol at the natural scale.  Returns AllZeroSignal when
    the coupling block vanishes, which routes to the closed-form branch.
    """
    ct = as_matrix(c_tilde_prime, square=True, name="c_tilde_prime")
    la = as_scalar(lambda_alpha, "lambda_alpha")
    cfg = cfg or ToleranceConfig()
    if la == 0.0:
        raise ValidationError("lambda_alpha must be nonzero in this branch")
    n = ct.shape[0]
    if float(np.max(np.abs(ct))) <= _ALLZERO_CUT * abs(la):
        return AllZeroSignal()
    xn = -1.0 / la
    threshold = cfg.det_tol * max(1.0, frobenius(ct) / abs(la) ** 2)

    def evaluate(x_free: np.ndarray):
        x = np.concatenate([x_free, [xn]])
        y = ct @ x
        det_d = -complex(x @ y)
        # |det D| <= |x||y| always; a tiny ratio means D is nearly singular
        score = abs(det_d) / (1.0 + float(np.linalg.norm(x) * np.linalg.norm(y)))
        return x, det_d, score

    directions = []
    for i in range(n - 1):
        unit = np.zeros(n - 1, dtype=np.complex128)
        unit[i] = 1.0
        directions.append((f"unit:{i}", unit))
    if n > 1:
        rng = eigen._rng(cfg.seed, 0xD37, depth)
        for j in range(16):
            draw = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
            directions.append((f"random:{j}", draw))
    candidates = [("zero", np.zeros(n - 1, dtype=np.complex128))] + directions
    # when the coupling block is weak relative to lambda*alpha, only amplified
    # free components give a well-conditioned transform, so sweep magnitudes
    for magnitude in (1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8):
        for label, d in directions[: min(len(directions), n + 3)]:
            candidates.append((f"{label}*{magnitude:g}", magnitude * d))
    best = None
    for label, x_free in candidates:
        x, det_d, score = evaluate(x_free)
        if abs(det_d) >= threshold and score >= 1e-3:
            return ChosenX(x=x, det_d=det_d, strategy=label, score=score)
        if best is None or score > best.score:
            best = ChosenX(x=x, det_d=det_d, strategy=f"fallback:{label}", score=score)
    return best  # nonzero coupling: keep the best-conditioned draw


def _isotropic_upgrade(c: np.ndarray, pair: eigen.EigenPair, basis: np.ndarray):
    """Isotropic eigenvector for pair.value when its eigenspace has one.

    A multi-dimensional eigenspace always contains isotropic directions
    (any nonzero quadratic form on C^k, k >= 2, has nontrivial zeros); one is
    taken from ``basis``, the numerical eigenspace that came with the pair.
    Returns an upgraded EigenPair or None.
    """
    if basis.shape[1] < 2:
        return None
    z = _isotropic_in_subspace(basis.T @ basis)
    if z is None:
        return None
    v = eigen._phase_canonical(basis @ z / np.linalg.norm(basis @ z))
    lam = complex(np.vdot(v, c @ v))
    res = float(np.linalg.norm(c @ v - lam * v))
    if res <= max(1e-10 * frobenius(c), 10.0 * pair.residual) and abs(bilinear(v, v)) <= 1e-12:
        return eigen.EigenPair(value=lam, vector=v, residual=res)
    return None


def _null_split(c: np.ndarray, pair: eigen.EigenPair, null: np.ndarray, cfg: ToleranceConfig) -> LevelPlan:
    """One unitary split A = [R | N] off the numerical null space N of C.

    C N = 0 gives w^T C N = 0 for every w, so A^T C A = blockdiag(R^T C R, 0)
    with R completing N unitarily; the level drops only C N, whose singular
    values lie under the eigenspace cut.  A null space of two or more
    dimensions holds isotropic directions; a lone null vector with e^T e != 0
    is recorded as CaseI.
    """
    m, k = null.shape
    r = np.linalg.qr(null, mode="complete")[0][:, k:]
    ct = r.T @ c @ r
    ete = complex(np.dot(pair.vector, pair.vector))
    branch = BRANCH_CASE_I if k == 1 and abs(ete) > cfg.iso_tol else BRANCH_CASE_II_LAMBDA_ZERO
    record = LevelRecord(dim=m, branch=branch, value=pair.value, ete=ete)
    return LevelPlan(record, np.hstack([r, null]), 0.5 * (ct + ct.T), np.zeros((m, m), dtype=np.complex128))


def _first_sound_plan(c: np.ndarray, cfg: ToleranceConfig, depth: int) -> LevelPlan:
    """Plan of one level, for the first eigenvalue candidate with a sound plan.

    Walks the eigenvalue candidates largest modulus first.  A candidate is
    taken when it gives an exact route: the null space (one unitary split),
    an isotropic vector whose plan is sound, or a safely non-isotropic
    vector.  Candidates in the ill-conditioned gaps are deferred; nearly
    nilpotent blocks always hold a clean candidate further down the list.  A
    pair taken directly from LAPACK (no ``basis``) belongs to a simple
    eigenvalue; as C is symmetric, e^T is also its left eigenvector, so
    e^T e != 0 and the one-dimensional eigenspace holds no isotropic
    direction to upgrade to.
    """
    fallback_iso = None  # (isotropic pair, its unsound plan or None)
    fallback_ete = None  # non-isotropic vector with e^T e in the ill-conditioned gap
    scale = frobenius(c)
    for pair, basis in eigen._candidate_pairs(c, cfg):
        if abs(pair.value) <= _LAMBDA_ZERO_CUT * scale:
            return _null_split(c, pair, basis, cfg)
        ete = abs(bilinear(pair.vector, pair.vector))
        if ete <= cfg.iso_tol:
            iso = pair
        else:
            iso = None if basis is None else _isotropic_upgrade(c, pair, basis)
        if iso is not None:
            in_gap = _LAMBDA_ZERO_CUT * scale < abs(iso.value) < _LAMBDA_DANGER * scale
            plan = None if in_gap else _plan(c, iso, cfg, depth)
            if plan is not None and plan.sound:
                return plan
            if fallback_iso is None or abs(iso.value) > abs(fallback_iso[0].value):
                fallback_iso = (iso, plan)
            continue
        if ete >= _ETE_DANGER:
            return _plan(c, pair, cfg, depth)
        if fallback_ete is None or ete > abs(bilinear(fallback_ete.vector, fallback_ete.vector)):
            fallback_ete = pair
    if fallback_iso is not None:
        iso, plan = fallback_iso
        return plan if plan is not None else _plan(c, iso, cfg, depth)
    if fallback_ete is not None:
        return _plan(c, fallback_ete, cfg, depth)
    raise eigen.ConvergenceError("no eigenvalue candidate gave an eigenpair within eig_tol")


def _isotropic_in_subspace(s: np.ndarray):
    """Unit z with z^T S z ~ 0 for symmetric S (k >= 2); None if unavailable."""
    k = s.shape[0]
    if k < 2:
        return None
    scale = float(np.max(np.abs(s)))
    z = np.zeros(k, dtype=np.complex128)
    if scale == 0.0:
        z[0] = 1.0
        return z
    diag = np.abs(np.diag(s))
    j = int(np.argmin(diag))
    if diag[j] <= 1e-14 * scale:
        z[j] = 1.0
        return z
    i0 = int(np.argmax(diag))
    others = sorted((i for i in range(k) if i != i0), key=lambda i: -diag[i])
    for i1 in others:
        a, b, c = s[i0, i0], s[i0, i1], s[i1, i1]
        if abs(c) <= 1e-14 * scale:
            if abs(b) <= 1e-14 * scale:
                continue
            t = -a / (2.0 * b)
        else:
            disc = complex(np.sqrt(np.complex128(b * b - a * c)))
            roots = [(-b + disc) / c, (-b - disc) / c]
            t = min(roots, key=abs)
        z[:] = 0.0
        z[i0] = 1.0
        z[i1] = t
        return z / np.linalg.norm(z)
    return None


def reduce_case_i(c, pair: eigen.EigenPair, cfg: ToleranceConfig | None = None):
    """Congruence data for the non-isotropic branch.

    Returns (A, c_tilde, mu) with A = [complement columns | e/sqrt(e^T e)],
    A^T C A = blockdiag(c_tilde, mu) up to rounding, and mu the measured
    corner entry e^T C e after the rescale.
    """
    c = as_matrix(c, square=True, name="C")
    cfg = cfg or ToleranceConfig()
    e = eigen._phase_canonical(np.asarray(pair.vector, dtype=np.complex128))
    ete = complex(np.dot(e, e))
    if ete == 0.0:
        raise ValidationError("eigenvector is isotropic; wrong branch")
    e1 = e / principal_sqrt(ete)
    w = complement_basis(e)
    a = np.hstack([w, e1.reshape(-1, 1)])
    ct = w.T @ c @ w
    ct = 0.5 * (ct + ct.T)
    mu = complex(e1 @ (c @ e1))
    return a, ct, mu


def reduce_case_ii(c, pair: eigen.EigenPair, cfg: ToleranceConfig | None = None):
    """Congruence data for the isotropic branch.

    Returns (A', C', c_tilde_prime) where A' = [basis of the joint
    complement of {e, conj(e)} | conj(e) | e] is unitary, C' = A'^T C A' has
    its last row and column zero except the antidiagonal corner entries
    lambda*alpha, and c_tilde_prime is the leading symmetric block.
    """
    c = as_matrix(c, square=True, name="C")
    cfg = cfg or ToleranceConfig()
    e = eigen._phase_canonical(np.asarray(pair.vector, dtype=np.complex128))
    e = e / np.linalg.norm(e)
    if abs(complex(np.dot(e, e))) > cfg.iso_tol:
        raise ValidationError("eigenvector is not isotropic; wrong branch")
    vprime = complement_basis_within(e, iso_tol=cfg.iso_tol)
    a_prime = np.hstack([vprime, e.conj().reshape(-1, 1), e.reshape(-1, 1)])
    c_prime = a_prime.T @ c @ a_prime
    c_prime = 0.5 * (c_prime + c_prime.T)
    m = c.shape[0]
    ct_prime = c_prime[: m - 1, : m - 1].copy()
    return a_prime, c_prime, ct_prime


def _plan(c: np.ndarray, pair: eigen.EigenPair, cfg: ToleranceConfig, depth: int) -> LevelPlan:
    """Decide the branch of one level for ``pair`` and build its congruence.

    The record carries ``pair.value`` (on the isotropic branches, the
    measured corner lambda*alpha) in the units of ``c``.
    """
    m = c.shape[0]
    b = np.zeros((m, m), dtype=np.complex128)
    ete = complex(np.dot(pair.vector, pair.vector))
    if abs(ete) > cfg.iso_tol:
        a, ct, mu = reduce_case_i(c, pair, cfg)
        b[m - 1, m - 1] = principal_sqrt(mu)
        return LevelPlan(LevelRecord(dim=m, branch=BRANCH_CASE_I, value=pair.value, ete=ete), a, ct, b)
    a_prime, c_prime, ct_prime = reduce_case_ii(c, pair, cfg)
    la = complex(c_prime[m - 2, m - 1])  # measured corner entry lambda*alpha
    iso = dict(dim=m, value=la, ete=0.0)
    if abs(la) <= _LAMBDA_ZERO_CUT * frobenius(c):
        return LevelPlan(LevelRecord(branch=BRANCH_CASE_II_LAMBDA_ZERO, **iso), a_prime, ct_prime, b)
    chosen = choose_x(ct_prime, la, cfg, depth)
    allzero = isinstance(chosen, AllZeroSignal)
    if allzero or frobenius(ct_prime) <= _DROP_CUT * frobenius(c):
        b[m - 2 :, m - 2 :] = factor_antidiagonal(la)
        record = LevelRecord(branch=BRANCH_CASE_II_DEGENERATE, x_strategy="allzero" if allzero else "dropped",
                             **iso)
        return LevelPlan(record, a_prime, None, b)
    x = chosen.x
    y = ct_prime @ x
    u = np.zeros(m - 1, dtype=np.complex128)
    u[-1] = la
    ct = ct_prime + np.outer(y, u) + np.outer(u, y)
    b[m - 1, m - 1] = principal_sqrt(complex(x @ y))  # lambda'^2 = sum x_i y_i = -det D
    record = LevelRecord(branch=BRANCH_CASE_II_GENERAL, det_d=chosen.det_d, x_strategy=chosen.strategy, **iso)
    return LevelPlan(record, a_prime @ build_D(x, y), 0.5 * (ct + ct.T), b, sound=chosen.score >= 1e-3)


def factor_symmetric(c, cfg: ToleranceConfig | None = None) -> FactorizationResult:
    """Factor a complex symmetric matrix as C = V V^T.

    The input may deviate from exact symmetry by at most 1e-12 * |C|_F
    (it is symmetrized once); larger defects raise NotSymmetricError.
    """
    c = as_matrix(c, square=True, name="C")
    cfg = cfg or ToleranceConfig()
    norm_c = frobenius(c)
    defect = frobenius(c - c.T)
    if defect > _SYM_BAND * max(norm_c, np.finfo(np.float64).tiny):
        raise NotSymmetricError(f"matrix is not symmetric: |C - C^T| = {defect:.3g}")
    c = 0.5 * (c + c.T)
    levels: list = []
    steps: list = []  # (A, B, |block|_F) of each planned level, top down
    block, depth = c, 0
    units = 1.0  # the working block is the input's sub-block divided by this
    while True:
        m = block.shape[0]
        norm = frobenius(block)
        if norm == 0.0:
            levels.append(LevelRecord(dim=m, branch=BRANCH_ZERO_MATRIX))
            v = np.zeros((m, m), dtype=np.complex128)
            break
        if m == 1:
            value = complex(block[0, 0])
            levels.append(LevelRecord(dim=1, branch=BRANCH_BASE, value=value * units))
            v = np.array([[principal_sqrt(value)]], dtype=np.complex128)
            break
        # work at unit norm: the bordered transform of the isotropic branch uses
        # x_n = -1/(lambda*alpha), which is only well-scaled when |C| ~ 1.  The
        # unit-norm block is bit for bit the same for C and 4^k*C, so V scales by
        # 2^k and every value by 4^k; other scales round it differently, which can
        # pick another (equally valid) isotropic line in a multi-dimensional
        # eigenspace and change the levels below
        block = block / norm
        units *= norm
        plan = _first_sound_plan(block, cfg, depth)
        levels.append(replace(plan.record, value=plan.record.value * units))
        steps.append((plan.a, plan.b, norm))
        if plan.sub is None:
            v = None
            break
        block, depth = plan.sub, depth + 1
    for a, b, norm in reversed(steps):
        if v is not None:
            b[: len(v), : len(v)] = v.T
        v = solve_linear(a.T, b.T) * np.sqrt(norm)
    check = verify_factorization(c, v, cfg)
    return FactorizationResult(
        V=v,
        residual=check.residual,
        relative_residual=check.relative_residual,
        trace=RecursionTrace(levels=tuple(levels)),
    )
