"""Constructive V V^T factorization of complex symmetric matrices.

The construction is an induction on the dimension.  Each level takes one
eigenpair (lambda, e) of the current symmetric block C and branches on
whether e is isotropic (e^T e = 0, possible only over the complex field):

* ``CaseI``               non-isotropic e: a complex-orthogonal reflector
                          maps e/sqrt(e^T e) to the last axis and splits off
                          a 1x1 corner, recurse on the rest.  The reflector
                          is also a similarity, so when e came straight from
                          a spectrum the other eigenpairs carry down.
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

``_first_sound_plan`` is the one place where a level's branch is decided.
Its plan holds the level's congruence A, the next block, and the part of B
(with B^T B = A^T C A) known at this level.  ``factor_symmetric`` walks the
blocks down in a loop, keeping each level's A and known part of B, then
assembles V = A^-T B^T bottom-up, so the Python stack does not grow with the
dimension.  A CaseI level's reflector has A^-T = A and assembles by one
rank-1 update; the other levels solve with A^T.  A reflector level keeps
its reflector vector and B's last row only, so a chain of them keeps O(n^2)
numbers in all.  A chain of CaseI levels on simple eigenpairs runs on the
one eigendecomposition taken at its top.

Every returned factor satisfies |C - V V^T|_F <= verify_tol * max(|C|_F, 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import eigen
from .matcore import (
    ToleranceConfig,
    ValidationError,
    _principal_sqrt,
    as_matrix,
    as_scalar,
    bilinear,
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
class Reflector:
    """Complex-orthogonal Q = P H, held in factored form.

    H = I - beta u u^T with beta = 2/(u^T u) has H = H^T = H^-1, and P swaps
    coordinate ``perm[-1]`` with the last one, so Q^T Q = I: Q is a
    congruence and a similarity at once, and Q^-T = Q.
    """

    perm: np.ndarray
    u: np.ndarray
    beta: complex

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Q x, by one rank-1 update and a row swap."""
        return (x - self.beta * (self.u[:, None] * (self.u @ x)[None, :]))[self.perm]


@dataclass(frozen=True)
class LevelPlan:
    """One level, decided but not yet assembled.

    The level's factor is V = A^-T B^T: a ``Reflector`` A (every CaseI level
    but a lone null vector's split) has A^-T = A, so V = A B^T; any other
    congruence A solves with A^T.  For a ``Reflector`` level, ``b`` is B's
    last row (g/sqrt(mu), sqrt(mu)): B's other rows are the transposed
    factor of ``sub`` and a zero column.  For any other level ``b`` is B
    (m x m) with its leading r x r block left zero for the transposed factor
    of ``sub``, the next block (r x r).  ``sub`` is None when this level
    ends the chain.  ``spectrum`` holds the eigenpairs (vals, vecs) of
    ``sub`` that a reflector level carries down, in the units of this
    level's block; it is None when the next level takes a fresh
    eigendecomposition.  ``sound`` is False only for a bordered transform
    that scored ill-conditioned: some coupling blocks (a cross coupling with
    vanishing diagonal that is small but not negligible, say) admit no
    well-conditioned transform at all, and another eigenvalue candidate is
    then preferable.
    """

    record: LevelRecord
    a: np.ndarray | Reflector
    sub: np.ndarray | None
    b: np.ndarray
    sound: bool = True
    spectrum: tuple | None = None


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


def _null_split(c: np.ndarray, pair: eigen.EigenPair, null: np.ndarray, cfg: ToleranceConfig,
                units: float = 1.0) -> LevelPlan:
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
    record = LevelRecord(dim=m, branch=branch, value=pair.value * units, ete=ete)
    return LevelPlan(record, np.hstack([r, null]), 0.5 * (ct + ct.T), np.zeros((m, m), dtype=np.complex128))


def _reflector_plan(c: np.ndarray, pair: eigen.EigenPair, rest: tuple | None, units: float = 1.0) -> LevelPlan:
    """CaseI level by a complex-orthogonal reflector, for a non-isotropic e.

    f = e/sqrt(e^T e) has f^T f = 1, so u = f - s*e_j (s = +-1) gives
    H f = s*e_j with H = I - beta u u^T; after P swaps j with the last
    coordinate, Q = P H maps the last axis to s*f and Q^T C Q =
    blockdiag(C~, mu).  Q^T = Q^-1, so the other eigenpairs ``rest`` =
    (vals, vecs) of C carry down to C~ as (vals, (Q^T v)[:-1]), and the next
    level needs no eigendecomposition of its own; with ``rest`` None it takes
    a fresh one.  Each coordinate j takes the sign with Re(s f_j) <= 0, as a
    Householder vector does: then |u_j| = |f_j - s| >= 1 never cancels (a
    coordinate eigenvector would give u = 0 with the other sign), and j
    maximises |u_j|, so |beta| = 2/|u^T u| = 1/|u_j| <= 1 is as small as it
    gets.
    """
    m = c.shape[0]
    ete = complex(np.dot(pair.vector, pair.vector))
    f = pair.vector / _principal_sqrt(ete)
    signs = np.where(f.real < 0.0, 1.0, -1.0)
    j = int(np.argmax(np.abs(f - signs)))
    perm = np.arange(m)
    perm[j], perm[-1] = m - 1, j
    u = f[perm]
    u[-1] -= signs[j]
    beta = 2.0 / complex(u @ u)
    # H C_p H = C_p - (u z^T + z u^T), C_p = P^T C P, by one rank-2 update;
    # u[:, None] * z[None, :] is np.outer(u, z), the same product without the call
    cp = c[perm][:, perm]
    w = cp @ u
    z = beta * w - (0.5 * beta * beta * complex(u @ w)) * u
    sub = cp[:-1, :-1] - (u[:-1, None] * z[None, :-1] + z[:-1, None] * u[None, :-1])
    mu = complex(cp[-1, -1] - 2.0 * u[-1] * z[-1])
    spectrum = None
    if rest is not None:
        carried = rest[1][perm]
        carried -= beta * (u[:, None] * (u @ carried)[None, :])
        spectrum = (rest[0], carried[:-1])
    # B's last row also carries the rounding-level coupling g = (Q^T C Q)[:-1, -1]
    # as g/sqrt(mu): then B^T B leaves out only g g^T/mu, not g
    b = np.empty(m, dtype=np.complex128)
    b[-1] = root = _principal_sqrt(mu)
    b[:-1] = (cp[:-1, -1] - (u[:-1] * z[-1] + z[:-1] * u[-1])) / root
    record = LevelRecord(dim=m, branch=BRANCH_CASE_I, value=pair.value * units, ete=ete)
    return LevelPlan(record, Reflector(perm, u, beta), sub, b, spectrum=spectrum)


def _first_sound_plan(c: np.ndarray, cfg: ToleranceConfig, depth: int, spectrum=None,
                      scale: float | None = None, units: float = 1.0) -> LevelPlan:
    """Plan of one level, for the first eigenvalue candidate with a sound plan.

    Walks the eigenvalue candidates largest modulus first, from ``spectrum``
    (eigenpairs carried down by a reflector level) or a fresh
    eigendecomposition.  A candidate is taken when it gives an exact route:
    the null space (one unitary split), an isotropic vector whose plan is
    sound, or a safely non-isotropic vector, which takes a reflector level.
    Candidates in the ill-conditioned gaps are deferred; nearly nilpotent
    blocks always hold a clean candidate further down the list.  A pair
    taken directly from the spectrum (no ``basis``) belongs to a simple
    eigenvalue; as C is symmetric, e^T is also its left eigenvector, so
    e^T e != 0, its eigenspace holds no isotropic direction to upgrade to,
    and its reflector level carries the other eigenpairs down.  When the
    carried spectrum gives no plan in the walk, the walk starts again on a
    fresh eigendecomposition.  The last resort, the non-isotropic pair with
    the largest e^T e in the ill-conditioned gap, takes a reflector level
    that carries no eigenpairs (its reflector has condition ~ 1/|e^T e|).
    ``scale`` is |C|_F when the caller has it; C is the input's block divided
    by ``units``, and the plan's record is in the input's units.
    """
    fallback_iso = None  # (isotropic pair, its unsound plan or None)
    fallback_ete = None  # non-isotropic vector with e^T e in the ill-conditioned gap
    scale = frobenius(c) if scale is None else scale
    for pair, basis, rest in eigen._candidate_pairs(c, cfg, spectrum, scale):
        if abs(pair.value) <= _LAMBDA_ZERO_CUT * scale:
            return _null_split(c, pair, basis, cfg, units)
        ete = abs(complex(np.dot(pair.vector, pair.vector)))
        if ete <= cfg.iso_tol:
            iso = pair
        else:
            iso = None if basis is None else _isotropic_upgrade(c, pair, basis)
        if iso is not None:
            in_gap = _LAMBDA_ZERO_CUT * scale < abs(iso.value) < _LAMBDA_DANGER * scale
            plan = None if in_gap else _plan(c, iso, cfg, depth, units)
            if plan is not None and plan.sound:
                return plan
            if fallback_iso is None or abs(iso.value) > abs(fallback_iso[0].value):
                fallback_iso = (iso, plan)
            continue
        if ete >= _ETE_DANGER:
            return _reflector_plan(c, pair, rest, units)
        if fallback_ete is None or ete > abs(bilinear(fallback_ete.vector, fallback_ete.vector)):
            fallback_ete = pair
    if spectrum is not None:
        return _first_sound_plan(c, cfg, depth, scale=scale, units=units)
    if fallback_iso is not None:
        iso, plan = fallback_iso
        return plan if plan is not None else _plan(c, iso, cfg, depth, units)
    if fallback_ete is not None:
        return _reflector_plan(c, fallback_ete, None, units)
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
    return a_prime, c_prime, c_prime[:-1, :-1].copy()


def _plan(c: np.ndarray, pair: eigen.EigenPair, cfg: ToleranceConfig, depth: int,
          units: float = 1.0) -> LevelPlan:
    """Decide the isotropic branch of one level for ``pair`` and build its congruence.

    The record carries the measured corner lambda*alpha in the units of
    ``c`` times ``units``; a corner under the lambda = 0 cut is a
    ``CaseII_LambdaZero`` level.
    """
    m = c.shape[0]
    b = np.zeros((m, m), dtype=np.complex128)
    a_prime, c_prime, ct_prime = reduce_case_ii(c, pair, cfg)
    la = complex(c_prime[m - 2, m - 1])  # measured corner entry lambda*alpha
    iso = dict(dim=m, value=la * units, ete=0.0)
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
    block, depth, spectrum = c, 0, None
    units = 1.0  # the working block is the input's sub-block divided by this
    while True:
        m = block.shape[0]
        norm = frobenius(block)
        # a block at the eigenspace cut of the input is rounding noise (the
        # remainder of a rank-deficient input once its range has left): at
        # unit norm it would have no null space, and would be walked down one
        # level per dimension
        if norm * units <= eigen._EIGENSPACE_CUT * norm_c:
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
        if spectrum is not None:
            spectrum = (spectrum[0] / norm, spectrum[1])
        plan = _first_sound_plan(block, cfg, depth, spectrum, frobenius(block), units)
        levels.append(plan.record)
        steps.append((plan.a, plan.b, norm))
        if plan.sub is None:
            v = None
            break
        block, depth, spectrum = plan.sub, depth + 1, plan.spectrum
    for a, b, norm in reversed(steps):
        if isinstance(a, Reflector):  # b is B's last row: B = [[v^T, 0], [b]]
            row, b = b, np.zeros((len(b), len(b)), dtype=np.complex128)
            b[-1] = row
        if v is not None:
            b[: len(v), : len(v)] = v.T
        v = (a.apply(b.T) if isinstance(a, Reflector) else solve_linear(a.T, b.T)) * np.sqrt(norm)
    residual = frobenius(c - v @ v.T)
    return FactorizationResult(
        V=v,
        residual=residual,
        relative_residual=residual / max(frobenius(c), 1.0),
        trace=RecursionTrace(levels=tuple(levels)),
    )
